// Little-endian serialization into byte vectors, used by every on-media
// format (dump tape records, image stream, on-disk superblock, NVRAM log).
// All on-media integers are little-endian regardless of host order, which is
// what makes the dump format "architecture neutral" as the paper requires.
#ifndef BKUP_UTIL_SERDES_H_
#define BKUP_UTIL_SERDES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace bkup {

// Appends fixed-width little-endian values to a growing byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v) { PutLE(v, 2); }
  void PutU32(uint32_t v) { PutLE(v, 4); }
  void PutU64(uint64_t v) { PutLE(v, 8); }
  void PutI64(int64_t v) { PutLE(static_cast<uint64_t>(v), 8); }

  void PutBytes(std::span<const uint8_t> bytes) {
    out_->insert(out_->end(), bytes.begin(), bytes.end());
  }

  // Length-prefixed (u16) string; names on tape are bounded at 64 KiB.
  void PutString(std::string_view s) {
    PutU16(static_cast<uint16_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }

  // Pads with zero bytes until out->size() is a multiple of `alignment`.
  void PadTo(size_t alignment) {
    while (out_->size() % alignment != 0) {
      out_->push_back(0);
    }
  }

  size_t size() const { return out_->size(); }

 private:
  void PutLE(uint64_t v, int nbytes) {
    for (int i = 0; i < nbytes; ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t>* out_;
};

// Consumes fixed-width little-endian values from a byte span with bounds
// checking; any overrun turns into a Corruption status, never UB.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool exhausted() const { return pos_ >= data_.size(); }

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<std::string> ReadString();
  // The same string as a view into the input, without copying.
  Result<std::string_view> ReadStringView();

  // Copies `n` bytes out; fails with Corruption if fewer remain.
  Result<std::vector<uint8_t>> ReadBytes(size_t n);

  // Returns a view of `n` bytes and advances, without copying.
  Result<std::span<const uint8_t>> ReadSpan(size_t n);

  Status Skip(size_t n);
  Status AlignTo(size_t alignment);

 private:
  Result<uint64_t> ReadLE(int nbytes);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace bkup

#endif  // BKUP_UTIL_SERDES_H_
