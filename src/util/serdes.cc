#include "src/util/serdes.h"

namespace bkup {

Result<uint64_t> ByteReader::ReadLE(int nbytes) {
  if (remaining() < static_cast<size_t>(nbytes)) {
    return Corruption("byte stream truncated");
  }
  uint64_t v = 0;
  for (int i = 0; i < nbytes; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += static_cast<size_t>(nbytes);
  return v;
}

Result<uint8_t> ByteReader::ReadU8() {
  BKUP_ASSIGN_OR_RETURN(uint64_t v, ReadLE(1));
  return static_cast<uint8_t>(v);
}

Result<uint16_t> ByteReader::ReadU16() {
  BKUP_ASSIGN_OR_RETURN(uint64_t v, ReadLE(2));
  return static_cast<uint16_t>(v);
}

Result<uint32_t> ByteReader::ReadU32() {
  BKUP_ASSIGN_OR_RETURN(uint64_t v, ReadLE(4));
  return static_cast<uint32_t>(v);
}

Result<uint64_t> ByteReader::ReadU64() { return ReadLE(8); }

Result<int64_t> ByteReader::ReadI64() {
  BKUP_ASSIGN_OR_RETURN(uint64_t v, ReadLE(8));
  return static_cast<int64_t>(v);
}

Result<std::string_view> ByteReader::ReadStringView() {
  BKUP_ASSIGN_OR_RETURN(uint16_t len, ReadU16());
  if (remaining() < len) {
    return Corruption("string truncated");
  }
  std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

Result<std::string> ByteReader::ReadString() {
  BKUP_ASSIGN_OR_RETURN(std::string_view s, ReadStringView());
  return std::string(s);
}

Result<std::vector<uint8_t>> ByteReader::ReadBytes(size_t n) {
  if (remaining() < n) {
    return Corruption("byte stream truncated");
  }
  std::vector<uint8_t> out(data_.begin() + static_cast<ptrdiff_t>(pos_),
                           data_.begin() + static_cast<ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Result<std::span<const uint8_t>> ByteReader::ReadSpan(size_t n) {
  if (remaining() < n) {
    return Corruption("byte stream truncated");
  }
  std::span<const uint8_t> view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

Status ByteReader::Skip(size_t n) {
  if (remaining() < n) {
    return Corruption("skip past end of stream");
  }
  pos_ += n;
  return Status::Ok();
}

Status ByteReader::AlignTo(size_t alignment) {
  const size_t rem = pos_ % alignment;
  if (rem == 0) {
    return Status::Ok();
  }
  return Skip(alignment - rem);
}

}  // namespace bkup
