// Checksums used on the simulated media.
//
// CRC-32C (Castagnoli) guards every on-tape record and on-disk superblock;
// Adler-32 is kept as a cheap rolling alternative for whole-file verification
// in tests and the workload generator.
#ifndef BKUP_UTIL_CHECKSUM_H_
#define BKUP_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace bkup {

// CRC-32C. On x86-64 hosts with SSE4.2 it runs on the crc32 instruction,
// eight bytes per step; elsewhere it falls back to a 256-entry table loop.
// Both give the same value. `seed` allows incremental use:
// Crc32c(b, Crc32c(a)) == Crc32c(a || b).
uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed = 0);

// Adler-32 (zlib variant).
uint32_t Adler32(std::span<const uint8_t> data, uint32_t seed = 1);

// Incremental CRC-32C helper for streaming writers.
class Crc32cAccumulator {
 public:
  void Update(std::span<const uint8_t> data);
  uint32_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint32_t value_ = 0;
};

}  // namespace bkup

#endif  // BKUP_UTIL_CHECKSUM_H_
