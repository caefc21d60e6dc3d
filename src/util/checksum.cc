#include "src/util/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace bkup {
namespace {

// Generate the CRC-32C (polynomial 0x1EDC6F41, reflected 0x82F63B78) table at
// static-init time; 256 entries, byte-at-a-time.
std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256> table = MakeCrc32cTable();
  return table;
}

uint32_t Crc32cTableLoop(std::span<const uint8_t> data, uint32_t seed) {
  const auto& table = Crc32cTable();
  uint32_t crc = ~seed;
  for (uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same reflected CRC-32C, eight
// bytes per step. memcpy keeps the loads free of alignment assumptions.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(
    std::span<const uint8_t> data, uint32_t seed) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t crc = static_cast<uint32_t>(~seed);
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return ~crc32;
}
#endif

}  // namespace

uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed) {
#if defined(__x86_64__)
  // Decided once. __builtin_cpu_init keeps the answer right even when the
  // first call comes from a static initializer that runs before libgcc's.
  static const bool has_sse42 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  if (has_sse42) {
    return Crc32cSse42(data, seed);
  }
#endif
  return Crc32cTableLoop(data, seed);
}

uint32_t Adler32(std::span<const uint8_t> data, uint32_t seed) {
  constexpr uint32_t kMod = 65521;
  uint32_t a = seed & 0xFFFF;
  uint32_t b = (seed >> 16) & 0xFFFF;
  size_t i = 0;
  while (i < data.size()) {
    // Process in chunks small enough that a and b cannot overflow 32 bits.
    size_t chunk = data.size() - i;
    if (chunk > 5552) {
      chunk = 5552;
    }
    for (size_t j = 0; j < chunk; ++j) {
      a += data[i + j];
      b += a;
    }
    a %= kMod;
    b %= kMod;
    i += chunk;
  }
  return (b << 16) | a;
}

void Crc32cAccumulator::Update(std::span<const uint8_t> data) {
  value_ = Crc32c(data, value_);
}

}  // namespace bkup
