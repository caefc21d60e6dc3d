#include "src/util/stream_buffer.h"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace bkup {

std::span<uint8_t> HugePageInterior(uint8_t* data, size_t capacity) {
  const auto begin = reinterpret_cast<uintptr_t>(data);
  const uintptr_t lo = (begin + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const uintptr_t hi = (begin + capacity) & ~(kHugePageBytes - 1);
  if (lo >= hi) {
    return {};
  }
  return {data + (lo - begin), hi - lo};
}

void ReserveBytes(std::vector<uint8_t>* buf, size_t n) {
  const size_t before = buf->capacity();
  buf->reserve(n);
  if (buf->capacity() == before) {
    return;
  }
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  const std::span<uint8_t> interior =
      HugePageInterior(buf->data(), buf->capacity());
  if (!interior.empty()) {
    (void)madvise(interior.data(), interior.size(), MADV_HUGEPAGE);
  }
#endif
}

}  // namespace bkup
