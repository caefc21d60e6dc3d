// Stream-sized byte buffers.
//
// Dump streams, image streams, tape media and wire images are multi-MB
// vectors reserved once at their final size and then filled front to back.
// Backed by 4 KiB pages, each such buffer costs the host one page fault per
// 4 KiB it fills. ReserveBytes reserves the buffer and asks the kernel to
// back it with transparent huge pages instead. The advice is only a hint:
// it changes no byte, no simulated time and no allocator setting, and the
// kernel may ignore it (THP mode `never`, no free huge pages, non-Linux).
#ifndef BKUP_UTIL_STREAM_BUFFER_H_
#define BKUP_UTIL_STREAM_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace bkup {

// The x86-64 and arm64 (4 KiB base page) transparent huge page size.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

// The kHugePageBytes-aligned interior of [data, data + capacity): the whole
// huge pages inside it. Empty when there are none, which is always the case
// below kHugePageBytes.
std::span<uint8_t> HugePageInterior(uint8_t* data, size_t capacity);

// `buf->reserve(n)`. When that grew the capacity, also advises the huge
// page interior of [data, data + capacity) as MADV_HUGEPAGE and ignores the
// result. A call that does not grow the capacity makes no system call, so
// it is cheap to call before every append.
void ReserveBytes(std::vector<uint8_t>* buf, size_t n);

}  // namespace bkup

#endif  // BKUP_UTIL_STREAM_BUFFER_H_
