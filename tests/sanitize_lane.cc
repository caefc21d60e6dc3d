// Entry point of the ASan+UBSan lane: `ctest -L sanitize`.
//
// In a build without BKUP_SANITIZE it exits 77, which ctest reports as
// skipped. In a sanitized build it fails unless the AddressSanitizer runtime
// is linked and poisons the redzone past a heap allocation, so a suite run
// in that build directory really ran under ASan.
#include <cstdio>

extern "C" int __asan_address_is_poisoned(const volatile void* addr)
    __attribute__((weak));

int main() {
#ifndef BKUP_SANITIZED
  std::puts("not a sanitized build (configure with -DBKUP_SANITIZE=...)");
  return 77;
#else
  if (__asan_address_is_poisoned == nullptr) {
    std::puts("FAIL: sanitized build without the ASan runtime linked");
    return 1;
  }
  char* block = new char[16];
  const bool inside = __asan_address_is_poisoned(block) != 0;
  const bool redzone = __asan_address_is_poisoned(block + 16) != 0;
  delete[] block;
  if (inside || !redzone) {
    std::puts("FAIL: ASan runtime linked but not poisoning heap redzones");
    return 1;
  }
  std::puts("OK: ASan runtime linked and active");
  return 0;
#endif
}
