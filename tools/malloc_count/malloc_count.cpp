// malloc_count — an LD_PRELOAD library that counts the process's calls to
// malloc (operator new included: libstdc++ allocates through malloc) and
// prints the total on stderr when the process exits:
//
//   LD_PRELOAD=build/tools/malloc_count/libmalloc_count.so ./prog
//   ... malloc_count: 534177 mallocs
//
// The count covers the whole process, set-up and teardown included.
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

extern "C" void* __libc_malloc(std::size_t size) noexcept;

namespace {
std::atomic<unsigned long long> g_mallocs{0};

[[gnu::destructor]] void report() {
  std::fprintf(stderr, "malloc_count: %llu mallocs\n", g_mallocs.load());
}
}  // namespace

extern "C" void* malloc(std::size_t size) noexcept {
  g_mallocs.fetch_add(1, std::memory_order_relaxed);
  return __libc_malloc(size);
}
