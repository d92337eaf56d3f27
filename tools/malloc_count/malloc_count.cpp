// malloc_count — an LD_PRELOAD library that counts the process's calls to
// malloc (operator new included: libstdc++ allocates through malloc) and
// tracks the peak of its live heap, and prints both on stderr when the
// process exits:
//
//   LD_PRELOAD=build/tools/malloc_count/libmalloc_count.so ./prog
//   ... malloc_count: 534177 mallocs, peak 26358184 bytes live
//
// The count covers the whole process, set-up and teardown included, and
// counts malloc calls only, as it always has. The live heap is the sum of
// malloc_usable_size over every block malloc, calloc, realloc and the
// aligned entry points handed out and free or realloc did not take back;
// the peak is its largest value. Unlike the resident set, it does not
// depend on page reuse or the allocator's trimming, so a deterministic
// program repeats it exactly run to run.
#include <malloc.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

extern "C" {
void* __libc_malloc(std::size_t size) noexcept;
void* __libc_calloc(std::size_t n, std::size_t size) noexcept;
void* __libc_realloc(void* p, std::size_t size) noexcept;
void __libc_free(void* p) noexcept;
void* __libc_memalign(std::size_t align, std::size_t size) noexcept;
void* __libc_valloc(std::size_t size) noexcept;
void* __libc_pvalloc(std::size_t size) noexcept;
}

namespace {
std::atomic<unsigned long long> g_mallocs{0};
std::atomic<long long> g_live{0};
std::atomic<long long> g_peak{0};

/// Books a block handed out (bytes > 0) or taken back (bytes < 0).
void book(long long bytes) {
  const long long live =
      g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  long long peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live,
                                       std::memory_order_relaxed)) {
  }
}

long long usable(void* p) {
  return static_cast<long long>(malloc_usable_size(p));
}

void* handed_out(void* p) {
  if (p != nullptr) book(usable(p));
  return p;
}

[[gnu::destructor]] void report() {
  std::fprintf(stderr, "malloc_count: %llu mallocs, peak %lld bytes live\n",
               g_mallocs.load(), g_peak.load());
}
}  // namespace

extern "C" {

void* malloc(std::size_t size) noexcept {
  g_mallocs.fetch_add(1, std::memory_order_relaxed);
  return handed_out(__libc_malloc(size));
}

void* calloc(std::size_t n, std::size_t size) noexcept {
  return handed_out(__libc_calloc(n, size));
}

void* realloc(void* p, std::size_t size) noexcept {
  const long long before = p != nullptr ? usable(p) : 0;
  void* q = __libc_realloc(p, size);
  // A failed realloc leaves `p` alone; realloc(p, 0) frees it.
  if (q != nullptr) {
    book(usable(q) - before);
  } else if (size == 0) {
    book(-before);
  }
  return q;
}

void free(void* p) noexcept {
  if (p == nullptr) return;
  book(-usable(p));
  __libc_free(p);
}

void* memalign(std::size_t align, std::size_t size) noexcept {
  return handed_out(__libc_memalign(align, size));
}

void* aligned_alloc(std::size_t align, std::size_t size) noexcept {
  return handed_out(__libc_memalign(align, size));
}

int posix_memalign(void** out, std::size_t align, std::size_t size) noexcept {
  if (align % sizeof(void*) != 0 || (align & (align - 1)) != 0) {
    return EINVAL;
  }
  void* p = handed_out(__libc_memalign(align, size));
  if (p == nullptr) return ENOMEM;
  *out = p;
  return 0;
}

void* valloc(std::size_t size) noexcept {
  return handed_out(__libc_valloc(size));
}

void* pvalloc(std::size_t size) noexcept {
  return handed_out(__libc_pvalloc(size));
}

}  // extern "C"
