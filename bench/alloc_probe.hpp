// Global allocation probe for microbenches: replaces the global operator
// new/delete with counting wrappers so a bench can assert steady-state
// allocation behaviour (e.g. pooled coroutine frames => zero heap allocs
// per spawned actor after warm-up) and bound what stays allocated. Include
// from exactly ONE translation unit per binary — the replacement operators
// below are deliberately non-inline, so a second inclusion fails the link
// instead of silently double-counting.
#pragma once

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace bs::bench::alloc_probe {

inline std::atomic<std::uint64_t> g_allocs{0};
inline std::atomic<std::uint64_t> g_bytes{0};
inline std::atomic<std::uint64_t> g_frees{0};
inline std::atomic<std::uint64_t> g_live{0};

/// Total calls into the replaced global operator new since program start.
inline std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

/// Total bytes those calls asked for since program start.
inline std::uint64_t bytes_allocated() {
  return g_bytes.load(std::memory_order_relaxed);
}

inline std::uint64_t frees() {
  return g_frees.load(std::memory_order_relaxed);
}

/// Bytes held now by the blocks the replaced operator new handed out and
/// operator delete has not taken back, as malloc_usable_size counts them
/// (the allocator's rounding included).
inline std::uint64_t live_bytes() {
  return g_live.load(std::memory_order_relaxed);
}

}  // namespace bs::bench::alloc_probe

// The functions that call malloc/free stay out of line. Inlined into a
// caller, one side of a new/delete pair shows malloc or free while the other
// stays an operator call, and GCC reports -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  bs::bench::alloc_probe::g_allocs.fetch_add(1, std::memory_order_relaxed);
  bs::bench::alloc_probe::g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) {
    bs::bench::alloc_probe::g_live.fetch_add(malloc_usable_size(p),
                                             std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void* operator new(std::size_t size,
                                     std::align_val_t align) {
  bs::bench::alloc_probe::g_allocs.fetch_add(1, std::memory_order_relaxed);
  bs::bench::alloc_probe::g_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc{};
  }
  bs::bench::alloc_probe::g_live.fetch_add(malloc_usable_size(p),
                                           std::memory_order_relaxed);
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

// The nothrow forms route through the counting ones too. Left to a
// sanitizer runtime, they would allocate with its own operator new while
// the replaced delete below frees with free(), a mismatch ASan reports
// (libstdc++'s temporary buffers, e.g. std::stable_partition, use them).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  bs::bench::alloc_probe::g_frees.fetch_add(1, std::memory_order_relaxed);
  bs::bench::alloc_probe::g_live.fetch_sub(malloc_usable_size(p),
                                           std::memory_order_relaxed);
  std::free(p);
}

void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
