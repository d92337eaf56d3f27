#include "sim/frame_pool.hpp"

#include <sanitizer/asan_interface.h>

#include <new>

// Under AddressSanitizer a cached chunk is poisoned, so a use after free
// of a pooled frame or RPC body is reported as it would be with the heap;
// the pool unpoisons a chunk before it touches it again. The macros expand
// to nothing in other builds.

namespace bs::sim {

FramePool& FramePool::instance() {
  thread_local FramePool pool;
  return pool;
}

void* FramePool::allocate(std::size_t n) {
  ++stats_.allocs;
  if (n > kMaxChunk) {
    ++stats_.oversize;
    ++stats_.heap_allocs;
    return ::operator new(n);
  }
  const std::size_t b = bucket_of(n);
  if (enabled_ && free_[b] != nullptr) {
    FreeNode* node = free_[b];
    ASAN_UNPOISON_MEMORY_REGION(node, chunk_size(b));
    free_[b] = node->next;
    --cached_[b];
    ++stats_.pool_hits;
    return node;
  }
  ++stats_.heap_allocs;
  // Allocate the full size class (not n) so the chunk is recyclable for any
  // request landing in the same bucket regardless of pool mode at the time.
  return ::operator new(chunk_size(b));
}

void FramePool::deallocate(void* p, std::size_t n) noexcept {
  ++stats_.frees;
  if (n > kMaxChunk) {
    ::operator delete(p);
    return;
  }
  const std::size_t b = bucket_of(n);
  if (enabled_ && cached_[b] < bucket_cap_) {
    auto* node = static_cast<FreeNode*>(p);
    node->next = free_[b];
    ASAN_POISON_MEMORY_REGION(node, chunk_size(b));
    free_[b] = node;
    ++cached_[b];
    return;
  }
  ::operator delete(p, chunk_size(b));
}

void FramePool::trim() noexcept {
  for (std::size_t b = 0; b < kBuckets; ++b) {
    while (free_[b] != nullptr) {
      FreeNode* node = free_[b];
      ASAN_UNPOISON_MEMORY_REGION(node, chunk_size(b));
      free_[b] = node->next;
      ::operator delete(node, chunk_size(b));
    }
    cached_[b] = 0;
  }
}

std::size_t FramePool::cached_chunks() const {
  std::size_t total = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) total += cached_[b];
  return total;
}

}  // namespace bs::sim
