// Size-bucketed free-list allocator for coroutine frames. Every actor spawn
// and RPC op allocates a handful of frames; at experiment scale that is
// millions of malloc/free round trips on the hot path. The pool recycles
// frames through per-size-class free lists so steady-state simulation runs
// allocation-free.
//
// Determinism: recycling only changes *which addresses* frames land on, and
// no address is ever observable in simulation output (bslint's determinism
// rules keep it that way), so pooled and unpooled runs are bit-identical —
// tests/integration/test_pool_chaos.cpp and test_determinism.cpp replay
// whole stacks in both modes to prove it. The pool is deliberately simple:
// sizes round up to 64-byte classes, frames larger than the largest class
// (or beyond a bucket's configured cache cap) fall back to the heap, and
// the free lists live in thread-local storage because the simulation
// substrate is single-threaded by design. Under AddressSanitizer a cached
// chunk is poisoned until the pool hands it out again.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bs::sim {

class FramePool {
 public:
  /// Size-class granularity and the largest pooled frame. Frames above
  /// kMaxChunk bytes always go straight to the heap (exhaustion fallback
  /// path; correctness never depends on pooling).
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kMaxChunk = 4096;
  static constexpr std::size_t kBuckets = kMaxChunk / kGranularity;

  /// The pool serving the current thread (the simulation substrate is
  /// single-threaded; each test thread gets its own pool).
  static FramePool& instance();

  void* allocate(std::size_t n);
  void deallocate(void* p, std::size_t n) noexcept;

  struct Stats {
    std::uint64_t allocs{0};       ///< every frame allocation
    std::uint64_t frees{0};        ///< every frame deallocation
    std::uint64_t pool_hits{0};    ///< allocations served from a free list
    std::uint64_t heap_allocs{0};  ///< allocations that reached operator new
    std::uint64_t oversize{0};     ///< frames larger than kMaxChunk
    [[nodiscard]] std::uint64_t live() const { return allocs - frees; }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Toggles recycling; off is the oracle the whole-stack mode tests
  /// compare against. Chunks already cached stay valid; disabling only
  /// routes future allocations to the heap.
  void set_enabled(bool on) { enabled_ = on; }

  /// Max chunks cached per size class; frees beyond the cap go to the heap
  /// (tests use a tiny cap to drive the exhaustion/fallback path).
  void set_bucket_cap(std::size_t cap) { bucket_cap_ = cap; }
  [[nodiscard]] std::size_t bucket_cap() const { return bucket_cap_; }

  /// Releases every cached chunk back to the heap.
  void trim() noexcept;

  [[nodiscard]] std::size_t cached_chunks() const;

  ~FramePool() { trim(); }
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

 private:
  FramePool() = default;

  /// Intrusive free list: a cached chunk's first word links to the next.
  struct FreeNode {
    FreeNode* next;
  };

  static constexpr std::size_t bucket_of(std::size_t n) {
    return (n + kGranularity - 1) / kGranularity - 1;
  }
  static constexpr std::size_t chunk_size(std::size_t bucket) {
    return (bucket + 1) * kGranularity;
  }

  FreeNode* free_[kBuckets] = {};
  std::size_t cached_[kBuckets] = {};
  std::size_t bucket_cap_{1u << 16};
  bool enabled_{true};
  Stats stats_{};
};

}  // namespace bs::sim
