#include "blob/meta_ops.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "sim/sync.hpp"

namespace bs::blob::meta_ops {

namespace {

/// Latest extent with version <= vmax overlapping chunks [lo, lo+count).
const WriteExtent* latest_overlapping(std::span<const WriteExtent> history,
                                      Version vmax, std::uint64_t lo,
                                      std::uint64_t count) {
  const WriteExtent* best = nullptr;
  for (const auto& w : history) {
    if (w.version > vmax || w.version == kInvalidVersion) continue;
    if (!w.overlaps(lo, count)) continue;
    if (best == nullptr || w.version > best->version) best = &w;
  }
  return best;
}

}  // namespace

Version subtree_version(std::span<const WriteExtent> history, Version vmax,
                        std::uint64_t lo, std::uint64_t count) {
  const WriteExtent* w = latest_overlapping(history, vmax, lo, count);
  return w != nullptr ? w->version : kInvalidVersion;
}

namespace {

/// The subtrees a write borrows straight from the history: each child of an
/// in-write node that the write does not overlap. Only the two boundary
/// paths have such children, at most one left and one right per level, so
/// they follow from the write's extent alone. They are disjoint and sorted
/// by position (left flanks top-down, then right flanks bottom-up), which
/// is also the order in which ref_rec's depth-first walk reaches them.
class Flanks {
 public:
  Flanks(const WriteExtent& w, std::uint64_t root_chunks) {
    // A flank of size h hangs off the in-write node of size 2h that holds
    // a boundary chunk. The write misses that node's left half exactly
    // when bit h of `first` is set, and its right half exactly when bit h
    // of `last` is clear: one left flank per set bit of `first`, one right
    // flank per clear bit of `last` below the root.
    const std::uint64_t first = w.first_chunk;
    const std::uint64_t last = w.first_chunk + w.chunk_count - 1;
    for (std::uint64_t bits = first; bits != 0;) {
      const std::uint64_t h = std::bit_floor(bits);
      push(first & ~(2 * h - 1), h);
      bits -= h;
    }
    for (std::uint64_t bits = ~last & (root_chunks - 1); bits != 0;) {
      const std::uint64_t h = std::uint64_t{1} << std::countr_zero(bits);
      push((last & ~(2 * h - 1)) + h, h);
      bits -= h;
    }
  }

  /// Answers latest_overlapping(history, vmax, f.lo, f.count) for every
  /// flank f in one pass: each extent binary-searches the flanks it
  /// overlaps, with the same filter and strictly-greater tie rule.
  void resolve(std::span<const WriteExtent> history, Version vmax) {
    if (n_ == 0) return;
    Flank* const begin = flanks_.data();
    Flank* const end = begin + n_;
    for (const auto& w : history) {
      if (w.version > vmax || w.version == kInvalidVersion) continue;
      Flank* f = std::partition_point(begin, end, [&w](const Flank& x) {
        return x.lo + x.count <= w.first_chunk;
      });
      const std::uint64_t w_end = w.first_chunk + w.chunk_count;
      for (; f != end && f->lo < w_end; ++f) {
        if (f->prev == nullptr || w.version > f->prev->version) f->prev = &w;
      }
    }
  }

  /// The answer for the next flank in walk order, which is [lo, lo+count).
  const WriteExtent* take([[maybe_unused]] std::uint64_t lo,
                          [[maybe_unused]] std::uint64_t count) {
    assert(next_ < n_ && flanks_[next_].lo == lo &&
           flanks_[next_].count == count);
    return flanks_[next_++].prev;
  }

 private:
  struct Flank {
    std::uint64_t lo;
    std::uint64_t count;
    const WriteExtent* prev;
  };

  void push(std::uint64_t lo, std::uint64_t count) {
    assert(n_ < flanks_.size());
    flanks_[n_++] = Flank{lo, count, nullptr};
  }

  // Two per level below the root of a tree of at most 2^63 chunks. Only
  // [0, n_) is ever written or read, so the array is left unfilled: a
  // small write's build would otherwise start by zeroing 3 KB.
  std::array<Flank, 126> flanks_;
  std::size_t n_{0};
  std::size_t next_{0};
};

struct BuildCtx {
  BlobId blob;
  const WriteExtent* w;
  std::span<const ChunkDescriptor> leaves;
  std::span<const WriteExtent> history;
  Flanks* flanks;
  std::vector<std::pair<NodeKey, TreeNode>>* out;
};

// Resolves the version reference for subtree [lo, lo+count) in the new
// tree, emitting any nodes version v must own:
//  * subtrees the write touches get fresh nodes down to the leaves;
//  * untouched subtrees are borrowed from the latest earlier version —
//    unless that version's whole tree is *shorter* than the subtree (the
//    root grew by 2+ levels past it), in which case v emits a "bridge"
//    node that descends toward the old root;
//  * never-written subtrees are holes (kInvalidVersion).
// `flank` says the parent is in the write: then an untouched subtree was
// answered up front, and only a bridge's descendants scan the history.
Version ref_rec(const BuildCtx& ctx, std::uint64_t lo, std::uint64_t count,
                bool flank) {
  const Version v = ctx.w->version;
  const bool in_write = ctx.w->overlaps(lo, count);
  if (!in_write) {
    const WriteExtent* prev =
        flank ? ctx.flanks->take(lo, count)
              : latest_overlapping(ctx.history, v - 1, lo, count);
    if (prev == nullptr) return kInvalidVersion;
    // Aligned pow2 ranges nest: either this range fits inside prev's tree
    // (borrow its node directly) or it strictly contains it (bridge).
    if (!(lo == 0 && count > prev->root_chunks)) return prev->version;
  }
  NodeKey key{ctx.blob, v, lo, count};
  TreeNode node;
  if (count == 1) {
    // A bridge can never reach a leaf (a tree root covers >= 1 chunk), so
    // arriving here means the write owns this chunk.
    assert(in_write);
    node.leaf = true;
    assert(lo >= ctx.w->first_chunk &&
           lo < ctx.w->first_chunk + ctx.w->chunk_count);
    node.chunk = ctx.leaves[lo - ctx.w->first_chunk];
  } else {
    const std::uint64_t half = count / 2;
    node.left_version = ref_rec(ctx, lo, half, in_write);
    node.right_version = ref_rec(ctx, lo + half, half, in_write);
  }
  ctx.out->emplace_back(key, std::move(node));
  return v;
}

}  // namespace

std::vector<std::pair<NodeKey, TreeNode>> build_nodes(
    BlobId blob, const WriteExtent& w,
    std::span<const ChunkDescriptor> leaves,
    std::span<const WriteExtent> history, std::uint64_t root_chunks) {
  assert(leaves.size() == w.chunk_count);
  assert(root_chunks == next_pow2(root_chunks));
  assert(w.first_chunk + w.chunk_count <= root_chunks);
  assert(w.chunk_count > 0);
  std::vector<std::pair<NodeKey, TreeNode>> out;
  // 2 * chunk_count is a good upper-bound guess for the path-closed set.
  out.reserve(2 * w.chunk_count + 8);
  Flanks flanks(w, root_chunks);
  flanks.resolve(history, w.version - 1);
  BuildCtx ctx{blob, &w, leaves, history, &flanks, &out};
  const Version root_ref = ref_rec(ctx, 0, root_chunks, false);
  assert(root_ref == w.version);
  (void)root_ref;
  return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> node_ranges(
    const WriteExtent& w, std::span<const WriteExtent> history,
    std::uint64_t root_chunks) {
  // Reuse the build recursion with dummy leaves; collect emitted keys.
  std::vector<ChunkDescriptor> leaves(w.chunk_count);
  for (std::uint64_t i = 0; i < w.chunk_count; ++i) {
    leaves[i].key = ChunkKey{BlobId{0}, w.version, w.first_chunk + i};
  }
  auto nodes = build_nodes(BlobId{0}, w, leaves, history, root_chunks);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(nodes.size());
  for (const auto& [key, node] : nodes) {
    out.emplace_back(key.offset_chunks, key.size_chunks);
  }
  return out;
}

// bslint: allow(coro-ref-param): see meta_ops.hpp — awaited immediately
sim::Task<Result<std::vector<LeafRef>>> collect(
    sim::Simulation& sim, MetadataStore& store, BlobId blob,
    Version root_version, std::uint64_t root_chunks, std::uint64_t lo,
    std::uint64_t count) {
  std::vector<LeafRef> result;
  if (count == 0) co_return result;

  struct Pending {
    NodeKey key;
    Result<TreeNode> node{Errc::internal};
  };

  // Frontier of subtrees still to resolve at the current level.
  std::vector<Pending> frontier;
  frontier.push_back(
      {NodeKey{blob, root_version, 0, root_chunks}, Errc::internal});

  auto emit_holes = [&](std::uint64_t range_lo, std::uint64_t range_count) {
    const std::uint64_t from = std::max(range_lo, lo);
    const std::uint64_t to = std::min(range_lo + range_count, lo + count);
    for (std::uint64_t i = from; i < to; ++i) {
      result.push_back(LeafRef{i, true, {}});
    }
  };

  while (!frontier.empty()) {
    // Fetch this level's nodes in parallel.
    sim::WaitGroup wg(sim);
    for (auto& p : frontier) {
      wg.launch([](MetadataStore& st, Pending& slot) -> sim::Task<void> {
        slot.node = co_await st.get(slot.key);
      }(store, p));
    }
    co_await wg.wait();

    std::vector<Pending> next;
    for (auto& p : frontier) {
      if (!p.node.ok()) co_return p.node.error();
      const TreeNode& n = p.node.value();
      if (p.key.is_leaf()) {
        result.push_back(LeafRef{p.key.offset_chunks, false, n.chunk});
        continue;
      }
      const std::uint64_t half = p.key.size_chunks / 2;
      const std::uint64_t l_lo = p.key.offset_chunks;
      const std::uint64_t r_lo = p.key.offset_chunks + half;
      auto descend = [&](std::uint64_t child_lo, Version child_version) {
        // Skip subtrees outside the query range.
        if (child_lo + half <= lo || child_lo >= lo + count) return;
        if (child_version == kInvalidVersion) {
          emit_holes(child_lo, half);
          return;
        }
        // Built in place (emplace + assign) rather than pushed as a
        // temporary: GCC 12 issues a spurious -Wmaybe-uninitialized for
        // the variant inside the moved-from temporary's Result.
        next.emplace_back();
        next.back().key = NodeKey{blob, child_version, child_lo, half};
      };
      descend(l_lo, n.left_version);
      descend(r_lo, n.right_version);
    }
    frontier = std::move(next);
  }

  std::sort(result.begin(), result.end(),
            [](const LeafRef& a, const LeafRef& b) {
              return a.chunk_index < b.chunk_index;
            });
  co_return result;
}

}  // namespace bs::blob::meta_ops
