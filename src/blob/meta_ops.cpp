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

/// Levels below the root of a tree over `root_chunks` (a power of two).
std::size_t levels(std::uint64_t root_chunks) {
  return static_cast<std::size_t>(std::countr_zero(root_chunks));
}

/// The subtrees a write borrows straight from the history: each child of an
/// in-write node that the write does not overlap. Only the two boundary
/// paths have such children, at most one left and one right per level, so
/// they follow from the write's extent alone. They are disjoint and sorted
/// by position (left flanks top-down, then right flanks bottom-up), which
/// is also the order in which the build's depth-first walk reaches them.
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

  [[nodiscard]] bool all_taken() const { return next_ == n_; }

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
  // small build would otherwise start by zeroing 3 KB.
  std::array<Flank, 126> flanks_;
  std::size_t n_{0};
  std::size_t next_{0};
};

struct ScanCtx {
  const WriteExtent* w;
  std::span<const WriteExtent> history;
  Flanks* flanks;
  std::vector<BorderVersion>* out;
};

// The border walk every build makes: depth-first through the subtrees the
// write overlaps; each subtree it does not overlap is answered, and a
// bridge's halves are answered in turn. `flank` says the parent is in the
// write: then the answer was resolved up front, and only a bridge's
// descendants scan the history.
void scan_rec(const ScanCtx& ctx, std::uint64_t lo, std::uint64_t count,
              bool flank) {
  const bool in_write = ctx.w->overlaps(lo, count);
  if (!in_write) {
    const WriteExtent* prev =
        flank ? ctx.flanks->take(lo, count)
              : latest_overlapping(ctx.history, ctx.w->version - 1, lo, count);
    BorderVersion b{lo, count, kInvalidVersion, 0};
    if (prev != nullptr) {
      b.version = prev->version;
      b.root_chunks = prev->root_chunks;
    }
    ctx.out->push_back(b);
    if (!b.bridges()) return;
  }
  if (count == 1) return;
  const std::uint64_t half = count / 2;
  scan_rec(ctx, lo, half, in_write);
  scan_rec(ctx, lo + half, half, in_write);
}

struct BuildCtx {
  BlobId blob;
  const WriteExtent* w;
  std::span<const ChunkDescriptor> leaves;
  std::span<const BorderVersion> borders;
  std::size_t next_border;
  std::vector<std::pair<NodeKey, TreeNode>>* out;
};

// Resolves the version reference for subtree [lo, lo+count) in the new
// tree, emitting any nodes version v must own:
//  * subtrees the write touches get fresh nodes down to the leaves;
//  * untouched subtrees are borrowed from the version the next border
//    answer names — unless that version's whole tree is *shorter* than the
//    subtree (the root grew by 2+ levels past it), in which case v emits a
//    "bridge" node that descends toward the old root;
//  * never-written subtrees are holes (kInvalidVersion).
// The walk is scan_rec's, so it meets the border answers in their order.
Version ref_rec(BuildCtx& ctx, std::uint64_t lo, std::uint64_t count) {
  const Version v = ctx.w->version;
  const bool in_write = ctx.w->overlaps(lo, count);
  if (!in_write) {
    assert(ctx.next_border < ctx.borders.size() &&
           ctx.borders[ctx.next_border].lo == lo &&
           ctx.borders[ctx.next_border].count == count);
    const BorderVersion& b = ctx.borders[ctx.next_border++];
    if (!b.bridges()) return b.version;
  }
  NodeKey key{ctx.blob, v, lo, count};
  TreeNode node;
  if (count == 1) {
    // A bridge can never reach a leaf (a tree root covers >= 1 chunk), so
    // arriving here means the write owns this chunk.
    assert(in_write);
    assert(lo >= ctx.w->first_chunk &&
           lo < ctx.w->first_chunk + ctx.w->chunk_count);
    // The leaf's one descriptor: every copy of the node shares it.
    node.chunk = std::make_shared<const ChunkDescriptor>(
        ctx.leaves[lo - ctx.w->first_chunk]);
  } else {
    const std::uint64_t half = count / 2;
    node.left_version = ref_rec(ctx, lo, half);
    node.right_version = ref_rec(ctx, lo + half, half);
  }
  ctx.out->emplace_back(key, std::move(node));
  return v;
}

}  // namespace

std::vector<BorderVersion> border_versions(
    std::span<const WriteExtent> history, const WriteExtent& w,
    std::uint64_t root_chunks) {
  assert(root_chunks == next_pow2(root_chunks));
  assert(w.first_chunk + w.chunk_count <= root_chunks);
  assert(w.chunk_count > 0);
  Flanks flanks(w, root_chunks);
  flanks.resolve(history, w.version - 1);
  std::vector<BorderVersion> out;
  out.reserve(2 * levels(root_chunks));  // the flanks; bridges may add more
  scan_rec(ScanCtx{&w, history, &flanks, &out}, 0, root_chunks, false);
  assert(flanks.all_taken());
  return out;
}

std::vector<std::pair<NodeKey, TreeNode>> build_nodes(
    BlobId blob, const WriteExtent& w,
    std::span<const ChunkDescriptor> leaves,
    std::span<const BorderVersion> borders, std::uint64_t root_chunks) {
  assert(leaves.size() == w.chunk_count);
  assert(root_chunks == next_pow2(root_chunks));
  assert(w.first_chunk + w.chunk_count <= root_chunks);
  assert(w.chunk_count > 0);
  std::vector<std::pair<NodeKey, TreeNode>> out;
  // The path-closed set: under 2 nodes per written chunk, plus the path
  // above the write, at most 2 per level (bridges may add a few more).
  out.reserve(2 * w.chunk_count + 2 * levels(root_chunks));
  BuildCtx ctx{blob, &w, leaves, borders, 0, &out};
  const Version root_ref = ref_rec(ctx, 0, root_chunks);
  assert(root_ref == w.version && ctx.next_border == borders.size());
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
  auto nodes = build_nodes(BlobId{0}, w, leaves,
                           border_versions(history, w, root_chunks),
                           root_chunks);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(nodes.size());
  for (const auto& [key, node] : nodes) {
    out.emplace_back(key.offset_chunks, key.size_chunks);
  }
  return out;
}

// --------------------------------------------------------- MaxVersionTree

void MaxVersionTree::offer(Node& n, Version v, std::uint64_t root_chunks) {
  if (n.version == kInvalidVersion || v > n.version) {
    n.version = v;
    n.root_chunks = root_chunks;
  }
}

std::uint32_t MaxVersionTree::child_or_new(std::uint32_t at, int side) {
  if (const std::uint32_t c = nodes_[at].child[side]; c != 0) return c;
  const auto fresh = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();  // may move nodes_: index, never hold, a node
  nodes_[at].child[side] = fresh;
  return fresh;
}

std::vector<BorderVersion> MaxVersionTree::add(const WriteExtent& w) {
  assert(w.version != kInvalidVersion && w.chunk_count > 0);
  assert(w.root_chunks == next_pow2(w.root_chunks));
  assert(w.first_chunk + w.chunk_count <= w.root_chunks);
  if (nodes_.empty()) {
    nodes_.emplace_back();  // a hole over [0, 1)
    span_ = 1;
  }
  while (span_ < w.root_chunks) {
    // The old root becomes the left half of a root twice its size; nothing
    // lies in the right half yet, so the new root holds the same write.
    const auto moved = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(nodes_[0]);
    nodes_[0].child[0] = moved;
    nodes_[0].child[1] = 0;
    span_ *= 2;
  }
  // Ranges above the write's root (an aborted write may have grown the
  // tree past it) all contain the write.
  std::uint32_t at = 0;
  for (std::uint64_t count = span_; count > w.root_chunks; count /= 2) {
    offer(nodes_[at], w.version, w.root_chunks);
    at = child_or_new(at, 0);
  }
  std::vector<BorderVersion> out;
  out.reserve(2 * levels(w.root_chunks));  // the flanks; bridges may add more
  record(at, 0, w.root_chunks, w, out);
  return out;
}

// Node `at` covers [lo, lo+count), which `w` overlaps: takes w's version
// and walks on as scan_rec would, answering the halves w does not overlap.
void MaxVersionTree::record(std::uint32_t at, std::uint64_t lo,
                            std::uint64_t count, const WriteExtent& w,
                            std::vector<BorderVersion>& out) {
  offer(nodes_[at], w.version, w.root_chunks);
  if (count == 1) return;
  const std::uint64_t half = count / 2;
  const std::uint64_t mid = lo + half;
  if (w.first_chunk < mid) {
    record(child_or_new(at, 0), lo, half, w, out);
  } else {
    answer(nodes_[at].child[0], lo, half, out);
  }
  if (w.first_chunk + w.chunk_count > mid) {
    record(child_or_new(at, 1), mid, half, w, out);
  } else {
    answer(nodes_[at].child[1], mid, half, out);
  }
}

void MaxVersionTree::answer(std::uint32_t at, std::uint64_t lo,
                            std::uint64_t count,
                            std::vector<BorderVersion>& out) const {
  BorderVersion b{lo, count, kInvalidVersion, 0};
  if (at != 0) {
    b.version = nodes_[at].version;
    b.root_chunks = nodes_[at].root_chunks;
  }
  out.push_back(b);
  if (!b.bridges()) return;
  const std::uint64_t half = count / 2;
  answer(nodes_[at].child[0], lo, half, out);
  answer(nodes_[at].child[1], lo + half, half, out);
}

void MaxVersionTree::remove(const WriteExtent& gone,
                            std::span<const WriteExtent> history) {
  if (nodes_.empty() || !gone.overlaps(0, span_)) return;
  std::vector<WriteExtent> overlapping;
  for (const WriteExtent& e : history) {
    if (e.version != kInvalidVersion &&
        e.overlaps(gone.first_chunk, gone.chunk_count)) {
      overlapping.push_back(e);
    }
  }
  rebuild(0, 0, span_, gone, overlapping);
}

// Node `at` covers [lo, lo+count), which `gone` overlaps: recomputes it
// from its halves, or at a leaf from the writes still holding the chunk.
void MaxVersionTree::rebuild(std::uint32_t at, std::uint64_t lo,
                             std::uint64_t count, const WriteExtent& gone,
                             std::span<const WriteExtent> overlapping) {
  Node fresh;
  if (count == 1) {
    for (const WriteExtent& e : overlapping) {
      if (e.overlaps(lo, 1)) offer(fresh, e.version, e.root_chunks);
    }
  } else {
    const std::uint64_t half = count / 2;
    for (int side = 0; side < 2; ++side) {
      const std::uint32_t c = nodes_[at].child[side];
      if (c == 0) continue;
      const std::uint64_t child_lo =
          lo + static_cast<std::uint64_t>(side) * half;
      if (gone.overlaps(child_lo, half)) {
        rebuild(c, child_lo, half, gone, overlapping);
      }
      if (nodes_[c].version != kInvalidVersion) {
        offer(fresh, nodes_[c].version, nodes_[c].root_chunks);
      }
    }
  }
  nodes_[at].version = fresh.version;
  nodes_[at].root_chunks = fresh.root_chunks;
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
      result.push_back(LeafRef{i, nullptr});
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
        assert(n.leaf());  // a leaf key is only ever stored with a chunk
        result.push_back(LeafRef{p.key.offset_chunks, n.chunk});
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
