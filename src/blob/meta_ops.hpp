// Segment-tree algorithms of the write and read paths.
//
// Writes use BlobSeer's *forward references*: a writer builds only its own
// path and borrows every untouched border subtree from an earlier version,
// pending writes included. The version manager answers those border
// queries from a max-version segment tree at StartWrite, so the writer
// computes every child-version pointer locally — no metadata reads, so
// concurrent writers build their trees fully in parallel and only the tiny
// version-assignment step is serialized.
//
// Reads walk the published tree level by level, fetching the nodes of each
// level in parallel from the metadata providers.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "blob/meta_tree.hpp"
#include "sim/simulation.hpp"

namespace bs::blob::meta_ops {

/// Latest version <= vmax whose write overlaps chunks [lo, lo+count);
/// kInvalidVersion when none does (the subtree is a hole).
Version subtree_version(std::span<const WriteExtent> history, Version vmax,
                        std::uint64_t lo, std::uint64_t count);

/// The versions write `w` borrows for its new tree over [0, root_chunks),
/// in build order: every flank (a child of an in-write node that `w` does
/// not overlap, at most two per level) and, under a flank that bridges,
/// the bridge's descendants. Each answer is the latest extent in `history`
/// with version < w.version overlapping the range; among extents of equal
/// version the first in history order wins. Scans the history, so the
/// version manager uses it only where later versions exist (rebuild
/// replies, trim); a start asks MaxVersionTree::add instead.
std::vector<BorderVersion> border_versions(
    std::span<const WriteExtent> history, const WriteExtent& w,
    std::uint64_t root_chunks);

/// All (key, node) records the write `w` must store: one leaf per written
/// chunk plus the copy-on-write inner path above them, up to a root covering
/// [0, root_chunks). `leaves[i]` describes chunk `w.first_chunk + i`;
/// `borders` are the write's border versions in build order (as
/// border_versions or MaxVersionTree::add return them). Deterministic, pure.
std::vector<std::pair<NodeKey, TreeNode>> build_nodes(
    BlobId blob, const WriteExtent& w,
    std::span<const ChunkDescriptor> leaves,
    std::span<const BorderVersion> borders, std::uint64_t root_chunks);

/// The (offset, size) chunk ranges of every tree node the write `w`
/// created (leaves, inner path, bridges) — exactly the keys build_nodes
/// would emit against border_versions(history, w, root_chunks). Used by the
/// version manager to compute which metadata nodes a trim makes
/// unreferenced.
std::vector<std::pair<std::uint64_t, std::uint64_t>> node_ranges(
    const WriteExtent& w, std::span<const WriteExtent> history,
    std::uint64_t root_chunks);

/// The version manager's per-blob index of its write history: a
/// max-version segment tree over chunk positions. A node covers an aligned
/// power-of-two chunk range, the shape every flank and bridge descendant
/// has, and holds the latest write overlapping that range with the write's
/// root coverage, so each border answer is one node. Only ranges some
/// write overlapped get a node, so memory follows the chunks written, not
/// the offset span. Versions must be unique.
class MaxVersionTree {
 public:
  /// Records `w` and returns its border versions over [0, w.root_chunks):
  /// border_versions(h, w, w.root_chunks), where h holds every write added
  /// and not removed before, all of them earlier than `w` (as at a start).
  /// Visits O(w.chunk_count + log n) nodes.
  std::vector<BorderVersion> add(const WriteExtent& w);

  /// Forgets `gone` (an abort): recomputes every node it overlaps from
  /// `history`, the writes that remain.
  void remove(const WriteExtent& gone, std::span<const WriteExtent> history);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    Version version{kInvalidVersion};
    std::uint64_t root_chunks{0};
    /// Indices into nodes_; 0 (the root's own index) means no node: no
    /// write overlapped that half.
    std::uint32_t child[2]{0, 0};
  };

  /// Makes `v` the node's version if it is later (or the node is a hole).
  static void offer(Node& n, Version v, std::uint64_t root_chunks);
  std::uint32_t child_or_new(std::uint32_t at, int side);
  void record(std::uint32_t at, std::uint64_t lo, std::uint64_t count,
              const WriteExtent& w, std::vector<BorderVersion>& out);
  void answer(std::uint32_t at, std::uint64_t lo, std::uint64_t count,
              std::vector<BorderVersion>& out) const;
  void rebuild(std::uint32_t at, std::uint64_t lo, std::uint64_t count,
               const WriteExtent& gone,
               std::span<const WriteExtent> overlapping);

  std::vector<Node> nodes_;  ///< nodes_[0] is the root, over [0, span_)
  std::uint64_t span_{0};
};

/// One resolved leaf of a read: either a hole (never-written chunk) or a
/// chunk descriptor telling the reader where replicas live.
struct LeafRef {
  std::uint64_t chunk_index{0};
  bool hole{true};
  ChunkDescriptor chunk;
};

/// Walks the tree of published version `root_version` (root coverage
/// `root_chunks`) and resolves all leaves intersecting chunk range
/// [lo, lo+count), in chunk order. Levels are fetched in parallel.
// bslint: allow(coro-ref-param): sim and store outlive the read; every
// caller co_awaits collect() in a single full-expression
sim::Task<Result<std::vector<LeafRef>>> collect(
    sim::Simulation& sim, MetadataStore& store, BlobId blob,
    Version root_version, std::uint64_t root_chunks, std::uint64_t lo,
    std::uint64_t count);

}  // namespace bs::blob::meta_ops
