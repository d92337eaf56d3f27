// Unit + property tests of the versioned segment tree: build_nodes/collect
// against a brute-force reference model of BlobSeer's shadowing semantics,
// border_versions against a per-query history scan, and the version
// manager's MaxVersionTree against border_versions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>

#include "blob/meta_ops.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace bs::blob {
namespace {

using meta_ops::LeafRef;

ChunkDescriptor make_leaf(BlobId blob, Version v, std::uint64_t index,
                          std::uint64_t size) {
  ChunkDescriptor d;
  d.key = ChunkKey{blob, v, index};
  d.size = size;
  d.checksum = hash_combine(v, index);
  d.replicas = {NodeId{index % 4}};
  return d;
}

std::vector<ChunkDescriptor> make_leaves(BlobId blob, const WriteExtent& w,
                                         std::uint64_t chunk_size) {
  std::vector<ChunkDescriptor> out;
  for (std::uint64_t i = 0; i < w.chunk_count; ++i) {
    out.push_back(make_leaf(blob, w.version, w.first_chunk + i, chunk_size));
  }
  return out;
}

/// build_nodes against the border versions `history` answers.
std::vector<std::pair<NodeKey, TreeNode>> build(
    BlobId blob, const WriteExtent& w, std::span<const ChunkDescriptor> leaves,
    std::span<const WriteExtent> history, std::uint64_t root_chunks) {
  return meta_ops::build_nodes(
      blob, w, leaves, meta_ops::border_versions(history, w, root_chunks),
      root_chunks);
}

/// Checks two border-version lists entry by entry.
void expect_same_borders(std::span<const BorderVersion> got,
                         std::span<const BorderVersion> want,
                         const WriteExtent& w) {
  EXPECT_EQ(got.size(), want.size()) << "write v" << w.version << " ["
                                     << w.first_chunk << ", +"
                                     << w.chunk_count << ")";
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i].lo, want[i].lo) << "border " << i;
    EXPECT_EQ(got[i].count, want[i].count) << "border " << i;
    EXPECT_EQ(got[i].version, want[i].version)
        << "border " << i << " [" << want[i].lo << ", +" << want[i].count
        << ") of write v" << w.version;
    EXPECT_EQ(got[i].root_chunks, want[i].root_chunks) << "border " << i;
  }
}

TEST(NextPow2, Values) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(1023), 1024u);
  EXPECT_EQ(next_pow2(1ull << 40), 1ull << 40);
}

TEST(SubtreeVersion, PicksLatestOverlapping) {
  std::vector<WriteExtent> history{
      {1, 0, 4, 4},   // v1 covers chunks [0,4)
      {2, 2, 2, 4},   // v2 covers [2,4)
      {3, 6, 2, 8},   // v3 covers [6,8)
  };
  EXPECT_EQ(meta_ops::subtree_version(history, 3, 0, 2), 1u);
  EXPECT_EQ(meta_ops::subtree_version(history, 3, 2, 2), 2u);
  EXPECT_EQ(meta_ops::subtree_version(history, 1, 2, 2), 1u);
  EXPECT_EQ(meta_ops::subtree_version(history, 3, 4, 2), kInvalidVersion);
  EXPECT_EQ(meta_ops::subtree_version(history, 3, 6, 2), 3u);
  EXPECT_EQ(meta_ops::subtree_version(history, 2, 6, 2), kInvalidVersion);
  EXPECT_EQ(meta_ops::subtree_version(history, 3, 0, 8), 3u);
}

TEST(BuildNodes, SingleChunkBlobProducesRootLeaf) {
  const BlobId blob{1};
  WriteExtent w{1, 0, 1, 1};
  auto leaves = make_leaves(blob, w, 100);
  auto nodes = build(blob, w, leaves, {}, 1);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0].first, (NodeKey{blob, 1, 0, 1}));
  ASSERT_TRUE(nodes[0].second.leaf());
  EXPECT_EQ(nodes[0].second.chunk->key.index, 0u);
}

TEST(BuildNodes, FullTreeNodeCount) {
  // Writing all 8 chunks of an 8-chunk tree: 8 leaves + 7 inner = 15 nodes.
  const BlobId blob{1};
  WriteExtent w{1, 0, 8, 8};
  auto leaves = make_leaves(blob, w, 100);
  auto nodes = build(blob, w, leaves, {}, 8);
  EXPECT_EQ(nodes.size(), 15u);
}

TEST(BuildNodes, PartialWriteBorrowsSiblings) {
  const BlobId blob{1};
  // v1 wrote all 4 chunks; v2 rewrites chunk 1 only.
  std::vector<WriteExtent> history{{1, 0, 4, 4}};
  WriteExtent w{2, 1, 1, 4};
  auto leaves = make_leaves(blob, w, 100);
  auto nodes = build(blob, w, leaves, history, 4);
  // Path: leaf(1) + inner(0,2) + root(0,4) = 3 nodes.
  ASSERT_EQ(nodes.size(), 3u);
  std::map<NodeKey, TreeNode> by_key(nodes.begin(), nodes.end());
  const auto& root = by_key.at(NodeKey{blob, 2, 0, 4});
  EXPECT_EQ(root.left_version, 2u);
  EXPECT_EQ(root.right_version, 1u);  // borrowed
  const auto& inner = by_key.at(NodeKey{blob, 2, 0, 2});
  EXPECT_EQ(inner.left_version, 1u);  // borrowed leaf 0
  EXPECT_EQ(inner.right_version, 2u);
}

TEST(BuildNodes, AppendBeyondOldRootCreatesNewLevels) {
  const BlobId blob{1};
  std::vector<WriteExtent> history{{1, 0, 2, 2}};  // old root covered 2 chunks
  WriteExtent w{2, 2, 2, 4};                    // append chunks [2,4)
  auto leaves = make_leaves(blob, w, 100);
  auto nodes = build(blob, w, leaves, history, 4);
  std::map<NodeKey, TreeNode> by_key(nodes.begin(), nodes.end());
  const auto& root = by_key.at(NodeKey{blob, 2, 0, 4});
  EXPECT_EQ(root.left_version, 1u);   // old root subtree borrowed
  EXPECT_EQ(root.right_version, 2u);  // new half
}

TEST(BuildNodes, BridgesOverShorterBorrowedTrees) {
  // v1 wrote only chunk 0 (its whole tree is one leaf, root_chunks=1);
  // v2 writes chunks [2,4), so v2's root covers 4 chunks. The untouched
  // half [0,2) is taller than v1's entire tree: v2 must emit a bridge
  // node (0,2) pointing down at v1's root and a hole at chunk 1.
  const BlobId blob{1};
  std::vector<WriteExtent> history{{1, 0, 1, 1}};
  WriteExtent w{2, 2, 2, 4};
  auto leaves = make_leaves(blob, w, 100);
  auto nodes = build(blob, w, leaves, history, 4);
  std::map<NodeKey, TreeNode> by_key(nodes.begin(), nodes.end());
  const auto& root = by_key.at(NodeKey{blob, 2, 0, 4});
  EXPECT_EQ(root.left_version, 2u);  // the bridge, owned by v2
  EXPECT_EQ(root.right_version, 2u);
  const auto& bridge = by_key.at(NodeKey{blob, 2, 0, 2});
  EXPECT_FALSE(bridge.leaf());
  EXPECT_EQ(bridge.left_version, 1u);  // v1's root leaf
  EXPECT_EQ(bridge.right_version, kInvalidVersion);
}

TEST(BuildNodes, HoleChildrenAreInvalid) {
  const BlobId blob{1};
  WriteExtent w{1, 3, 1, 4};  // only chunk 3 of a 4-chunk tree
  auto leaves = make_leaves(blob, w, 100);
  auto nodes = build(blob, w, leaves, {}, 4);
  std::map<NodeKey, TreeNode> by_key(nodes.begin(), nodes.end());
  const auto& root = by_key.at(NodeKey{blob, 1, 0, 4});
  EXPECT_EQ(root.left_version, kInvalidVersion);
  const auto& right = by_key.at(NodeKey{blob, 1, 2, 2});
  EXPECT_EQ(right.left_version, kInvalidVersion);
  EXPECT_EQ(right.right_version, 1u);
}

// ---------------------------------------------------------------- property

struct Model {
  // All committed writes in version order.
  std::vector<WriteExtent> history;

  /// Expected owner version of chunk `idx` at snapshot `v`.
  Version owner(Version v, std::uint64_t idx) const {
    Version best = kInvalidVersion;
    for (const auto& w : history) {
      if (w.version <= v && w.overlaps(idx, 1)) {
        if (best == kInvalidVersion || w.version > best) best = w.version;
      }
    }
    return best;
  }
};

class MetaPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetaPropertyTest, RandomWriteSequencesMatchReference) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  sim::Simulation sim;
  InMemoryMetadataStore store;
  const BlobId blob{7};
  const std::uint64_t chunk_size = 64;

  Model model;
  meta_ops::MaxVersionTree tree;  // answers as the version manager does
  std::vector<std::uint64_t> root_chunks_at;  // per version (1-based)
  std::uint64_t reserved_chunks = 0;

  const int n_writes = 24;
  for (int i = 0; i < n_writes; ++i) {
    const Version v = static_cast<Version>(i + 1);
    const std::uint64_t first =
        static_cast<std::uint64_t>(rng.uniform_int(0, 60));
    const std::uint64_t count =
        static_cast<std::uint64_t>(rng.uniform_int(1, 12));
    WriteExtent w{v, first, count, 0};
    reserved_chunks = std::max(reserved_chunks, first + count);
    const std::uint64_t root = next_pow2(reserved_chunks);
    w.root_chunks = root;
    root_chunks_at.push_back(root);

    auto leaves = make_leaves(blob, w, chunk_size);
    const auto borders = tree.add(w);
    expect_same_borders(borders,
                        meta_ops::border_versions(model.history, w, root), w);
    auto nodes = meta_ops::build_nodes(blob, w, leaves, borders, root);
    for (auto& [key, node] : nodes) {
      ASSERT_TRUE(test::run_task(sim, store.put(key, node)).ok());
    }
    model.history.push_back(w);
  }

  // Check random range reads at random versions against the model.
  for (int q = 0; q < 200; ++q) {
    const Version v =
        static_cast<Version>(rng.uniform_int(1, n_writes));
    const std::uint64_t root = root_chunks_at[v - 1];
    const std::uint64_t lo =
        static_cast<std::uint64_t>(rng.uniform_int(0, 70));
    const std::uint64_t count =
        static_cast<std::uint64_t>(rng.uniform_int(1, 16));
    const std::uint64_t clipped_lo = std::min(lo, root);
    const std::uint64_t clipped_count = std::min(count, root - clipped_lo);
    if (clipped_count == 0) continue;

    auto leaves = test::run_task(
        sim, meta_ops::collect(sim, store, blob, v, root, clipped_lo,
                               clipped_count));
    ASSERT_TRUE(leaves.ok()) << leaves.error().to_string();
    ASSERT_EQ(leaves.value().size(), clipped_count);
    for (std::uint64_t k = 0; k < clipped_count; ++k) {
      const LeafRef& leaf = leaves.value()[k];
      const std::uint64_t idx = clipped_lo + k;
      EXPECT_EQ(leaf.chunk_index, idx);
      const Version expect = model.owner(v, idx);
      if (expect == kInvalidVersion) {
        EXPECT_TRUE(leaf.hole()) << "chunk " << idx << " @v" << v;
      } else {
        ASSERT_FALSE(leaf.hole()) << "chunk " << idx << " @v" << v;
        EXPECT_EQ(leaf.chunk->key.version, expect);
        EXPECT_EQ(leaf.chunk->key.index, idx);
        EXPECT_EQ(leaf.chunk->checksum, hash_combine(expect, idx));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetaPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// ------------------------------------------- border_versions differential

// Reference build for border_versions' flank pass: every untouched subtree
// asks subtree_version, the per-query history scan, and then looks up the
// extent that scan chose (the first overlapping one in history order with
// that version). It records each answer as a border version, in walk
// order, beside the nodes it builds.
struct ScanBuild {
  BlobId blob;
  const WriteExtent& w;
  std::span<const ChunkDescriptor> leaves;
  std::span<const WriteExtent> history;
  std::vector<BorderVersion> borders;
  std::vector<std::pair<NodeKey, TreeNode>> out;
  std::uint64_t bridges{0};

  Version ref(std::uint64_t lo, std::uint64_t count) {
    const bool in_write = w.overlaps(lo, count);
    if (!in_write) {
      const Version pv =
          meta_ops::subtree_version(history, w.version - 1, lo, count);
      if (pv == kInvalidVersion) {
        borders.push_back(BorderVersion{lo, count, kInvalidVersion, 0});
        return kInvalidVersion;
      }
      const auto prev = std::find_if(
          history.begin(), history.end(), [&](const WriteExtent& e) {
            return e.version == pv && e.overlaps(lo, count);
          });
      borders.push_back(BorderVersion{lo, count, pv, prev->root_chunks});
      if (!(lo == 0 && count > prev->root_chunks)) return pv;
      ++bridges;
    }
    NodeKey key{blob, w.version, lo, count};
    TreeNode node;
    if (count == 1) {
      node.chunk =
          std::make_shared<const ChunkDescriptor>(leaves[lo - w.first_chunk]);
    } else {
      const std::uint64_t half = count / 2;
      node.left_version = ref(lo, half);
      node.right_version = ref(lo + half, half);
    }
    out.emplace_back(key, std::move(node));
    return w.version;
  }
};

/// Checks border_versions against ScanBuild's answers, and build_nodes on
/// them against ScanBuild node for node, in order; returns the number of
/// bridge nodes the write emitted.
std::uint64_t expect_scan_build(const WriteExtent& w,
                                std::span<const WriteExtent> history,
                                std::uint64_t root_chunks) {
  const BlobId blob{3};
  const auto leaves = make_leaves(blob, w, 64);
  ScanBuild scan{blob, w, leaves, history, {}, {}};
  EXPECT_EQ(scan.ref(0, root_chunks), w.version);
  const auto borders = meta_ops::border_versions(history, w, root_chunks);
  expect_same_borders(borders, scan.borders, w);
  const auto got =
      meta_ops::build_nodes(blob, w, leaves, borders, root_chunks);
  EXPECT_EQ(got.size(), scan.out.size())
      << "write v" << w.version << " [" << w.first_chunk << ", +"
      << w.chunk_count << ") root " << root_chunks;
  for (std::size_t i = 0; i < std::min(got.size(), scan.out.size()); ++i) {
    const auto& [gk, gn] = got[i];
    const auto& [sk, sn] = scan.out[i];
    EXPECT_EQ(gk, sk) << "node " << i << " of write v" << w.version;
    EXPECT_EQ(gn.leaf(), sn.leaf()) << "node " << i;
    EXPECT_EQ(gn.left_version, sn.left_version) << "node " << i;
    EXPECT_EQ(gn.right_version, sn.right_version) << "node " << i;
    if (gn.leaf() && sn.leaf()) {
      EXPECT_EQ(gn.chunk->key, sn.chunk->key) << "node " << i;
    }
  }
  return scan.bridges;
}

// The gateway's store-blob shape: back-to-back appends of 1-6 chunks, so
// every write's left flanks cover a long history.
TEST(FlankPass, AppendHistoryMatchesScan) {
  Rng rng(11);
  std::vector<WriteExtent> history;
  std::uint64_t end = 0;
  for (Version v = 1; v <= 1100; ++v) {
    const auto count = static_cast<std::uint64_t>(rng.uniform_int(1, 6));
    const WriteExtent w{v, end, count, next_pow2(end + count)};
    expect_scan_build(w, history, w.root_chunks);
    if (::testing::Test::HasFailure()) return;
    history.push_back(w);
    end += count;
  }
}

// Overwrites, writes past the end that leave holes and grow the root by
// up to five levels at once (so bridges occur), aborted entries with
// kInvalidVersion, versions out of history order, and rebuilds of a
// version below entries already in the history.
class FlankPassMixed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlankPassMixed, RandomHistoryMatchesScan) {
  Rng rng(GetParam());
  std::vector<WriteExtent> history;
  std::uint64_t end = 0;
  std::uint64_t bridges = 0;
  Version next = 1;
  for (int i = 0; i < 300; ++i) {
    std::uint64_t first = 0;
    const int shape = static_cast<int>(rng.next_below(8));
    if (shape < 3 && end > 0) {  // overwrite inside the blob
      first = rng.next_below(end);
    } else if (shape < 6) {  // append
      first = end;
    } else {  // leave a hole; a small blob's root grows up to 5 levels
      first = end + rng.next_below(
                        end < 4096 ? std::max<std::uint64_t>(end, 1) * 32 : 64);
    }
    const auto count = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
    end = std::max(end, first + count);
    const std::uint64_t root = next_pow2(end);
    const WriteExtent w{next++, first, count, root};
    bridges += expect_scan_build(w, history, root);
    if (rng.chance(0.2) && w.version > 2) {
      // Rebuild of an earlier version against a history that also holds
      // later ones: the vmax filter must drop them.
      const WriteExtent early{1 + rng.next_below(w.version - 1), first, count,
                              root};
      bridges += expect_scan_build(early, history, root);
    }
    if (::testing::Test::HasFailure()) return;
    history.push_back(w);
    if (rng.chance(0.1)) {
      history.push_back(WriteExtent{kInvalidVersion, rng.next_below(end),
                                    1 + rng.next_below(8), root});
    }
    if (rng.chance(0.05)) {
      // A second extent under an existing version, with its own tree
      // height: ties must resolve to the first in history order.
      const Version dup = history[rng.next_below(history.size())].version;
      const std::uint64_t lo = rng.next_below(end);
      const std::uint64_t n = 1 + rng.next_below(8);
      history.push_back(
          WriteExtent{dup, lo, n, next_pow2(lo + n) << rng.next_below(3)});
    }
    if (history.size() >= 2 && rng.chance(0.2)) {
      std::swap(history[history.size() - 1], history[history.size() - 2]);
    }
  }
  EXPECT_GT(bridges, 0u) << "no write exercised a bridge";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlankPassMixed,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Two extents share version 1; the scan's strictly-greater rule keeps the
// first in history order, whose one-chunk tree makes the write bridge
// over the flank [0, 2). The second would have been borrowed directly.
TEST(FlankPass, TiesGoToTheFirstExtentInHistoryOrder) {
  const std::vector<WriteExtent> history{{1, 0, 1, 1}, {1, 0, 1, 4}};
  EXPECT_EQ(expect_scan_build(WriteExtent{2, 2, 2, 4}, history, 4), 1u);
}

// For a write numbered 0, vmax wraps to kInvalidVersion, so only the
// explicit filter keeps an aborted entry from answering (and bridging).
TEST(FlankPass, AbortedEntriesNeverAnswer) {
  const std::vector<WriteExtent> history{{kInvalidVersion, 0, 2, 1}};
  EXPECT_EQ(expect_scan_build(WriteExtent{0, 2, 2, 4}, history, 4), 0u);
}

TEST(FlankPass, SingleChunkRootMatchesScan) {
  std::vector<WriteExtent> history;
  for (Version v = 1; v <= 5; ++v) {
    const WriteExtent w{v, 0, 1, 1};
    expect_scan_build(w, history, 1);
    history.push_back(w);
  }
  // The tree then grows from one chunk to eight: [0,2) and [0,4) hold v5's
  // one-chunk tree, so the write bridges down to it.
  const WriteExtent grow{6, 7, 1, 8};
  EXPECT_EQ(expect_scan_build(grow, history, 8), 2u);
}

// ----------------------------------------------------------- MaxVersionTree

// Writes in version order as the version manager starts them: overwrites,
// appends and holes that grow the root by up to five levels (so bridges
// occur), with aborts of random earlier writes. An abort lowers the append
// frontier as recompute_frontier does, so later roots may be shorter than
// the tree. Every add must answer what border_versions scans from the
// writes that remain.
class MaxVersionTreeDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxVersionTreeDiff, AddMatchesBorderVersionsAcrossAborts) {
  Rng rng(GetParam());
  meta_ops::MaxVersionTree tree;
  std::vector<WriteExtent> history;
  std::uint64_t end = 0;
  std::uint64_t bridges = 0;
  std::uint64_t aborts = 0;
  for (Version v = 1; v <= 400; ++v) {
    std::uint64_t first = 0;
    const int shape = static_cast<int>(rng.next_below(8));
    if (shape < 3 && end > 0) {
      first = rng.next_below(end);
    } else if (shape < 6) {
      first = end;
    } else {
      first = end + rng.next_below(
                        end < 4096 ? std::max<std::uint64_t>(end, 1) * 32 : 64);
    }
    const auto count = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
    end = std::max(end, first + count);
    const WriteExtent w{v, first, count, next_pow2(end)};
    const auto want = meta_ops::border_versions(history, w, w.root_chunks);
    expect_same_borders(tree.add(w), want, w);
    for (const BorderVersion& b : want) bridges += b.bridges() ? 1 : 0;
    history.push_back(w);
    if (rng.chance(0.15)) {
      const auto gone_at = static_cast<std::ptrdiff_t>(
          rng.next_below(history.size()));
      const WriteExtent gone = history[static_cast<std::size_t>(gone_at)];
      history.erase(history.begin() + gone_at);
      tree.remove(gone, history);
      ++aborts;
      end = 0;
      for (const WriteExtent& e : history) {
        end = std::max(end, e.first_chunk + e.chunk_count);
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(bridges, 0u) << "no write exercised a bridge";
  EXPECT_GT(aborts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxVersionTreeDiff,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// A write 2^40 chunks out grows the root by 41 levels and bridges all the
// way down to the first write's one-chunk tree, but the tree only keeps
// the ranges the two writes overlap: no dense array over the span.
TEST(MaxVersionTree, SparseWriteAllocatesOnlyItsPath) {
  meta_ops::MaxVersionTree tree;
  std::vector<WriteExtent> history{{1, 0, 1, 1}};
  EXPECT_TRUE(tree.add(history[0]).empty());
  const std::uint64_t far = std::uint64_t{1} << 40;
  const WriteExtent w{2, far, 4, far * 2};
  const auto got = tree.add(w);
  expect_same_borders(got, meta_ops::border_versions(history, w, far * 2), w);
  EXPECT_EQ(got.front(), (BorderVersion{0, far, 1, 1}));
  EXPECT_TRUE(got.front().bridges());
  // 42 nodes over [0, 2^k), k = 0..41; below them, the path from
  // [2^40, 2^41) down to the four written chunks: 39 nodes of 2^40 down to
  // 4 chunks, then 2 + 4.
  EXPECT_EQ(tree.node_count(), 42u + 39u + 6u);
}

TEST(InMemoryStore, GetMissingFails) {
  sim::Simulation sim;
  InMemoryMetadataStore store;
  auto r = test::run_task(sim, store.get(NodeKey{BlobId{1}, 1, 0, 1}));
  EXPECT_EQ(r.code(), Errc::not_found);
}

TEST(InMemoryStore, PutIsIdempotentOverwrite) {
  sim::Simulation sim;
  InMemoryMetadataStore store;
  NodeKey key{BlobId{1}, 1, 0, 2};
  TreeNode a;
  a.left_version = 1;
  TreeNode b;
  b.left_version = 2;
  (void)test::run_task(sim, store.put(key, a));
  (void)test::run_task(sim, store.put(key, b));
  auto r = test::run_task(sim, store.get(key));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().left_version, 2u);
  EXPECT_EQ(store.size(), 1u);
}

}  // namespace
}  // namespace bs::blob
