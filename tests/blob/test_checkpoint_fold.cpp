// Property suite for the metadata provider's checkpoint (ctest label
// recovery). A checkpoint folds the fully durable journal tail into the
// previous image instead of re-encoding the store, so a recovery from that
// image must rebuild exactly the acked state. Seeded op sequences over a
// small key space hit every case the fold handles — a new key, an
// overwrite, a remove, and a remove then a re-put or a put then a remove of
// one key within one tail — under crashes (torn or not) at random points
// of an op. After each recovery the store is compared, node by node, with
// a reference map of the acked ops.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "blob/metadata_provider.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace bs::blob {
namespace {

bool same(const TreeNode& a, const TreeNode& b) {
  if (a.left_version != b.left_version ||
      a.right_version != b.right_version || a.leaf() != b.leaf()) {
    return false;
  }
  return !a.leaf() ||
         (a.chunk->key == b.chunk->key && a.chunk->size == b.chunk->size &&
          a.chunk->checksum == b.chunk->checksum &&
          a.chunk->replicas == b.chunk->replicas);
}

/// One journaled metadata provider, a client node and the reference map.
class FoldHarness {
 public:
  static constexpr std::uint64_t kKeys = 24;
  static constexpr std::uint64_t kMaxTail = 16;

  explicit FoldHarness(std::uint64_t seed)
      : rng_(seed), cluster_(sim_, net::Topology::single_site()) {
    node_ = cluster_.add_node(0);
    client_ = cluster_.add_node(0);
    MetadataProvider::Options o;
    o.journal.enabled = true;
    o.journal.checkpoint_records = 4 + rng_.next_below(kMaxTail - 3);
    mp_ = std::make_unique<MetadataProvider>(*node_, o);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      keys_.push_back(NodeKey{BlobId{1 + i % 3}, 1 + i / 3, i % 4, 1});
    }
    call_.timeout = simtime::millis(100);
  }

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] const MetadataProvider& provider() const { return *mp_; }
  [[nodiscard]] std::uint64_t verified() const { return verified_; }

  /// `ops` seeded ops, then one last crash and recovery.
  sim::Task<void> run(int ops) {
    for (int i = 0; i < ops; ++i) {
      const NodeKey key = keys_[rng_.next_below(keys_.size())];
      switch (rng_.next_below(4)) {
        case 0:  // a new key or an overwrite
          co_await step(key, make_node());
          break;
        case 1:  // a remove (of an absent key: nothing is journaled)
          co_await step(key, std::nullopt);
          break;
        case 2:  // a remove, then a re-put of the same key
          co_await step(key, std::nullopt);
          co_await step(key, make_node());
          break;
        default:  // a put, then a remove of the same key
          co_await step(key, make_node());
          co_await step(key, std::nullopt);
          break;
      }
    }
    node_->crash({});
    co_await recover();
    co_await verify();
  }

 private:
  static constexpr SimDuration kCrashWindow = simtime::micros(1200);

  TreeNode make_node() {
    TreeNode n;
    if (rng_.chance(0.3)) {
      n.left_version = rng_.next_below(50);
      n.right_version = rng_.next_below(50);
      return n;
    }
    ChunkDescriptor chunk;
    chunk.key = ChunkKey{BlobId{1}, 1 + rng_.next_below(50),
                         rng_.next_below(100)};
    chunk.size = 1 + rng_.next_below(1u << 20);
    chunk.checksum = rng_.next_u64();
    // 1-3 replicas: an overwrite may change the node's wire size.
    chunk.replicas.resize(1 + rng_.next_below(3));
    for (NodeId& r : chunk.replicas) r = NodeId{rng_.next_below(64)};
    n.chunk = std::make_shared<const ChunkDescriptor>(std::move(chunk));
    return n;
  }

  /// One put (`value`) or remove (nullopt). Sometimes the provider crashes
  /// at a random point of the op — before it arrives, mid-fsync (torn or
  /// not) or after the seal — and is restarted and checked.
  sim::Task<void> step(NodeKey key, std::optional<TreeNode> value) {
    const bool crash = rng_.chance(0.08);
    const bool torn = rng_.chance(0.5);
    const auto at =
        static_cast<SimDuration>(rng_.next_below(kCrashWindow + 1));
    if (crash) {
      sim_.schedule_in(at, [this, torn] {
        node_->crash({.lose_storage = false, .torn_tail = torn});
      });
    }
    bool acked = false;
    if (value) {
      MetaPutReq req;
      req.key = key;
      req.node = *value;
      acked = (co_await cluster_.call<MetaPutReq, MetaPutResp>(
                   *client_, node_->id(), std::move(req), call_))
                  .ok();
    } else {
      MetaRemoveReq req;
      req.key = key;
      acked = (co_await cluster_.call<MetaRemoveReq, MetaRemoveResp>(
                   *client_, node_->id(), req, call_))
                  .ok();
    }
    if (acked) apply(key, value);
    if (!crash) co_return;
    co_await sim_.delay(kCrashWindow);  // the crash has fired by now
    co_await recover();
    if (!acked) {
      // Sealed before the crash but never acked, or lost: either is legal.
      const std::optional<TreeNode> got = co_await get(key);
      const bool applied =
          value ? got.has_value() && same(*got, *value) : !got.has_value();
      if (applied) apply(key, value);
    }
    co_await verify();
  }

  sim::Task<void> recover() {
    node_->restart();
    while (mp_->recovering()) co_await sim_.delay(simtime::millis(1));
  }

  void apply(const NodeKey& key, const std::optional<TreeNode>& value) {
    if (value) {
      ref_[key] = *value;
    } else {
      ref_.erase(key);
    }
  }

  sim::Task<std::optional<TreeNode>> get(NodeKey key) {
    MetaGetReq req;
    req.key = key;
    auto r = co_await cluster_.call<MetaGetReq, MetaGetResp>(
        *client_, node_->id(), req, call_);
    if (!r.ok()) {
      EXPECT_EQ(r.error().code, Errc::not_found);
      co_return std::nullopt;
    }
    co_return std::move(r.value().node);
  }

  sim::Task<void> verify() {
    std::uint64_t bytes = 0;
    for (const auto& [key, node] : ref_) bytes += node.wire_size();
    EXPECT_EQ(mp_->node_count(), ref_.size());
    EXPECT_EQ(mp_->bytes_stored(), bytes);
    for (const NodeKey& key : keys_) {
      const std::optional<TreeNode> got = co_await get(key);
      const auto it = ref_.find(key);
      if (it == ref_.end()) {
        EXPECT_FALSE(got.has_value())
            << "removed node resurrected: blob " << key.blob.value
            << " version " << key.version;
      } else {
        EXPECT_TRUE(got.has_value() && same(*got, it->second))
            << "acked node lost or stale: blob " << key.blob.value
            << " version " << key.version;
      }
    }
    ++verified_;
  }

  Rng rng_;
  sim::Simulation sim_;
  rpc::Cluster cluster_;
  rpc::Node* node_{nullptr};
  rpc::Node* client_{nullptr};
  std::unique_ptr<MetadataProvider> mp_;
  std::vector<NodeKey> keys_;
  std::map<NodeKey, TreeNode> ref_;
  rpc::CallOptions call_;
  std::uint64_t verified_{0};
};

TEST(CheckpointFold, RecoveredStoreMatchesAckedOps) {
  std::uint64_t torn = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    FoldHarness h(seed);
    test::run_task_void(h.sim(), h.run(300));
    const RecoveryStats& stats = h.provider().recovery_stats();
    EXPECT_GE(h.verified(), 10u);
    EXPECT_EQ(stats.recoveries, h.verified());
    // Checkpoints kept every replay short: at most the image (one record
    // per live key) plus a tail below the checkpoint threshold. Without
    // them each replay would read the whole op history.
    EXPECT_LE(stats.replay_records,
              stats.recoveries *
                  (FoldHarness::kKeys + FoldHarness::kMaxTail));
    torn += stats.torn_tails_truncated;
  }
  EXPECT_GT(torn, 0u);  // some crashes landed mid-fsync
}

}  // namespace
}  // namespace bs::blob
