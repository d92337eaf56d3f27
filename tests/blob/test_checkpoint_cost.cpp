// Deterministic cost guard for the metadata provider's checkpoint: one
// checkpoint of a 4096-leaf image with an 8-record tail may allocate only
// in proportion to the tail. A checkpoint that re-encoded the whole store
// would copy every leaf's replica list, at least 4096 allocations.
//
// alloc_probe.hpp replaces the global operator new, so this must stay the
// only translation unit of its binary that includes it.
#include <gtest/gtest.h>

#include "alloc_probe.hpp"
#include "blob/metadata_provider.hpp"
#include "test_util.hpp"

namespace bs::blob {
namespace {

constexpr std::uint64_t kLeaves = 4096;
constexpr std::uint64_t kTail = 8;
constexpr std::uint64_t kReplicas = 3;

class CheckpointCost : public ::testing::Test {
 protected:
  CheckpointCost() : cluster_(sim_, net::Topology::single_site()) {
    node_ = cluster_.add_node(0);
    client_ = cluster_.add_node(0);
    MetadataProvider::Options opts;
    opts.journal.enabled = true;
    opts.journal.checkpoint_records = kTail;
    mp_ = std::make_unique<MetadataProvider>(*node_, opts);
  }

  /// Puts leaf `i` and lets every background flow finish; returns the heap
  /// allocations made while the put ran.
  std::uint64_t put(std::uint64_t i, std::uint64_t checksum) {
    MetaPutReq req;
    req.key = NodeKey{BlobId{1}, 1, i, 1};
    req.node.leaf = true;
    req.node.chunk.key = ChunkKey{BlobId{1}, 1, i};
    req.node.chunk.size = 64 * units::KiB;
    req.node.chunk.checksum = checksum;
    for (std::uint64_t r = 0; r < kReplicas; ++r) {
      req.node.chunk.replicas.push_back(NodeId{10 * r + i % 7});
    }
    const std::uint64_t before = bench::alloc_probe::allocations();
    const auto acked = test::run_task(
        sim_, cluster_.call<MetaPutReq, MetaPutResp>(*client_, node_->id(),
                                                     std::move(req)));
    const std::uint64_t allocs = bench::alloc_probe::allocations() - before;
    EXPECT_TRUE(acked.ok());
    sim_.run_until(sim_.now() + simtime::seconds(1));
    return allocs;
  }

  [[nodiscard]] double disk_bytes() const {
    return node_->disk()->bytes_served();
  }

  sim::Simulation sim_;
  rpc::Cluster cluster_;
  rpc::Node* node_{nullptr};
  rpc::Node* client_{nullptr};
  std::unique_ptr<MetadataProvider> mp_;
};

TEST_F(CheckpointCost, FoldAllocatesInProportionToTheTail) {
  for (std::uint64_t i = 0; i < kLeaves; ++i) put(i, i);
  ASSERT_EQ(mp_->node_count(), kLeaves);
  // 512 checkpoints so far, so the tail is empty. The next eight puts fill
  // it: four overwrites, then four new leaves; the eighth barrier
  // checkpoints.
  for (std::uint64_t i = 0; i < 4; ++i) put(i, i + 1000);
  put(kLeaves, kLeaves);
  put(kLeaves + 1, kLeaves + 1);
  const double disk_before = disk_bytes();
  const std::uint64_t plain = put(kLeaves + 2, kLeaves + 2);
  const double plain_disk = disk_bytes() - disk_before;
  const std::uint64_t with_checkpoint = put(kLeaves + 3, kLeaves + 3);
  const double checkpoint_disk = disk_bytes() - disk_before - 2 * plain_disk;

  // The eighth put wrote the checkpoint: the whole folded image, one
  // record per leaf (key, node, replica list).
  const double record = 32.0 + 17.0 + 48.0 + 8.0 * kReplicas;
  EXPECT_NEAR(checkpoint_disk, record * static_cast<double>(kLeaves + 4), 1.0);
  EXPECT_LE(with_checkpoint, plain + 64)
      << "a put without a checkpoint allocated " << plain
      << " times, the checkpointing put " << with_checkpoint;
}

}  // namespace
}  // namespace bs::blob
