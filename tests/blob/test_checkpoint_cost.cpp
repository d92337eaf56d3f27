// Deterministic cost guard for the metadata provider's checkpoint: one
// checkpoint of a 4096-leaf image with an 8-record tail may allocate only
// in proportion to the tail. Every copy of a leaf shares its descriptor,
// so a checkpoint that re-encoded the whole store or copied the image
// into a fresh vector would make only a handful of allocations: the guard
// bounds the bytes as well as the calls. A tail of overwrites neither grows nor
// copies the image, so its checkpoint must ask for less than one image
// entry per leaf beyond a plain put; a fresh image vector asks for at
// least that much.
//
// alloc_probe.hpp replaces the global operator new, so this must stay the
// only translation unit of its binary that includes it.
#include <gtest/gtest.h>

#include <memory>

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

  /// Heap requests made while one put ran.
  struct Cost {
    std::uint64_t allocs{0};
    std::uint64_t bytes{0};
  };

  /// Puts leaf `i` and lets every background flow finish; returns the heap
  /// requests made while the put ran.
  Cost put(std::uint64_t i, std::uint64_t checksum) {
    ChunkDescriptor chunk;
    chunk.key = ChunkKey{BlobId{1}, 1, i};
    chunk.size = 64 * units::KiB;
    chunk.checksum = checksum;
    for (std::uint64_t r = 0; r < kReplicas; ++r) {
      chunk.replicas.push_back(NodeId{10 * r + i % 7});
    }
    MetaPutReq req;
    req.key = NodeKey{BlobId{1}, 1, i, 1};
    req.node.chunk = std::make_shared<const ChunkDescriptor>(std::move(chunk));
    const Cost before{bench::alloc_probe::allocations(),
                      bench::alloc_probe::bytes_allocated()};
    const auto acked = test::run_task(
        sim_, cluster_.call<MetaPutReq, MetaPutResp>(*client_, node_->id(),
                                                     std::move(req)));
    const Cost cost{bench::alloc_probe::allocations() - before.allocs,
                    bench::alloc_probe::bytes_allocated() - before.bytes};
    EXPECT_TRUE(acked.ok());
    sim_.run_until(sim_.now() + simtime::seconds(1));
    return cost;
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
  const Cost plain = put(kLeaves + 2, kLeaves + 2);
  const double plain_disk = disk_bytes() - disk_before;
  const Cost with_checkpoint = put(kLeaves + 3, kLeaves + 3);
  const double checkpoint_disk = disk_bytes() - disk_before - 2 * plain_disk;

  // The eighth put wrote the checkpoint: the whole folded image, one
  // record per leaf (key, node, replica list).
  const double record = 32.0 + 17.0 + 48.0 + 8.0 * kReplicas;
  EXPECT_NEAR(checkpoint_disk, record * static_cast<double>(kLeaves + 4), 1.0);
  EXPECT_LE(with_checkpoint.allocs, plain.allocs + 64)
      << "a put without a checkpoint allocated " << plain.allocs
      << " times, the checkpointing put " << with_checkpoint.allocs;

  // The next tail only overwrites leaves the image holds: the fold keeps
  // the image's length and buffer, so the checkpoint asks for bytes in
  // proportion to the tail, not the image.
  for (std::uint64_t i = 0; i + 2 < kTail; ++i) put(i, i + 2000);
  const double overwrite_before = disk_bytes();
  const Cost overwrite = put(kTail - 2, 2000 + kTail - 2);
  const Cost overwrite_checkpoint = put(kTail - 1, 2000 + kTail - 1);
  ASSERT_EQ(mp_->node_count(), kLeaves + 4);
  EXPECT_NEAR(disk_bytes() - overwrite_before - 2 * plain_disk,
              record * static_cast<double>(kLeaves + 4), 1.0);
  // The image holds kLeaves + 4 entries, so any copy of it asks for more.
  const std::uint64_t image_bytes =
      kLeaves * sizeof(Journal<MetadataProvider::JournalRecord>::Entry);
  EXPECT_LT(overwrite_checkpoint.bytes, overwrite.bytes + image_bytes)
      << "a put without a checkpoint asked for " << overwrite.bytes
      << " bytes, the checkpointing put " << overwrite_checkpoint.bytes;
}

}  // namespace
}  // namespace bs::blob
