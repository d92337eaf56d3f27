// Footprint guards for the metadata provider's stored nodes. A journaled
// provider holds each node in its journal tail until the next checkpoint
// and in the checkpoint image after it, which is its store: a get finds a
// node put since the last checkpoint in the provider's recent map and any
// other in the image. A node is 32 bytes: two child versions and a leaf
// descriptor that the writer builds once and every copy shares, so an
// inner node costs those copies alone and a leaf adds one descriptor with
// its replica list.
//
// Both guards run 4,096 puts, seven of eight of them inner nodes (the
// shape of a write's tree) and the rest 3-replica leaves, through eight
// checkpoints; the last put's barrier writes the last one. The probe
// window opens before the provider is built and closes after the last put.
//
// Bytes asked: the map's nodes and buckets, the tail's and the images'
// growth and each put's RPC and fsync all count. The puts ask operator new
// for 495.5 bytes per stored node (g++ 12.2, libstdc++); 512.2 when the
// map kept every node, whose buckets grew with it, and 686.2 with 88-byte
// nodes whose every copy carried a descriptor of its own, and a replica
// list per leaf copy.
//
// Live bytes after the last checkpoint (malloc_usable_size of every block
// still held): 110.3 per stored node, mostly the image's capacity and the
// leaf descriptors, since the checkpoint emptied the map. A provider whose
// map kept every node beside the image held 191.0.
//
// alloc_probe.hpp replaces the global operator new, so this must stay the
// only translation unit of its binary that includes it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "alloc_probe.hpp"
#include "blob/metadata_provider.hpp"
#include "test_util.hpp"

namespace bs::blob {
namespace {

constexpr std::uint64_t kNodes = 4096;
constexpr std::uint64_t kReplicas = 3;

/// What the probe saw between building a journaled provider and the end of
/// its kNodes puts.
struct Footprint {
  std::uint64_t asked{0};  ///< bytes asked of operator new
  std::uint64_t live{0};   ///< growth of the bytes held
};

Footprint fill() {
  sim::Simulation sim;
  rpc::Cluster cluster(sim, net::Topology::single_site());
  rpc::Node* node = cluster.add_node(0);
  rpc::Node* client = cluster.add_node(0);
  MetadataProvider::Options opts;
  opts.journal.enabled = true;
  opts.journal.checkpoint_records = kNodes / 8;

  const std::uint64_t asked = bench::alloc_probe::bytes_allocated();
  const std::uint64_t live = bench::alloc_probe::live_bytes();
  MetadataProvider mp(*node, opts);
  for (std::uint64_t i = 0; i < kNodes; ++i) {
    MetaPutReq req;
    if (i % 8 == 7) {
      ChunkDescriptor chunk;
      chunk.key = ChunkKey{BlobId{1}, i, 0};
      chunk.size = 64 * units::KiB;
      chunk.checksum = i;
      for (std::uint64_t r = 0; r < kReplicas; ++r) {
        chunk.replicas.push_back(NodeId{1 + r});
      }
      req.key = NodeKey{BlobId{1}, i, 0, 1};
      req.node.chunk =
          std::make_shared<const ChunkDescriptor>(std::move(chunk));
    } else {
      req.key = NodeKey{BlobId{1}, i, 0, 2};
      req.node.left_version = i;
      req.node.right_version = i - 1;
    }
    const auto acked = test::run_task(
        sim, cluster.call<MetaPutReq, MetaPutResp>(*client, node->id(),
                                                   std::move(req)));
    EXPECT_TRUE(acked.ok()) << acked.error().to_string();
  }
  sim.run();
  EXPECT_EQ(mp.node_count(), kNodes);
  return {bench::alloc_probe::bytes_allocated() - asked,
          bench::alloc_probe::live_bytes() - live};
}

TEST(MetaFootprint, StoredNodeRequestsUnder600Bytes) {
  const Footprint f = fill();
  EXPECT_LT(f.asked, 600 * kNodes)
      << static_cast<double>(f.asked) / kNodes << " bytes per stored node";
}

TEST(MetaFootprint, CheckpointedNodeHoldsUnder150LiveBytes) {
  const Footprint f = fill();
  EXPECT_LT(f.live, 150 * kNodes)
      << static_cast<double>(f.live) / kNodes
      << " live bytes per stored node";
}

}  // namespace
}  // namespace bs::blob
