// Footprint guard for the metadata provider's stored nodes. A journaled
// provider holds each node in its map, in its journal tail until the next
// checkpoint and in every checkpoint image after it. A node is 32 bytes:
// two child versions and a leaf descriptor that the writer builds once and
// every copy shares, so an inner node costs those copies alone and a leaf
// adds one descriptor with its replica list.
//
// The probe window opens before the provider is built and closes after the
// last put, so the map's buckets, the tail's and the images' growth and
// each put's RPC and fsync all count. 4,096 puts, seven of eight of them
// inner nodes (the shape of a write's tree) and the rest 3-replica leaves,
// through eight checkpoints, ask operator new for 512.2 bytes per stored
// node (g++ 12.2, libstdc++). With 88-byte nodes whose every copy carried
// a descriptor of its own, and a replica list per leaf copy, they asked
// for 686.2.
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

TEST(MetaFootprint, StoredNodeRequestsUnder600Bytes) {
  constexpr std::uint64_t kNodes = 4096;
  constexpr std::uint64_t kReplicas = 3;
  sim::Simulation sim;
  rpc::Cluster cluster(sim, net::Topology::single_site());
  rpc::Node* node = cluster.add_node(0);
  rpc::Node* client = cluster.add_node(0);
  MetadataProvider::Options opts;
  opts.journal.enabled = true;
  opts.journal.checkpoint_records = kNodes / 8;

  const std::uint64_t before = bench::alloc_probe::bytes_allocated();
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
    ASSERT_TRUE(acked.ok()) << acked.error().to_string();
  }
  sim.run();
  const std::uint64_t done = bench::alloc_probe::bytes_allocated();

  ASSERT_EQ(mp.node_count(), kNodes);
  EXPECT_LT(done - before, 600 * kNodes)
      << static_cast<double>(done - before) / kNodes
      << " bytes per stored node";
}

}  // namespace
}  // namespace bs::blob
