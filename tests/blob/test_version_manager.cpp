// Version manager protocol tests at the RPC level: version assignment,
// ordered publication, abort-repair epochs, append frontier, trim and
// delete semantics.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <type_traits>

#include "blob/messages.hpp"
#include "blob/meta_ops.hpp"
#include "blob/version_manager.hpp"
#include "test_util.hpp"

namespace bs::blob {
namespace {

class VmTest : public ::testing::Test {
 protected:
  VmTest() : cluster_(sim_, net::Topology::single_site()) {
    rpc::NodeSpec spec;
    spec.service_concurrency = 1024;  // commits wait while holding a slot
    vm_node_ = cluster_.add_node(0, spec);
    vm_ = std::make_unique<VersionManager>(*vm_node_);
    client_ = cluster_.add_node(0);
  }

  template <class Req, class Resp>
  Result<Resp> call(Req req) {
    rpc::CallOptions opts;
    opts.timeout = simtime::minutes(5);
    opts.client = ClientId{1};
    return test::run_task(sim_, cluster_.call<Req, Resp>(
                                    *client_, vm_node_->id(),
                                    std::move(req), opts));
  }

  BlobId make_blob(std::uint64_t chunk_size = 100) {
    CreateBlobReq req;
    req.chunk_size = chunk_size;
    auto r = call<CreateBlobReq, CreateBlobResp>(req);
    return r.value().blob;
  }

  StartWriteResp start(BlobId blob, std::uint64_t offset,
                       std::uint64_t size) {
    StartWriteReq req;
    req.blob = blob;
    req.offset = offset;
    req.size = size;
    auto r = call<StartWriteReq, StartWriteResp>(req);
    EXPECT_TRUE(r.ok()) << r.error().to_string();
    return r.value();
  }

  sim::Simulation sim_;
  rpc::Cluster cluster_;
  rpc::Node* vm_node_;
  std::unique_ptr<VersionManager> vm_;
  rpc::Node* client_;
};

TEST_F(VmTest, CreateValidation) {
  CreateBlobReq bad;
  bad.chunk_size = 0;
  EXPECT_EQ((call<CreateBlobReq, CreateBlobResp>(bad)).code(),
            Errc::invalid_argument);
  bad.chunk_size = 10;
  bad.replication = 0;
  EXPECT_EQ((call<CreateBlobReq, CreateBlobResp>(bad)).code(),
            Errc::invalid_argument);
}

TEST_F(VmTest, StartWriteAssignsDenseVersionsAndHistory) {
  BlobId blob = make_blob();
  auto s1 = start(blob, 0, 250);
  EXPECT_EQ(s1.version, 1u);
  EXPECT_EQ(s1.first_chunk, 0u);
  EXPECT_EQ(s1.chunk_count, 3u);
  EXPECT_EQ(s1.root_chunks, 4u);
  EXPECT_EQ(s1.history_len, 0u);
  // Chunks [0, 3) of 4 leave one flank, chunk 3, which nothing wrote.
  EXPECT_EQ(s1.borders,
            (std::vector<BorderVersion>{{3, 1, kInvalidVersion, 0}}));
  EXPECT_EQ(s1.wire_size(), 80u);

  auto s2 = start(blob, kAppendOffset, 100);
  EXPECT_EQ(s2.version, 2u);
  EXPECT_EQ(s2.offset, 300u);  // append aligned up past 250
  EXPECT_EQ(s2.history_len, 1u);
  // Chunk 3 borrows [0, 2) and chunk 2 from v1, pending.
  EXPECT_EQ(s2.borders,
            (std::vector<BorderVersion>{{0, 2, 1, 4}, {2, 1, 1, 4}}));
  EXPECT_EQ(s2.wire_size(), 80u + 24u);
  EXPECT_EQ(s2.root_chunks, 4u);
}

TEST_F(VmTest, UnalignedOffsetAndZeroSizeRejected) {
  BlobId blob = make_blob();
  StartWriteReq bad;
  bad.blob = blob;
  bad.offset = 55;
  bad.size = 10;
  EXPECT_EQ((call<StartWriteReq, StartWriteResp>(bad)).code(),
            Errc::invalid_argument);
  bad.offset = 0;
  bad.size = 0;
  EXPECT_EQ((call<StartWriteReq, StartWriteResp>(bad)).code(),
            Errc::invalid_argument);
}

TEST_F(VmTest, CommitPublishesInOrder) {
  BlobId blob = make_blob();
  auto s1 = start(blob, 0, 100);
  auto s2 = start(blob, kAppendOffset, 100);

  // Commit v2 first; it must wait for v1.
  bool v2_done = false;
  sim_.spawn([](rpc::Cluster& c, rpc::Node& n, NodeId vm, BlobId b,
                Version v, std::uint64_t epoch, bool& flag) -> sim::Task<void> {
    CommitWriteReq req;
    req.blob = b;
    req.version = v;
    req.abort_epoch = epoch;
    rpc::CallOptions opts;
    opts.timeout = simtime::minutes(5);
    auto r = co_await c.call<CommitWriteReq, CommitWriteResp>(n, vm, req,
                                                              opts);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.value().published);
    flag = true;
  }(cluster_, *client_, vm_node_->id(), blob, s2.version, s2.abort_epoch,
    v2_done));
  sim_.run_until(sim_.now() + simtime::seconds(2));
  EXPECT_FALSE(v2_done);  // stalled on ordered publication

  CommitWriteReq c1;
  c1.blob = blob;
  c1.version = s1.version;
  c1.abort_epoch = s1.abort_epoch;
  auto r1 = call<CommitWriteReq, CommitWriteResp>(c1);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1.value().published);
  sim_.run_until(sim_.now() + simtime::seconds(1));
  EXPECT_TRUE(v2_done);

  BlobInfoReq info;
  info.blob = blob;
  auto i = call<BlobInfoReq, BlobInfoResp>(info);
  EXPECT_EQ(i.value().descriptor.latest.version, 2u);
  EXPECT_EQ(i.value().descriptor.latest.size, 200u);  // append landed at 100
}

TEST_F(VmTest, AbortUnblocksLaterWriters) {
  BlobId blob = make_blob();
  auto s1 = start(blob, 0, 100);
  auto s2 = start(blob, 0, 100);

  AbortWriteReq ab;
  ab.blob = blob;
  ab.version = s1.version;
  ASSERT_TRUE((call<AbortWriteReq, AbortWriteResp>(ab)).ok());

  CommitWriteReq c2;
  c2.blob = blob;
  c2.version = s2.version;
  c2.abort_epoch = s2.abort_epoch;  // stale: abort bumped the epoch
  auto r2 = call<CommitWriteReq, CommitWriteResp>(c2);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().published);
  ASSERT_TRUE(r2.value().rebuild_needed);
  // v1 left the history: nothing below v2 is charged, and v2's one-chunk
  // tree borrows nothing.
  EXPECT_EQ(r2.value().history_len, 0u);
  EXPECT_TRUE(r2.value().borders.empty());
  EXPECT_EQ(r2.value().wire_size(), 64u);

  // Re-commit with the corrected epoch -> publishes.
  c2.abort_epoch = r2.value().abort_epoch;
  auto r3 = call<CommitWriteReq, CommitWriteResp>(c2);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3.value().published);
  EXPECT_EQ(r3.value().info.version, s2.version);
}

TEST_F(VmTest, AbortRecomputesAppendFrontier) {
  BlobId blob = make_blob();
  auto s1 = start(blob, 0, 100);
  auto s2 = start(blob, 1000, 100);  // reserves up to 1100
  auto s3 = start(blob, kAppendOffset, 100);
  EXPECT_EQ(s3.offset, 1100u);

  // Abort the far write; the frontier falls back.
  AbortWriteReq ab;
  ab.blob = blob;
  ab.version = s2.version;
  ASSERT_TRUE((call<AbortWriteReq, AbortWriteResp>(ab)).ok());
  // s3 still reserved [1100, 1200); a new append goes after it.
  auto s4 = start(blob, kAppendOffset, 50);
  EXPECT_EQ(s4.offset, 1200u);
  (void)s1;
}

TEST_F(VmTest, CommitOfUnknownWriteConflicts) {
  BlobId blob = make_blob();
  CommitWriteReq c;
  c.blob = blob;
  c.version = 9;
  EXPECT_EQ((call<CommitWriteReq, CommitWriteResp>(c)).code(),
            Errc::conflict);
  AbortWriteReq a;
  a.blob = blob;
  a.version = 9;
  EXPECT_EQ((call<AbortWriteReq, AbortWriteResp>(a)).code(), Errc::conflict);
}

TEST_F(VmTest, InfoOfUnpublishedVersionFails) {
  BlobId blob = make_blob();
  (void)start(blob, 0, 100);  // pending, not committed
  BlobInfoReq info;
  info.blob = blob;
  info.version = 1;
  EXPECT_EQ((call<BlobInfoReq, BlobInfoResp>(info)).code(), Errc::not_found);
  // Latest of a blob with no published writes is version 0, size 0.
  info.version = kLatestVersion;
  auto r = call<BlobInfoReq, BlobInfoResp>(info);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().at.version, 0u);
  EXPECT_EQ(r.value().at.size, 0u);
}

TEST_F(VmTest, TrimComputesUnreferencedChunks) {
  BlobId blob = make_blob(100);
  // v1 covers chunks [0,3); v2 overwrites chunk 0; v3 overwrites chunk 1.
  auto commit = [&](const StartWriteResp& s) {
    CommitWriteReq c;
    c.blob = blob;
    c.version = s.version;
    c.abort_epoch = s.abort_epoch;
    auto r = call<CommitWriteReq, CommitWriteResp>(c);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().published);
  };
  commit(start(blob, 0, 300));
  commit(start(blob, 0, 100));
  commit(start(blob, 100, 100));

  TrimBlobReq trim;
  trim.blob = blob;
  trim.keep_from = 3;  // keep only v3
  auto r = call<TrimBlobReq, TrimBlobResp>(trim);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().versions_removed, 2u);
  // At v3: chunk0 owner=v2(kept? no, v2 < 3 -> removed)...
  // owner(kept=3): chunk0 -> v2, chunk1 -> v3, chunk2 -> v1.
  // Removed versions: v1 {0,1,2}, v2 {0}.
  // v1 chunk0 shadowed by v2 -> unreferenced; v1 chunk1 shadowed by v3 ->
  // unreferenced; v1 chunk2 still owner -> kept. v2 chunk0 is owner at the
  // kept snapshot -> kept.
  ASSERT_EQ(r.value().unreferenced.size(), 2u);
  for (const auto& key : r.value().unreferenced) {
    EXPECT_EQ(key.version, 1u);
    EXPECT_TRUE(key.index == 0 || key.index == 1);
  }

  // Trimmed versions are gone; v3 remains.
  BlobInfoReq info;
  info.blob = blob;
  info.version = 1;
  EXPECT_EQ((call<BlobInfoReq, BlobInfoResp>(info)).code(), Errc::not_found);
  info.version = 3;
  EXPECT_TRUE((call<BlobInfoReq, BlobInfoResp>(info)).ok());

  // Trimming everything is rejected.
  TrimBlobReq bad;
  bad.blob = blob;
  bad.keep_from = 99;
  EXPECT_EQ((call<TrimBlobReq, TrimBlobResp>(bad)).code(),
            Errc::invalid_argument);
}

TEST_F(VmTest, DeleteBlobHidesEverything) {
  BlobId blob = make_blob();
  auto s = start(blob, 0, 100);
  CommitWriteReq c;
  c.blob = blob;
  c.version = s.version;
  c.abort_epoch = s.abort_epoch;
  ASSERT_TRUE((call<CommitWriteReq, CommitWriteResp>(c)).ok());

  DeleteBlobReq del;
  del.blob = blob;
  ASSERT_TRUE((call<DeleteBlobReq, DeleteBlobResp>(del)).ok());

  BlobInfoReq info;
  info.blob = blob;
  EXPECT_EQ((call<BlobInfoReq, BlobInfoResp>(info)).code(), Errc::not_found);
  StartWriteReq w;
  w.blob = blob;
  w.offset = 0;
  w.size = 10;
  EXPECT_EQ((call<StartWriteReq, StartWriteResp>(w)).code(),
            Errc::not_found);
  ListBlobsReq lb;
  auto blobs = call<ListBlobsReq, ListBlobsResp>(lb);
  EXPECT_TRUE(blobs.value().blobs.empty());
}

TEST_F(VmTest, SetReplicationAffectsNewWrites) {
  BlobId blob = make_blob();
  SetReplicationReq rep;
  rep.blob = blob;
  rep.replication = 3;
  ASSERT_TRUE((call<SetReplicationReq, SetReplicationResp>(rep)).ok());
  auto s = start(blob, 0, 100);
  EXPECT_EQ(s.replication, 3u);

  rep.replication = 0;
  EXPECT_EQ((call<SetReplicationReq, SetReplicationResp>(rep)).code(),
            Errc::invalid_argument);
}

// The reply ships the write's border answers, not the history, but is
// charged as before: 80 bytes plus 24 per earlier write. The builder takes
// no history at all.
static_assert(std::is_same_v<
              decltype(&meta_ops::build_nodes),
              std::vector<std::pair<NodeKey, TreeNode>> (*)(
                  BlobId, const WriteExtent&, std::span<const ChunkDescriptor>,
                  std::span<const BorderVersion>, std::uint64_t)>);

TEST_F(VmTest, StartWriteAfterLongHistoryShipsOnlyBorders) {
  const BlobId blob = make_blob(100);
  constexpr std::uint64_t kAppends = 4096;
  for (std::uint64_t i = 0; i < kAppends; ++i) {
    (void)start(blob, kAppendOffset, 100 * (1 + i % 3));
  }
  const StartWriteResp s = start(blob, kAppendOffset, 300);
  EXPECT_EQ(s.history_len, kAppends);
  EXPECT_EQ(s.wire_size(), 80u + 24u * kAppends);

  // Appends never grow the root by two levels, so no bridges: exactly one
  // answer per flank, a left one per set bit of the first chunk and a right
  // one per clear bit of the last chunk below the root.
  const std::uint64_t last = s.first_chunk + s.chunk_count - 1;
  const auto flanks = static_cast<std::size_t>(
      std::popcount(s.first_chunk) +
      std::popcount(~last & (s.root_chunks - 1)));
  EXPECT_EQ(s.borders.size(), flanks);
  std::map<std::uint64_t, int> per_level;
  for (const BorderVersion& b : s.borders) {
    EXPECT_FALSE(s.extent().overlaps(b.lo, b.count));
    EXPECT_FALSE(b.bridges());
    ++per_level[b.count];
  }
  for (const auto& [count, n] : per_level) {
    EXPECT_LE(n, 2) << "level of " << count << " chunks";
  }
  EXPECT_LE(s.borders.size(),
            2u * static_cast<std::size_t>(std::countr_zero(s.root_chunks)));
}

TEST_F(VmTest, RootCoverageGrowsWithConcurrentReservations) {
  BlobId blob = make_blob(100);
  auto s1 = start(blob, 0, 100);        // root 1
  EXPECT_EQ(s1.root_chunks, 1u);
  auto s2 = start(blob, 700, 100);      // reserves to 800 -> root 8
  EXPECT_EQ(s2.root_chunks, 8u);
  // A later small write must still build a root covering the pending
  // reservation (forward references need it).
  auto s3 = start(blob, 0, 100);
  EXPECT_EQ(s3.root_chunks, 8u);
}

}  // namespace
}  // namespace bs::blob
