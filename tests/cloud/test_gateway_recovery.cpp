// Gateway journal recovery: bucket/object metadata and the dedup index
// survive a gateway crash (including torn journal tails), checkpoints bound
// the replay tail, and unverified post-recovery dedup hits are re-probed
// against the providers before being trusted — a wiped provider forces a
// fresh store instead of a dangling manifest, and stale pre-crash manifests
// cannot move the regenerated entry's refcount.
#include "cloud/gateway_stack.hpp"

namespace bs::cloud {
namespace {

class GatewayRecoveryTest : public GatewayStack {
 protected:
  explicit GatewayRecoveryTest(std::size_t data_providers = 4,
                               std::uint32_t replication = 1)
      : GatewayStack({.sites = 2, .data_providers = data_providers,
                      .metadata_providers = 2, .journal = {.enabled = true}},
                     {.object_chunk_size = kChunk,
                      .replication = replication,
                      .journal = {.enabled = true, .checkpoint_records = 64}},
                     {1}) {}

  void put_ids(ClientId user, const std::string& bucket,
               const std::string& key,
               const std::vector<std::uint64_t>& ids) {
    S3PutObjectReq put;
    put.bucket = bucket;
    put.key = key;
    std::uint64_t etag = fnv1a_u64(ids.size() * kChunk);
    for (std::uint64_t id : ids) {
      put.chunk_sums.push_back(fnv1a_u64(id));
      etag = hash_combine(etag, put.chunk_sums.back());
    }
    put.payload = blob::Payload{ids.size() * kChunk, etag, nullptr};
    ASSERT_TRUE((as<S3PutObjectReq, S3PutObjectResp>(user, put)).ok());
  }

  /// Crash the gateway node, restart it, and run the sim until the spawned
  /// recovery task has replayed the journal.
  void crash_restart_gateway(bool torn_tail = false) {
    rpc::CrashOptions c;
    c.torn_tail = torn_tail;
    gw_node_->crash(c);
    sim_.run_until(sim_.now() + simtime::seconds(1));
    gw_node_->restart();
    sim_.run_until(sim_.now() + simtime::seconds(10));
    ASSERT_FALSE(gateway_->recovering());
  }
};

TEST_F(GatewayRecoveryTest, MetadataAndIndexSurviveCrash) {
  S3CreateBucketReq mk;
  mk.bucket = "b";
  ASSERT_TRUE((as<S3CreateBucketReq, S3CreateBucketResp>(alice_, mk)).ok());
  S3SetAclReq grant;
  grant.bucket = "b";
  grant.grantee = bob_;
  grant.permission = Permission::read;
  ASSERT_TRUE((as<S3SetAclReq, S3SetAclResp>(alice_, grant)).ok());
  put_ids(alice_, "b", "x", {1, 2, 3});
  put_ids(alice_, "b", "y", {2, 3, 4});  // shares chunks 2, 3 with x

  const std::uint64_t before = gateway_->state_digest();
  const std::size_t index_before = gateway_->index().size();
  S3HeadObjectReq head;
  head.bucket = "b";
  head.key = "x";
  auto h0 = as<S3HeadObjectReq, S3HeadObjectResp>(alice_, head);
  ASSERT_TRUE(h0.ok());

  crash_restart_gateway();

  EXPECT_EQ(gateway_->state_digest(), before);
  EXPECT_EQ(gateway_->index().size(), index_before);
  EXPECT_EQ(gateway_->recovery_stats().recoveries, 1u);
  EXPECT_GT(gateway_->recovery_stats().replay_records, 0u);

  // Metadata answers match, the ACL survived, and the data is readable.
  auto h1 = as<S3HeadObjectReq, S3HeadObjectResp>(alice_, head);
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ(h1.value().info.etag, h0.value().info.etag);
  EXPECT_EQ(h1.value().info.size, h0.value().info.size);
  S3GetObjectReq get;
  get.bucket = "b";
  get.key = "y";
  EXPECT_TRUE((as<S3GetObjectReq, S3GetObjectResp>(bob_, get)).ok());

  // A dedup hit against the recovered index still skips provider writes
  // (after the one-time presence re-probe).
  const std::uint64_t stored_before = gateway_->stats().bytes_to_providers;
  put_ids(alice_, "b", "z", {3, 4});
  EXPECT_EQ(gateway_->stats().bytes_to_providers, stored_before);
  EXPECT_EQ(gateway_->index().size(), index_before);
}

TEST_F(GatewayRecoveryTest, TornTailKeepsAckedObjects) {
  S3CreateBucketReq mk;
  mk.bucket = "b";
  ASSERT_TRUE((as<S3CreateBucketReq, S3CreateBucketResp>(alice_, mk)).ok());
  for (int i = 0; i < 6; ++i) {
    put_ids(alice_, "b", "k" + std::to_string(i),
            {std::uint64_t(10 + i), std::uint64_t(20 + i)});
  }
  const std::uint64_t before = gateway_->state_digest();

  crash_restart_gateway(/*torn_tail=*/true);

  // Every acked put was fsynced before its response, so a torn tail (the
  // half-written record past the last sync) cannot lose any of them.
  EXPECT_EQ(gateway_->state_digest(), before);
  for (int i = 0; i < 6; ++i) {
    S3GetObjectReq get;
    get.bucket = "b";
    get.key = "k" + std::to_string(i);
    EXPECT_TRUE((as<S3GetObjectReq, S3GetObjectResp>(alice_, get)).ok());
  }
}

TEST_F(GatewayRecoveryTest, CheckpointBoundsReplay) {
  S3CreateBucketReq mk;
  mk.bucket = "b";
  ASSERT_TRUE((as<S3CreateBucketReq, S3CreateBucketResp>(alice_, mk)).ok());
  // Well past checkpoint_records (64): each put journals several records.
  for (int i = 0; i < 40; ++i) {
    put_ids(alice_, "b", "k" + std::to_string(i),
            {std::uint64_t(100 + i), std::uint64_t(200 + i)});
  }
  const std::uint64_t before = gateway_->state_digest();

  crash_restart_gateway();

  EXPECT_EQ(gateway_->state_digest(), before);
  // Replay = last checkpoint + tail. Each put appends 5 records (2 inserts,
  // 2 refs, put_object), so full history is ~202; a checkpoint at put k
  // holds 3 + 3k records and the tail stays under the 64-record trigger,
  // bounding replay to ~151 worst case. Without checkpoints it would be
  // the full 202.
  EXPECT_LT(gateway_->recovery_stats().replay_records, 170u);
  EXPECT_GT(gateway_->recovery_stats().replay_records, 0u);
  S3ListObjectsReq ls;
  ls.bucket = "b";
  auto r = as<S3ListObjectsReq, S3ListObjectsResp>(alice_, ls);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().objects.size(), 40u);
}

// Single provider, replication 1: wiping it loses every stored chunk while
// the gateway journal (and so the dedup index) survives.
class GatewayWipedStoreTest : public GatewayRecoveryTest {
 protected:
  GatewayWipedStoreTest() : GatewayRecoveryTest(1, 1) {}
};

TEST_F(GatewayWipedStoreTest, VerifiedHitsReprobeAfterProviderWipe) {
  S3CreateBucketReq mk;
  mk.bucket = "b";
  ASSERT_TRUE((as<S3CreateBucketReq, S3CreateBucketResp>(alice_, mk)).ok());
  put_ids(alice_, "b", "old", {1, 2});
  const std::size_t index_before = gateway_->index().size();
  ASSERT_EQ(index_before, 2u);

  // Provider loses its store; the gateway crashes at the same instant.
  rpc::CrashOptions wipe;
  wipe.lose_storage = true;
  dep_->providers()[0]->node().crash(wipe);
  gw_node_->crash(rpc::CrashOptions{});
  sim_.run_until(sim_.now() + simtime::seconds(1));
  dep_->providers()[0]->node().restart();
  gw_node_->restart();
  sim_.run_until(sim_.now() + simtime::seconds(10));
  ASSERT_FALSE(gateway_->recovering());
  EXPECT_EQ(gateway_->index().size(), index_before);

  // Re-ingesting the same content would be a dedup hit, but the recovered
  // entries are unverified: the presence probe finds the chunks gone and
  // stores them fresh instead of handing back dangling manifests.
  const std::uint64_t misses_before = gateway_->stats().dedup_misses;
  put_ids(alice_, "b", "new", {1, 2});
  EXPECT_EQ(gateway_->stats().dedup_misses, misses_before + 2);
  S3GetObjectReq get;
  get.bucket = "b";
  get.key = "new";
  EXPECT_TRUE((as<S3GetObjectReq, S3GetObjectResp>(alice_, get)).ok());

  // The stale pre-wipe manifest must not perturb the regenerated entries'
  // refcounts: deleting "old" reclaims nothing and "new" stays readable.
  const std::uint64_t reclaimed = gateway_->stats().chunks_reclaimed;
  S3DeleteObjectReq del;
  del.bucket = "b";
  del.key = "old";
  ASSERT_TRUE((as<S3DeleteObjectReq, S3DeleteObjectResp>(alice_, del)).ok());
  EXPECT_EQ(gateway_->stats().chunks_reclaimed, reclaimed);
  EXPECT_EQ(gateway_->index().size(), 2u);
  EXPECT_TRUE((as<S3GetObjectReq, S3GetObjectResp>(alice_, get)).ok());

  // Deleting "new" (the live generation) does reclaim.
  del.key = "new";
  ASSERT_TRUE((as<S3DeleteObjectReq, S3DeleteObjectResp>(alice_, del)).ok());
  EXPECT_EQ(gateway_->index().size(), 0u);
}

}  // namespace
}  // namespace bs::cloud
