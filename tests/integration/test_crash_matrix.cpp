// Crash-semantics matrix over the five journaled actors (ctest labels:
// recovery, chaos). One journaled deployment carries all of them — data
// provider, metadata provider, version manager, S3 gateway and a remote
// replication egress — and the parameter picks the node that crashes. All
// five recover through blob::Durable, so each must show the same contract:
//   * a clean crash replays to the state it had before, in one recovery;
//   * a torn tail left by a crash mid-commit is truncated once and loses
//     no acked record (the un-acked one is gone);
//   * a crash that loses the store cold-starts with nothing to replay;
//   * requests of every type the actor serves that arrive during the
//     replay are answered `unavailable` and change nothing;
//   * a second crash inside the mount latency aborts the replay: the actor
//     stays gated with no recovery booked until the next restart, which
//     completes exactly one;
//   * every replay attempt leaves one `recovery.replay` span, and the
//     `recovery.*` counters and time-to-readable histogram match the
//     actor's RecoveryStats.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "integration/chaos_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace bs {
namespace {

constexpr std::uint64_t kChunk = 1 * units::MB;
constexpr ClientId kAlice{101};

enum class Actor {
  data_provider,
  metadata_provider,
  version_manager,
  gateway,
  egress
};

std::string actor_name(const ::testing::TestParamInfo<Actor>& info) {
  switch (info.param) {
    case Actor::data_provider: return "DataProvider";
    case Actor::metadata_provider: return "MetadataProvider";
    case Actor::version_manager: return "VersionManager";
    case Actor::gateway: return "Gateway";
    case Actor::egress: return "Egress";
  }
  return "Unknown";
}

class CrashMatrix : public ::testing::TestWithParam<Actor> {
 protected:
  CrashMatrix()
      : st_(sim_,
            blob::DeploymentConfig{.sites = 3, .data_providers = 4,
                                   .metadata_providers = 2,
                                   .provider_capacity = 4ull * units::GB,
                                   .journal = {.enabled = true}},
            repl::ReplOptions{},
            cloud::GatewayOptions{.object_chunk_size = kChunk,
                                  .replication = 2,
                                  .journal = {.enabled = true}}) {
    // Populate every store: a blob with two appends (version manager,
    // metadata and data providers, custody and remote applies at the
    // egresses) and a bucket with one object through the gateway.
    blob::BlobClient* writer = st_.dep.add_client();
    auto blob_id = test::run_task(sim_, writer->create(kChunk, 2));
    EXPECT_TRUE(blob_id.ok());
    blob_ = blob_id.value();
    for (std::uint64_t i = 0; i < 2; ++i) {
      auto r = test::run_task(
          sim_, writer->append(blob_,
                               blob::Payload::synthetic(2 * kChunk, 7 + i)));
      EXPECT_TRUE(r.ok());
    }
    pick_subject();
    client_ = st_.dep.cluster().add_node(node_->site());
    cloud::S3CreateBucketReq mk;
    mk.bucket = "b";
    const auto made =
        call<cloud::S3CreateBucketReq, cloud::S3CreateBucketResp>(
            st_.gw_node->id(), mk);
    EXPECT_FALSE(made.has_value());
    cloud::S3PutObjectReq put;
    put.bucket = "b";
    put.key = "x";
    put.chunk_sums = {fnv1a_u64(1), fnv1a_u64(2)};
    std::uint64_t etag = fnv1a_u64(2 * kChunk);
    for (std::uint64_t sum : put.chunk_sums) etag = hash_combine(etag, sum);
    put.payload = blob::Payload{2 * kChunk, etag, nullptr};
    const auto stored = call<cloud::S3PutObjectReq, cloud::S3PutObjectResp>(
        st_.gw_node->id(), put);
    EXPECT_FALSE(stored.has_value());
    settle(simtime::seconds(30));  // custody drained, every store quiescent
  }

  /// The crashed node: the busiest provider of each kind, the remote
  /// egress with the most applies, or the single manager/gateway.
  void pick_subject() {
    switch (GetParam()) {
      case Actor::data_provider:
        dp_ = st_.dep.providers().front().get();
        for (const auto& p : st_.dep.providers()) {
          if (p->chunk_count() > dp_->chunk_count()) dp_ = p.get();
        }
        node_ = &dp_->node();
        break;
      case Actor::metadata_provider:
        mp_ = st_.dep.metadata_providers().front().get();
        for (const auto& m : st_.dep.metadata_providers()) {
          if (m->node_count() > mp_->node_count()) mp_ = m.get();
        }
        node_ = st_.dep.cluster().node(mp_->id());
        break;
      case Actor::version_manager:
        node_ = &st_.dep.version_manager_node();
        break;
      case Actor::gateway:
        node_ = st_.gw_node;
        break;
      case Actor::egress:
        eg_ = &st_.plane->egress(st_.plane->remote_sites().front());
        for (net::SiteId s : st_.plane->remote_sites()) {
          if (st_.plane->egress(s).applies() > eg_->applies()) {
            eg_ = &st_.plane->egress(s);
          }
        }
        node_ = &eg_->node();
        break;
    }
  }

  const blob::RecoveryStats& stats() {
    switch (GetParam()) {
      case Actor::data_provider: return dp_->recovery_stats();
      case Actor::metadata_provider: return mp_->recovery_stats();
      case Actor::version_manager:
        return st_.dep.version_manager().recovery_stats();
      case Actor::gateway: return st_.gateway->recovery_stats();
      case Actor::egress: break;
    }
    return eg_->recovery_stats();
  }

  bool recovering() {
    switch (GetParam()) {
      case Actor::data_provider: return dp_->recovering();
      case Actor::metadata_provider: return mp_->recovering();
      case Actor::version_manager:
        return st_.dep.version_manager().recovering();
      case Actor::gateway: return st_.gateway->recovering();
      case Actor::egress: break;
    }
    return eg_->recovering();
  }

  /// What the actor holds in memory, as a digest.
  std::uint64_t digest() {
    Digest dg;
    switch (GetParam()) {
      case Actor::data_provider:
        dg.mix(dp_->used());
        for (const blob::ChunkKey& k : dp_->chunk_keys()) {
          dg.mix(k.blob.value);
          dg.mix(k.version);
          dg.mix(k.index);
        }
        break;
      case Actor::metadata_provider:
        dg.mix(mp_->node_count());
        dg.mix(mp_->bytes_stored());
        break;
      case Actor::version_manager: {
        blob::VersionManager& vm = st_.dep.version_manager();
        dg.mix(vm.blob_count());
        dg.mix(vm.pending_writes());
        for (const auto& p : vm.published_snapshot()) {
          dg.mix(p.blob.value);
          dg.mix(p.version);
          dg.mix(p.size);
        }
        break;
      }
      case Actor::gateway:
        dg.mix(st_.gateway->state_digest());
        break;
      case Actor::egress:
        dg.mix(eg_->digest());
        break;
    }
    return dg.value();
  }

  /// Starts one request whose handler commits a fresh record on the
  /// subject; it is never awaited here.
  void start_commit() {
    switch (GetParam()) {
      case Actor::data_provider: {
        blob::PutChunkReq req;
        req.key = blob::ChunkKey{BlobId{999}, 1, 0};
        req.payload = blob::Payload::synthetic(kChunk, 99);
        send<blob::PutChunkReq, blob::PutChunkResp>(req);
        break;
      }
      case Actor::metadata_provider: {
        blob::MetaPutReq req;
        req.key = blob::NodeKey{BlobId{999}, 1, 0, 1};
        send<blob::MetaPutReq, blob::MetaPutResp>(req);
        break;
      }
      case Actor::version_manager: {
        blob::CreateBlobReq req;
        req.chunk_size = kChunk;
        send<blob::CreateBlobReq, blob::CreateBlobResp>(req);
        break;
      }
      case Actor::gateway: {
        cloud::S3CreateBucketReq req;
        req.bucket = "in-flight";
        send<cloud::S3CreateBucketReq, cloud::S3CreateBucketResp>(req);
        break;
      }
      case Actor::egress: {
        repl::ReplDeliverReq req;
        req.src_site = st_.plane->origin_site();
        req.bundle_id = 999;
        req.kind = static_cast<std::uint8_t>(repl::BundleKind::publish);
        req.blob = BlobId{999};
        req.version = 1;
        req.bytes = kChunk;
        send<repl::ReplDeliverReq, repl::ReplDeliverResp>(req);
        break;
      }
    }
  }

  /// One read-only request to the subject: its error code, nullopt when it
  /// succeeds (a metadata provider answers `not_found` for the probe key).
  std::optional<Errc> probe() {
    const NodeId to = node_->id();
    switch (GetParam()) {
      case Actor::data_provider:
        return call<blob::ProviderStatusReq, blob::ProviderStatusResp>(to, {});
      case Actor::metadata_provider: {
        blob::MetaGetReq req;
        req.key = blob::NodeKey{BlobId{999}, 1, 0, 1};
        return call<blob::MetaGetReq, blob::MetaGetResp>(to, req);
      }
      case Actor::version_manager:
        return call<blob::ListBlobsReq, blob::ListBlobsResp>(to, {});
      case Actor::gateway:
        return call<cloud::S3ListBucketsReq, cloud::S3ListBucketsResp>(to, {});
      case Actor::egress: break;
    }
    // The subject's own map: nothing is missing, so nothing is scheduled.
    repl::ReplMapReq req;
    req.from_site = st_.plane->origin_site();
    req.map = eg_->map().encode_wire();
    return call<repl::ReplMapReq, repl::ReplMapResp>(to, req);
  }

  /// Sends one request of every type the subject serves, all at once, and
  /// runs until each is answered: the error codes (nullopt on success), in
  /// send order. Each request names live state, so a handler that ran
  /// during the replay would answer something other than `unavailable`.
  std::vector<std::optional<Errc>> call_every_type() {
    Answers answers;
    const blob::ChunkKey chunk{blob_, 1, 0};
    const blob::NodeKey tree{blob_, 1, 0, 1};
    switch (GetParam()) {
      case Actor::data_provider:
        fire<blob::PutChunkReq, blob::PutChunkResp>(
            answers, {.key = {BlobId{999}, 1, 0},
                      .payload = blob::Payload::synthetic(4 * units::KB, 9)});
        fire<blob::GetChunkReq, blob::GetChunkResp>(answers, {.key = chunk});
        fire<blob::RemoveChunkReq, blob::RemoveChunkResp>(answers,
                                                          {.key = chunk});
        fire<blob::HasChunkReq, blob::HasChunkResp>(answers, {.key = chunk});
        fire<blob::ReplicateChunkReq, blob::ReplicateChunkResp>(
            answers, {.key = chunk, .target = client_->id()});
        fire<blob::RemoveBlobChunksReq, blob::RemoveBlobChunksResp>(
            answers, {.blob = blob_});
        fire<blob::ProviderStatusReq, blob::ProviderStatusResp>(answers, {});
        fire<blob::ListChunksReq, blob::ListChunksResp>(answers, {});
        break;
      case Actor::metadata_provider:
        fire<blob::MetaPutReq, blob::MetaPutResp>(answers,
                                                  {.key = tree, .node = {}});
        fire<blob::MetaRemoveReq, blob::MetaRemoveResp>(answers,
                                                        {.key = tree});
        fire<blob::MetaGetReq, blob::MetaGetResp>(answers, {.key = tree});
        break;
      case Actor::version_manager:
        fire<blob::CreateBlobReq, blob::CreateBlobResp>(
            answers, {.chunk_size = kChunk});
        fire<blob::BlobInfoReq, blob::BlobInfoResp>(answers, {.blob = blob_});
        fire<blob::StartWriteReq, blob::StartWriteResp>(
            answers, {.blob = blob_, .size = kChunk});
        fire<blob::CommitWriteReq, blob::CommitWriteResp>(
            answers, {.blob = blob_, .version = 2});
        fire<blob::AbortWriteReq, blob::AbortWriteResp>(
            answers, {.blob = blob_, .version = 2});
        fire<blob::ListBlobsReq, blob::ListBlobsResp>(answers, {});
        fire<blob::BlobVersionsReq, blob::BlobVersionsResp>(answers,
                                                            {.blob = blob_});
        fire<blob::TrimBlobReq, blob::TrimBlobResp>(
            answers, {.blob = blob_, .keep_from = 2});
        fire<blob::SetReplicationReq, blob::SetReplicationResp>(
            answers, {.blob = blob_, .replication = 3});
        fire<blob::DeleteBlobReq, blob::DeleteBlobResp>(answers,
                                                        {.blob = blob_});
        break;
      case Actor::gateway: {
        const auto small = blob::Payload::synthetic(4 * units::KB, 9);
        fire<cloud::S3CreateBucketReq, cloud::S3CreateBucketResp>(
            answers, {.bucket = "gated"});
        fire<cloud::S3DeleteBucketReq, cloud::S3DeleteBucketResp>(
            answers, {.bucket = "b"});
        fire<cloud::S3ListBucketsReq, cloud::S3ListBucketsResp>(answers, {});
        fire<cloud::S3SetAclReq, cloud::S3SetAclResp>(
            answers, {.bucket = "b", .public_read = true,
                      .set_public_read = true});
        fire<cloud::S3PutObjectReq, cloud::S3PutObjectResp>(
            answers,
            {.bucket = "b", .key = "y", .payload = small, .chunk_sums = {}});
        fire<cloud::S3GetObjectReq, cloud::S3GetObjectResp>(
            answers, {.bucket = "b", .key = "x"});
        fire<cloud::S3HeadObjectReq, cloud::S3HeadObjectResp>(
            answers, {.bucket = "b", .key = "x"});
        fire<cloud::S3DeleteObjectReq, cloud::S3DeleteObjectResp>(
            answers, {.bucket = "b", .key = "x"});
        fire<cloud::S3ListObjectsReq, cloud::S3ListObjectsResp>(
            answers, {.bucket = "b", .prefix = {}, .marker = {}});
        fire<cloud::S3CreateMultipartReq, cloud::S3CreateMultipartResp>(
            answers, {.bucket = "b", .key = "m"});
        fire<cloud::S3UploadPartReq, cloud::S3UploadPartResp>(
            answers, {.bucket = "b", .key = "m", .upload_id = 1,
                      .part_number = 1, .payload = small, .chunk_sums = {}});
        fire<cloud::S3CompleteMultipartReq, cloud::S3CompleteMultipartResp>(
            answers, {.bucket = "b", .key = "m", .upload_id = 1,
                      .part_count = 1});
        fire<cloud::S3AbortMultipartReq, cloud::S3AbortMultipartResp>(
            answers, {.bucket = "b", .key = "m", .upload_id = 1});
        fire<cloud::S3PutDeltaReq, cloud::S3PutDeltaResp>(
            answers, {.bucket = "b", .key = "x", .new_size = 2 * kChunk,
                      .chunks = {}});
        break;
      }
      case Actor::egress: {
        repl::ReplDeliverReq deliver;
        deliver.src_site = st_.plane->origin_site();
        deliver.kind = static_cast<std::uint8_t>(repl::BundleKind::publish);
        deliver.blob = BlobId{999};
        deliver.version = 1;
        fire<repl::ReplDeliverReq, repl::ReplDeliverResp>(answers, deliver);
        repl::ReplMapReq map;
        map.from_site = st_.plane->origin_site();
        map.map = eg_->map().encode_wire();
        fire<repl::ReplMapReq, repl::ReplMapResp>(answers, map);
        break;
      }
    }
    for (int i = 0; i < 1000000 && answers.pending > 0 && sim_.step(); ++i) {
    }
    EXPECT_EQ(answers.pending, 0u);
    return answers.codes;
  }

  struct Answers {
    std::vector<std::optional<Errc>> codes;
    std::size_t pending{0};
  };

  /// Starts one call to the subject; its answer lands in `answers`.
  template <class Req, class Resp>
  void fire(Answers& answers, Req req) {
    EXPECT_TRUE(node_->serves<Req>()) << Req::kName;
    answers.codes.emplace_back();
    ++answers.pending;
    sim_.spawn([](rpc::Cluster& cl, rpc::Node& from, NodeId to, Req r,
                  rpc::CallOptions o, Answers& out,
                  std::size_t slot) -> sim::Task<void> {
      auto res = co_await cl.call<Req, Resp>(from, to, std::move(r), o);
      if (!res.ok()) out.codes[slot] = res.error().code;
      --out.pending;
    }(st_.dep.cluster(), *client_, node_->id(), std::move(req), opts(),
      answers, answers.codes.size() - 1));
  }

  template <class Req, class Resp>
  std::optional<Errc> call(NodeId to, Req req) {
    auto r = test::run_task(sim_, st_.dep.cluster().call<Req, Resp>(
                                      *client_, to, std::move(req), opts()));
    if (r.ok()) return std::nullopt;
    return r.error().code;
  }

  template <class Req, class Resp>
  void send(Req req) {
    sim_.spawn([](rpc::Cluster& cl, rpc::Node& from, NodeId to, Req r,
                  rpc::CallOptions o) -> sim::Task<void> {
      (void)co_await cl.call<Req, Resp>(from, to, std::move(r), o);
    }(st_.dep.cluster(), *client_, node_->id(), std::move(req), opts()));
  }

  static rpc::CallOptions opts() {
    rpc::CallOptions o;
    o.client = kAlice;
    o.retry = rpc::RetryPolicy{};  // one attempt: see every answer
    return o;
  }

  void crash(bool torn_tail = false, bool lose_storage = false) {
    rpc::CrashOptions c;
    c.torn_tail = torn_tail;
    c.lose_storage = lose_storage;
    node_->crash(c);
  }
  void settle(SimDuration d) { sim_.run_until(sim_.now() + d); }
  /// Restarts the subject and runs just until its replay completes, so its
  /// state is read before anything else (the reconciler, say) can repair
  /// what the replay missed.
  void restart_until_readable() {
    node_->restart();
    for (int i = 0; i < 1000000 && recovering() && sim_.step(); ++i) {
    }
    ASSERT_FALSE(recovering());
  }
  void crash_and_recover(bool torn_tail = false, bool lose_storage = false) {
    crash(torn_tail, lose_storage);
    settle(simtime::seconds(1));
    restart_until_readable();
  }

  /// Starts a commit and crashes (torn) while its record is still
  /// volatile: the handler has mutated memory, its fsync is in flight.
  void crash_mid_commit() {
    const std::uint64_t before = digest();
    start_commit();
    for (int i = 0; i < 100000 && digest() == before; ++i) {
      settle(simtime::micros(20));
    }
    ASSERT_NE(digest(), before) << "the commit never reached the subject";
    crash(/*torn_tail=*/true);
  }

  sim::Simulation sim_;
  test::ChaosStack st_;  // journaled, repl plane, gateway
  rpc::Node* client_{nullptr};
  rpc::Node* node_{nullptr};
  BlobId blob_{};
  blob::DataProvider* dp_{nullptr};
  blob::MetadataProvider* mp_{nullptr};
  repl::SiteEgress* eg_{nullptr};
};

TEST_P(CrashMatrix, CleanCrashReplaysToTheSameState) {
  const std::uint64_t before = digest();
  crash_and_recover();
  EXPECT_EQ(stats().recoveries, 1u);
  EXPECT_GT(stats().replay_records, 0u);
  EXPECT_EQ(stats().torn_tails_truncated, 0u);
  EXPECT_EQ(stats().cold_starts, 0u);
  EXPECT_EQ(digest(), before);
}

TEST_P(CrashMatrix, TornTailMidCommitLosesNoAckedRecord) {
  const std::uint64_t acked = digest();
  crash_mid_commit();
  settle(simtime::seconds(1));
  restart_until_readable();
  EXPECT_EQ(stats().recoveries, 1u);
  EXPECT_EQ(stats().torn_tails_truncated, 1u);
  // Everything acked before the crash replays; the torn record was never
  // acked and is gone.
  EXPECT_EQ(digest(), acked);
}

TEST_P(CrashMatrix, LostStorageColdStarts) {
  crash_and_recover(/*torn_tail=*/false, /*lose_storage=*/true);
  EXPECT_EQ(stats().recoveries, 1u);
  EXPECT_EQ(stats().cold_starts, 1u);
  EXPECT_EQ(stats().replay_bytes, 0u);
  EXPECT_EQ(stats().replay_records, 0u);
}

TEST_P(CrashMatrix, RequestsDuringReplayAreUnavailable) {
  const std::optional<Errc> unavailable = Errc::unavailable;
  constexpr std::size_t kServedTypes[] = {8, 3, 10, 14, 2};
  ASSERT_NE(probe(), unavailable);
  const std::uint64_t before = digest();
  crash();
  settle(simtime::seconds(1));
  node_->restart();
  ASSERT_TRUE(recovering());
  // The requests come from the subject's own site, well inside the mount.
  const std::vector<std::optional<Errc>> answers = call_every_type();
  ASSERT_EQ(answers.size(), kServedTypes[static_cast<int>(GetParam())]);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i], unavailable) << "request #" << i;
  }
  EXPECT_TRUE(recovering());
  for (int i = 0; i < 1000000 && recovering() && sim_.step(); ++i) {
  }
  ASSERT_FALSE(recovering());
  // Nothing a gated request carried reached the replayed state.
  EXPECT_EQ(digest(), before);
  EXPECT_NE(probe(), unavailable);
}

TEST_P(CrashMatrix, SecondCrashInsideMountAbortsTheReplay) {
  const std::uint64_t before = digest();
  crash();
  settle(simtime::seconds(1));
  node_->restart();
  settle(blob::kMountLatency / 2);
  ASSERT_TRUE(recovering());
  crash();
  settle(simtime::seconds(10));
  EXPECT_TRUE(recovering());
  EXPECT_EQ(stats().recoveries, 0u);
  restart_until_readable();
  EXPECT_EQ(stats().recoveries, 1u);
  EXPECT_EQ(digest(), before);
}

TEST_P(CrashMatrix, EveryReplayAttemptIsTracedAndCounted) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  obs::TraceSinkOptions topts;
  topts.capacity = 1u << 16;
  obs::TraceSink sink(topts);
  obs::MetricsRegistry metrics;
  obs::ScopedTrace trace_scope(sink);
  obs::ScopedMetrics metrics_scope(metrics);

  // Three attempts: one aborted inside the mount, one clean, one after a
  // torn tail.
  crash();
  settle(simtime::seconds(1));
  node_->restart();
  settle(blob::kMountLatency / 2);
  crash();
  settle(simtime::seconds(1));
  restart_until_readable();
  crash_mid_commit();
  settle(simtime::seconds(1));
  restart_until_readable();
  ASSERT_EQ(stats().recoveries, 2u);
  ASSERT_EQ(stats().torn_tails_truncated, 1u);
  EXPECT_EQ(sink.dropped(), 0u);

  std::vector<obs::SpanId> replays;
  std::map<obs::SpanId, std::string> status;
  sink.for_each([&](const obs::TraceRecord& r) {
    if (r.kind == obs::RecordKind::span_begin &&
        std::string_view(r.name) == "recovery.replay") {
      EXPECT_EQ(r.args[0].value, static_cast<std::int64_t>(node_->id().value));
      replays.push_back(r.id);
    } else if (r.kind == obs::RecordKind::span_end) {
      status[r.id] = r.status;
    }
  });
  ASSERT_EQ(replays.size(), 3u);
  EXPECT_EQ(status[replays[0]], "aborted");
  EXPECT_EQ(status[replays[1]], "ok");
  EXPECT_EQ(status[replays[2]], "ok");

  auto counter = [&](std::string_view name) -> std::uint64_t {
    const obs::Counter* c = metrics.find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  EXPECT_EQ(counter("recovery.replays"), stats().recoveries);
  EXPECT_EQ(counter("recovery.replay_records"), stats().replay_records);
  EXPECT_EQ(counter("recovery.replay_bytes"), stats().replay_bytes);
  EXPECT_EQ(counter("recovery.torn_tails"), stats().torn_tails_truncated);
  const Histogram* ttr = metrics.find_histogram("recovery.time_to_readable_ms");
  ASSERT_NE(ttr, nullptr);
  EXPECT_EQ(ttr->count(), stats().recoveries);
}

INSTANTIATE_TEST_SUITE_P(Actors, CrashMatrix,
                         ::testing::Values(Actor::data_provider,
                                           Actor::metadata_provider,
                                           Actor::version_manager,
                                           Actor::gateway, Actor::egress),
                         actor_name);

}  // namespace
}  // namespace bs
