// Differential test of the version manager's border answers. A seeded
// driver runs 4-16 writers over 1-3 blobs against a real journaled
// VersionManager and checks every StartWrite reply against
// meta_ops::border_versions over a model of the blob's history at that
// start.
//
// The model is exact because the driver issues every operation that changes
// a history — starts, aborts and the lease expiries it provokes — one at a
// time, and waits for each to finish. Commits run concurrently beside them:
// publication and rebuild replies leave the history alone. The one crash
// happens right after a start reply, whose fsync made every earlier record
// durable, so the replay (checkpoint image plus journal tail) must restore
// the same history.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>

#include "blob/messages.hpp"
#include "blob/meta_ops.hpp"
#include "blob/version_manager.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace bs::blob {
namespace {

constexpr std::uint64_t kChunk = 100;
constexpr SimDuration kLease = simtime::seconds(5);
constexpr SimDuration kSweep = simtime::millis(250);

rpc::CallOptions call_opts(ClientId who) {
  rpc::CallOptions opts;
  opts.timeout = simtime::minutes(5);
  opts.client = who;
  return opts;
}

/// One writer's write between its start and its publication.
struct InFlight {
  std::size_t blob{0};
  WriteExtent extent;
  std::uint64_t epoch{0};
  bool committing{false};  ///< a commit loop owns it
  bool published{false};
  /// Bumped by each commit loop started; an older loop (one whose reply
  /// the crash lost) leaves the write alone when its call times out.
  std::uint32_t loop{0};
};

/// Commits until published; a rebuild request is answered by committing
/// again with the new epoch (no metadata is stored in this test).
sim::Task<void> commit_loop(rpc::Cluster& cluster, rpc::Node& client,
                            NodeId vm, BlobId blob, ClientId who,
                            std::shared_ptr<InFlight> w) {
  const std::uint32_t loop = ++w->loop;
  while (true) {
    CommitWriteReq req;
    req.blob = blob;
    req.version = w->extent.version;
    req.abort_epoch = w->epoch;
    auto r = co_await cluster.call<CommitWriteReq, CommitWriteResp>(
        client, vm, req, call_opts(who));
    if (loop != w->loop) co_return;
    if (!r.ok()) {
      // Only the crash fails a commit; the driver commits again after the
      // replay, and a write left unpublished fails the final check.
      EXPECT_EQ(r.code(), Errc::unavailable) << r.error().to_string();
      co_return;
    }
    if (r.value().published) {
      w->published = true;
      co_return;
    }
    EXPECT_TRUE(r.value().rebuild_needed);
    w->epoch = r.value().abort_epoch;
  }
}

/// A journaled version manager (checkpoints every 8 durable records, short
/// leases) and one client node.
struct Rig {
  sim::Simulation sim;
  rpc::Cluster cluster{sim, net::Topology::single_site()};
  rpc::Node* vm_node{nullptr};
  rpc::Node* client{nullptr};
  std::unique_ptr<VersionManager> vm;

  Rig() {
    rpc::NodeSpec spec;
    spec.service_concurrency = 1024;  // commits wait while holding a slot
    vm_node = cluster.add_node(0, spec);
    client = cluster.add_node(0);
    VersionManager::Options opts;
    opts.write_lease = kLease;
    opts.sweep_interval = kSweep;
    opts.journal.enabled = true;
    opts.journal.checkpoint_records = 8;
    vm = std::make_unique<VersionManager>(*vm_node, opts);
    vm->start_lease_sweeper();
  }

  template <class Req, class Resp>
  Result<Resp> call(Req req, ClientId who) {
    return test::run_task(sim, cluster.call<Req, Resp>(
                                   *client, vm_node->id(), std::move(req),
                                   call_opts(who)));
  }

  void spawn_commit(BlobId blob, ClientId who,
                    const std::shared_ptr<InFlight>& w) {
    w->committing = true;
    sim.spawn(commit_loop(cluster, *client, vm_node->id(), blob, who, w));
  }
};

class VmBordersDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VmBordersDiff, StartRepliesMatchBorderVersions) {
  Rng rng(GetParam());
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics metrics_scope(metrics);
  Rig rig;

  const auto n_blobs = static_cast<std::size_t>(rng.uniform_int(1, 3));
  const auto n_writers = static_cast<std::size_t>(rng.uniform_int(4, 16));
  std::vector<BlobId> blobs;
  std::vector<std::vector<WriteExtent>> model(n_blobs);  // history per blob
  std::vector<std::uint64_t> end(n_blobs, 0);  // chunk end ever reserved
  for (std::size_t b = 0; b < n_blobs; ++b) {
    CreateBlobReq req;
    req.chunk_size = kChunk;
    auto r = rig.call<CreateBlobReq, CreateBlobResp>(req, ClientId{1});
    ASSERT_TRUE(r.ok());
    blobs.push_back(r.value().blob);
  }
  std::vector<std::shared_ptr<InFlight>> writers(n_writers);
  auto who = [](std::size_t i) { return ClientId{100 + i}; };
  auto commit = [&](std::size_t i) {
    rig.spawn_commit(blobs[writers[i]->blob], who(i), writers[i]);
  };
  auto forget = [&](std::size_t i) {
    auto& h = model[writers[i]->blob];
    h.erase(std::find_if(h.begin(), h.end(), [&](const WriteExtent& e) {
      return e.version == writers[i]->extent.version;
    }));
    writers[i].reset();
  };

  std::uint64_t starts = 0;
  std::uint64_t bridges = 0;
  std::uint64_t aborts = 0;
  std::uint64_t expiries = 0;
  std::uint64_t max_growth = 0;  // most root levels one start added
  bool crashed = false;
  constexpr int kSteps = 240;
  for (int step = 0; step < kSteps; ++step) {
    rig.sim.run_until(rig.sim.now() + simtime::millis(1));  // commits go on
    const std::size_t i = rng.next_below(n_writers);
    if (writers[i] && writers[i]->published) writers[i].reset();
    if (writers[i]) {
      if (writers[i]->committing) continue;  // publication waits its turn
      if (rng.chance(0.2)) {
        AbortWriteReq req;
        req.blob = blobs[writers[i]->blob];
        req.version = writers[i]->extent.version;
        auto r = rig.call<AbortWriteReq, AbortWriteResp>(req, who(i));
        ASSERT_TRUE(r.ok()) << r.error().to_string();
        forget(i);
        ++aborts;
      } else {
        commit(i);
      }
      continue;
    }

    // Start: an append, an overwrite, or a write past the end that leaves
    // a hole and may grow the root by several levels.
    const std::size_t b = rng.next_below(n_blobs);
    std::uint64_t offset = kAppendOffset;
    const int shape = static_cast<int>(rng.next_below(8));
    if (shape < 3 && end[b] > 0) {
      offset = rng.next_below(end[b]) * kChunk;
    } else if (shape >= 6) {
      const std::uint64_t jump =
          end[b] < 2048 ? std::max<std::uint64_t>(end[b], 1) * 16 : 256;
      offset = (end[b] + rng.next_below(jump)) * kChunk;
    }
    const auto count = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
    StartWriteReq req;
    req.blob = blobs[b];
    req.offset = offset;
    req.size = count * kChunk - rng.next_below(kChunk);
    auto r = rig.call<StartWriteReq, StartWriteResp>(req, who(i));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    const StartWriteResp& s = r.value();
    const WriteExtent e = s.extent();
    const auto want = meta_ops::border_versions(model[b], e, e.root_chunks);
    EXPECT_TRUE(s.borders == want)
        << "start v" << e.version << " [" << e.first_chunk << ", +"
        << e.chunk_count << ") root " << e.root_chunks << ": "
        << s.borders.size() << " borders, want " << want.size();
    EXPECT_EQ(s.history_len, model[b].size());
    ++starts;
    for (const BorderVersion& bv : want) bridges += bv.bridges() ? 1 : 0;
    const int old_levels = std::countr_zero(next_pow2(end[b]));
    max_growth = std::max<std::uint64_t>(
        max_growth, static_cast<std::uint64_t>(std::max(
                        0, std::countr_zero(e.root_chunks) - old_levels)));
    model[b].push_back(e);
    end[b] = std::max(end[b], e.first_chunk + e.chunk_count);
    writers[i] = std::make_shared<InFlight>();
    writers[i]->blob = b;
    writers[i]->extent = e;
    writers[i]->epoch = s.abort_epoch;

    if (rng.chance(0.06)) {
      // Lease expiry: this writer stalls and every other write commits, so
      // only this one can expire while the driver waits out the lease.
      for (std::size_t j = 0; j < n_writers; ++j) {
        if (j != i && writers[j] && !writers[j]->committing) commit(j);
      }
      const std::uint64_t before = rig.vm->leases_expired();
      rig.sim.run_until(rig.sim.now() + kLease + 2 * kSweep);
      ASSERT_EQ(rig.vm->leases_expired(), before + 1);
      forget(i);
      ++expiries;
    } else if (!crashed && step >= kSteps / 2) {
      // Crash right after this start: its fsync sealed every record before
      // it, so the replay must rebuild the same histories and border index.
      crashed = true;
      if (obs::kEnabled) {
        const auto* taken = metrics.find_counter("journal.checkpoints");
        EXPECT_TRUE(taken != nullptr && taken->value() > 0)
            << "the replay installs no checkpoint";
      }
      rig.vm_node->crash();
      rig.sim.run_until(rig.sim.now() + simtime::millis(50));
      rig.vm_node->restart();
      while (rig.vm->recovering()) {
        rig.sim.run_until(rig.sim.now() + simtime::millis(5));
      }
      for (std::size_t j = 0; j < n_writers; ++j) {
        if (writers[j] && writers[j]->committing && !writers[j]->published) {
          commit(j);  // the crash lost the call
        }
      }
    }
  }

  // Settle: everything still in flight commits and publishes, after which
  // each blob's published versions are exactly its modelled history.
  for (std::size_t j = 0; j < n_writers; ++j) {
    if (writers[j] && !writers[j]->committing) commit(j);
  }
  rig.sim.run_until(rig.sim.now() + simtime::seconds(30));
  for (const auto& w : writers) {
    if (w) {
      EXPECT_TRUE(w->published) << "v" << w->extent.version;
    }
  }
  for (std::size_t b = 0; b < n_blobs; ++b) {
    std::vector<Version> published;
    for (const VersionInfo& info : rig.vm->versions_of(blobs[b])) {
      published.push_back(info.version);
    }
    std::vector<Version> modelled;
    for (const WriteExtent& e : model[b]) modelled.push_back(e.version);
    EXPECT_EQ(published, modelled) << "blob " << b;
  }

  EXPECT_TRUE(crashed);
  EXPECT_EQ(rig.vm->recovery_stats().recoveries, 1u);
  EXPECT_GE(starts, 80u);
  EXPECT_GT(bridges, 0u) << "no start exercised a bridge";
  EXPECT_GE(max_growth, 2u) << "no start grew the root by two levels";
  EXPECT_GT(aborts, 0u);
  EXPECT_GT(expiries, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmBordersDiff,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace bs::blob
