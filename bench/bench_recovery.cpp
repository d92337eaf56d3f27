// Crash-recovery cost bench for the journaled persistent-store model:
// measures time-to-readable across restart flavours and journal lengths.
//
//   restart sweep : one data provider, N direct chunk puts (the journal
//                   grows with N), then a crash + restart under four
//                   flavours — warm (checkpointed index + short tail),
//                   cold (full WAL), wiped (store lost, nothing to
//                   replay), slow (cold on a 4x slowed disk).
//   power loss    : a full deployment loses one site mid-workload (torn
//                   journal tails) and recovers; reports aggregate replay
//                   work and the slowest node's time-to-readable.
//
// Everything is measured in simulated time, so the numbers are
// bit-identical across machines; the bench replays the whole suite and
// fails if the digest moves. Output is JSON (redirect to
// BENCH_recovery.json).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "blob/data_provider.hpp"
#include "blob/deployment.hpp"
#include "common/hash.hpp"
#include "fault/fault_plane.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace bs;

struct Options {
  std::vector<int> lengths{64, 256, 1024};
  int repeat = 2;      // full-suite replays; digests must match
  bool smoke = false;  // shortest sweep only
};

struct RestartResult {
  const char* mode{""};
  int puts{0};
  SimDuration ttr{0};
  std::uint64_t replay_bytes{0};
  std::uint64_t replay_records{0};
  std::uint64_t cold_starts{0};
  std::uint64_t torn_tails{0};
  std::uint64_t chunks_after{0};
};

constexpr std::uint64_t kChunkBytes = 256 * units::KB;

// One provider driven directly over RPC: `puts` chunk puts build the
// journal, then the provider crashes and restarts under the scenario's
// flavour. Time-to-readable comes from the provider's own RecoveryStats.
RestartResult run_restart(const char* mode, int puts,
                          std::uint64_t checkpoint_records, bool wipe,
                          double disk_factor) {
  sim::Simulation sim;
  rpc::Cluster cluster(sim, net::Topology::single_site());
  rpc::Node* dp_node = cluster.add_node(0);
  rpc::Node* client = cluster.add_node(0);
  blob::DataProvider::Options opts;
  opts.journal.enabled = true;
  opts.journal.checkpoint_records = checkpoint_records;
  opts.journal.checkpoint_bytes = 1ull << 62;  // records drive checkpoints
  blob::DataProvider provider(*dp_node, opts);
  fault::FaultPlane plane(cluster, 0xBE9Cull);

  sim.spawn([](rpc::Cluster& cl, rpc::Node& src, NodeId dst,
               int n) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) {
      blob::PutChunkReq req;
      req.key = blob::ChunkKey{BlobId{1}, 1, static_cast<std::uint64_t>(i)};
      req.payload = blob::Payload::synthetic(kChunkBytes, i);
      auto r = co_await cl.call<blob::PutChunkReq, blob::PutChunkResp>(
          src, dst, std::move(req));
      if (!r.ok()) {
        std::fprintf(stderr, "FAIL: put %d rejected\n", i);
        std::exit(1);
      }
    }
  }(cluster, *client, dp_node->id(), puts));

  // Sequential puts: a generous per-put budget keeps the crash strictly
  // after the workload quiesces at every journal length.
  const SimTime crash_at =
      simtime::seconds(10) + simtime::millis(400) * puts;
  sim.run_until(crash_at - simtime::seconds(1));
  if (provider.chunk_count() != static_cast<std::size_t>(puts)) {
    std::fprintf(stderr, "FAIL: %s/%d: only %zu puts landed before crash\n",
                 mode, puts, provider.chunk_count());
    std::exit(1);
  }

  sim.schedule_at(crash_at, [&] {
    plane.crash(dp_node->id(), wipe);
    if (disk_factor < 1.0) plane.slow_disk(dp_node->id(), disk_factor);
  });
  sim.schedule_at(crash_at + simtime::seconds(1),
                  [&] { plane.restart(dp_node->id()); });
  sim.run_until(crash_at + simtime::minutes(2));

  if (provider.recovering() || provider.recovery_stats().recoveries != 1) {
    std::fprintf(stderr, "FAIL: %s/%d: recovery did not complete\n", mode,
                 puts);
    std::exit(1);
  }
  RestartResult r;
  r.mode = mode;
  r.puts = puts;
  r.ttr = provider.recovery_stats().last_time_to_readable;
  r.replay_bytes = provider.recovery_stats().replay_bytes;
  r.replay_records = provider.recovery_stats().replay_records;
  r.cold_starts = provider.recovery_stats().cold_starts;
  r.torn_tails = provider.recovery_stats().torn_tails_truncated;
  r.chunks_after = provider.chunk_count();
  return r;
}

struct PowerLossResult {
  std::uint64_t nodes_recovered{0};
  std::uint64_t replay_bytes{0};
  std::uint64_t replay_records{0};
  std::uint64_t torn_tails{0};
  SimDuration max_ttr{0};
  std::uint64_t acked{0};
  std::uint64_t readable{0};
  std::uint64_t pending{0};
};

struct WorkloadOp {
  SimTime at{0};
  std::uint64_t bytes{0};
  std::uint64_t content{0};
  Result<blob::WriteReceipt> result{Errc::internal};
};

// Correlated failure on a full deployment: site 2 (one metadata provider,
// two data providers) loses power mid-workload and comes back ten seconds
// later. Reports the aggregate replay bill and verifies every acked write
// is still readable afterwards.
PowerLossResult run_power_loss() {
  sim::Simulation sim;
  blob::DeploymentConfig cfg;
  cfg.sites = 3;
  cfg.data_providers = 6;
  cfg.metadata_providers = 2;
  cfg.provider_capacity = 4ull * units::GB;
  cfg.journal.enabled = true;
  cfg.vm_options.write_lease = simtime::seconds(20);
  cfg.vm_options.sweep_interval = simtime::seconds(5);
  blob::Deployment dep(sim, cfg);
  fault::FaultPlane plane(dep.cluster(), 0xBE9Cull);
  blob::BlobClient* writer = dep.add_client();

  std::vector<WorkloadOp> ops(6);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].at = simtime::millis(300 + 700 * i);
    ops[i].bytes = 8 * units::MB;
    ops[i].content = 0xD00D + i;
  }
  BlobId blob_id{};
  sim.spawn([](sim::Simulation& s, blob::BlobClient& cl, BlobId& out,
               std::vector<WorkloadOp>& work) -> sim::Task<void> {
    auto blob = co_await cl.create(4 * units::MB, /*replication=*/2);
    if (!blob.ok()) {
      std::fprintf(stderr, "FAIL: power-loss create failed\n");
      std::exit(1);
    }
    out = blob.value();
    for (auto& op : work) {
      s.spawn([](sim::Simulation& s2, blob::BlobClient& c2, BlobId b,
                 WorkloadOp& o) -> sim::Task<void> {
        co_await s2.delay_until(o.at);
        o.result = co_await c2.append(
            b, blob::Payload::synthetic(o.bytes, o.content));
      }(s, cl, blob.value(), op));
    }
  }(sim, *writer, blob_id, ops));

  plane.schedule(fault::FaultEvent{.at = simtime::seconds(2),
                                   .kind = fault::FaultEvent::Kind::power_loss,
                                   .a = 2});
  plane.schedule(
      fault::FaultEvent{.at = simtime::seconds(12),
                        .kind = fault::FaultEvent::Kind::power_restore,
                        .a = 2});
  sim.run_until(simtime::minutes(3));

  PowerLossResult r;
  sim.spawn([](blob::BlobClient& cl, BlobId b, std::vector<WorkloadOp>& work,
               PowerLossResult& out) -> sim::Task<void> {
    for (auto& op : work) {
      if (!op.result.ok()) continue;
      ++out.acked;
      const auto& receipt = op.result.value();
      auto read = co_await cl.read(b, receipt.offset, receipt.size,
                                   receipt.version);
      if (read.ok()) ++out.readable;
    }
  }(*writer, blob_id, ops, r));
  sim.run_until(simtime::minutes(4));

  auto absorb = [&r](const blob::RecoveryStats& st) {
    r.nodes_recovered += st.recoveries;
    r.replay_bytes += st.replay_bytes;
    r.replay_records += st.replay_records;
    r.torn_tails += st.torn_tails_truncated;
    if (st.last_time_to_readable > r.max_ttr) {
      r.max_ttr = st.last_time_to_readable;
    }
  };
  absorb(dep.version_manager().recovery_stats());
  for (const auto& mp : dep.metadata_providers()) {
    absorb(mp->recovery_stats());
  }
  for (const auto& p : dep.providers()) absorb(p->recovery_stats());
  r.pending = dep.version_manager().pending_writes();
  return r;
}

double ms(SimDuration d) { return static_cast<double>(d) / 1e6; }

struct SuiteResult {
  std::vector<RestartResult> restarts;
  PowerLossResult power_loss;
  std::uint64_t digest{0};
};

SuiteResult run_suite(const Options& opt) {
  SuiteResult suite;
  for (const int n : opt.lengths) {
    // Warm checkpoints every n/4 records; cold/slow never checkpoint, so
    // their journals hold the full put history (index + data pages).
    const std::uint64_t warm_cp = static_cast<std::uint64_t>(n) / 4;
    const std::uint64_t never = 1ull << 40;
    suite.restarts.push_back(run_restart("warm", n, warm_cp, false, 1.0));
    suite.restarts.push_back(run_restart("cold", n, never, false, 1.0));
    suite.restarts.push_back(run_restart("wiped", n, never, true, 1.0));
    suite.restarts.push_back(run_restart("slow", n, never, false, 0.25));
  }
  suite.power_loss = run_power_loss();

  // The suite digest: any change in a reported counter or sim-time value
  // moves it.
  Digest dg{0x9e3779b97f4a7c15ull};
  for (const RestartResult& r : suite.restarts) {
    dg.mix(static_cast<std::uint64_t>(r.puts));
    dg.mix_signed(r.ttr);
    dg.mix(r.replay_bytes);
    dg.mix(r.replay_records);
    dg.mix(r.cold_starts);
    dg.mix(r.torn_tails);
    dg.mix(r.chunks_after);
  }
  const PowerLossResult& p = suite.power_loss;
  dg.mix(p.nodes_recovered);
  dg.mix(p.replay_bytes);
  dg.mix(p.replay_records);
  dg.mix(p.torn_tails);
  dg.mix_signed(p.max_ttr);
  dg.mix(p.acked);
  dg.mix(p.readable);
  dg.mix(p.pending);
  suite.digest = dg.value();
  return suite;
}

// The claims the bench exists to demonstrate, enforced so bench-smoke
// turns a regression into a hard failure:
//   wiped < warm < cold < slow time-to-readable at every journal length,
//   cold replay reading strictly more than warm, and cold time-to-readable
//   growing with journal length.
bool check_orderings(const SuiteResult& suite, const Options& opt) {
  bool ok = true;
  auto fail = [&ok](const char* what, int puts) {
    std::fprintf(stderr, "FAIL: ordering '%s' violated at %d puts\n", what,
                 puts);
    ok = false;
  };
  SimDuration prev_cold = -1;
  for (std::size_t i = 0; i < suite.restarts.size(); i += 4) {
    const RestartResult& warm = suite.restarts[i];
    const RestartResult& cold = suite.restarts[i + 1];
    const RestartResult& wiped = suite.restarts[i + 2];
    const RestartResult& slow = suite.restarts[i + 3];
    const int n = warm.puts;
    if (!(wiped.ttr < warm.ttr)) fail("wiped < warm", n);
    if (!(warm.ttr < cold.ttr)) fail("warm < cold", n);
    if (!(cold.ttr < slow.ttr)) fail("cold < slow", n);
    if (!(cold.replay_bytes > warm.replay_bytes)) {
      fail("cold replays more bytes than warm", n);
    }
    if (warm.replay_bytes == 0) fail("warm replays a nonempty tail", n);
    if (wiped.replay_bytes != 0 || wiped.cold_starts != 1) {
      fail("wiped store restarts empty", n);
    }
    if (wiped.chunks_after != 0) fail("wiped store holds no chunks", n);
    if (cold.chunks_after != static_cast<std::uint64_t>(n)) {
      fail("cold restart keeps every chunk", n);
    }
    if (!(cold.ttr > prev_cold)) fail("cold ttr grows with journal", n);
    prev_cold = cold.ttr;
  }
  const PowerLossResult& p = suite.power_loss;
  if (p.nodes_recovered < 3) {
    std::fprintf(stderr, "FAIL: power loss recovered %" PRIu64
                         " nodes (expected the whole site)\n",
                 p.nodes_recovered);
    ok = false;
  }
  if (p.readable != p.acked || p.pending != 0) {
    std::fprintf(stderr,
                 "FAIL: power loss: %" PRIu64 "/%" PRIu64
                 " acked writes readable, %" PRIu64 " pending\n",
                 p.readable, p.acked, p.pending);
    ok = false;
  }
  (void)opt;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--lengths=", 0) == 0) {
      opt.lengths.clear();
      std::string list = arg.substr(arg.find('=') + 1);
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end = comma == std::string::npos ? list.size()
                                                          : comma;
        opt.lengths.push_back(
            std::atoi(list.substr(pos, end - pos).c_str()));
        pos = end + 1;
      }
    } else if (arg.rfind("--repeat=", 0) == 0) {
      opt.repeat = std::atoi(arg.substr(arg.find('=') + 1).c_str());
      if (opt.repeat < 1) opt.repeat = 1;
    } else if (arg == "--smoke") {
      opt.smoke = true;
      opt.lengths = {64};
    } else {
      std::fprintf(stderr,
                   "usage: %s [--lengths=N,N,...] [--repeat=N] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }

  const SuiteResult suite = run_suite(opt);
  bool reproducible = true;
  for (int i = 1; i < opt.repeat; ++i) {
    const SuiteResult again = run_suite(opt);
    reproducible = reproducible && again.digest == suite.digest;
  }
  const bool orderings_ok = check_orderings(suite, opt);

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_recovery\",\n");
  std::printf("  \"smoke\": %s,\n", opt.smoke ? "true" : "false");
  std::printf("  \"chunk_bytes\": %" PRIu64 ",\n", kChunkBytes);
  std::printf("  \"restart_scenarios\": [\n");
  for (std::size_t i = 0; i < suite.restarts.size(); ++i) {
    const RestartResult& r = suite.restarts[i];
    std::printf("    {\"mode\": \"%s\", \"journal_puts\": %d, "
                "\"time_to_readable_ms\": %.3f, "
                "\"replay_bytes\": %" PRIu64 ", "
                "\"replay_records\": %" PRIu64 ", "
                "\"cold_starts\": %" PRIu64 ", "
                "\"chunks_after\": %" PRIu64 "}%s\n",
                r.mode, r.puts, ms(r.ttr), r.replay_bytes, r.replay_records,
                r.cold_starts, r.chunks_after,
                i + 1 < suite.restarts.size() ? "," : "");
  }
  std::printf("  ],\n");
  const PowerLossResult& p = suite.power_loss;
  std::printf("  \"power_loss\": {\"site\": 2, "
              "\"nodes_recovered\": %" PRIu64 ", "
              "\"replay_bytes\": %" PRIu64 ", "
              "\"replay_records\": %" PRIu64 ", "
              "\"torn_tails\": %" PRIu64 ", "
              "\"max_time_to_readable_ms\": %.3f, "
              "\"acked_writes\": %" PRIu64 ", "
              "\"readable_after\": %" PRIu64 "},\n",
              p.nodes_recovered, p.replay_bytes, p.replay_records,
              p.torn_tails, ms(p.max_ttr), p.acked, p.readable);
  std::printf("  \"orderings_ok\": %s,\n", orderings_ok ? "true" : "false");
  std::printf("  \"reproducible\": %s,\n", reproducible ? "true" : "false");
  std::printf("  \"digest\": \"%016" PRIx64 "\"\n", suite.digest);
  std::printf("}\n");

  if (!reproducible) {
    std::fprintf(stderr, "FAIL: suite digest moved across replays\n");
    return 1;
  }
  return orderings_ok ? 0 : 1;
}
