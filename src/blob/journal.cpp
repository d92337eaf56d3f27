#include "blob/journal.hpp"

#include "common/log.hpp"

namespace bs::blob {

namespace {

constexpr double kReplayIops = 50000.0;  ///< records applied per second
constexpr SimDuration kFsyncLatency = simtime::micros(500);  ///< per barrier

bool still_up(const rpc::Node& node, std::uint64_t incarnation) {
  return node.up() && node.incarnation() == incarnation;
}

}  // namespace

// bslint: allow(coro-ref-param): the node is cluster-owned for the whole
// simulation; crash safety is handled by incarnation pinning, not lifetime
sim::Task<bool> journal_fsync(rpc::Node& node, std::uint64_t bytes) {
  auto& cluster = node.cluster();
  const std::uint64_t inc = node.incarnation();
  if (bytes > 0) {
    std::vector<net::Resource*> rs{node.disk()};
    co_await cluster.flows().transfer(static_cast<double>(bytes),
                                      std::move(rs));
  }
  if (!still_up(node, inc)) co_return false;
  co_await cluster.sim().delay(kFsyncLatency);
  co_return still_up(node, inc);
}

// bslint: allow(coro-ref-param): node is cluster-owned; see journal_fsync
sim::Task<bool> journal_replay_cost(rpc::Node& node, ReplayPlan plan) {
  auto& cluster = node.cluster();
  const std::uint64_t inc = node.incarnation();
  co_await cluster.sim().delay(kMountLatency);
  if (!still_up(node, inc)) co_return false;
  if (plan.total_bytes() > 0) {
    std::vector<net::Resource*> rs{node.disk()};
    co_await cluster.flows().transfer(static_cast<double>(plan.total_bytes()),
                                      std::move(rs));
    if (!still_up(node, inc)) co_return false;
  }
  co_await cluster.sim().delay(simtime::seconds(
      static_cast<double>(plan.total_records()) / kReplayIops));
  co_return still_up(node, inc);
}

void charge_disk_write(rpc::Node& node, std::uint64_t bytes) {
  if (bytes == 0) return;
  auto& cluster = node.cluster();
  cluster.sim().spawn(
      [](rpc::Cluster& cl, net::Resource* disk, double b) -> sim::Task<void> {
        std::vector<net::Resource*> rs{disk};
        co_await cl.flows().transfer(b, std::move(rs));
      }(cluster, node.disk(), static_cast<double>(bytes)));
}

obs::SpanId begin_replay_span(NodeId node, const ReplayPlan& plan) {
  auto* ts = obs::sink();
  if (ts == nullptr) return 0;
  return ts->begin_span(
      "recovery.replay", "recovery", 0,
      {"node", static_cast<std::int64_t>(node.value)},
      {"records", static_cast<std::int64_t>(plan.total_records())});
}

void note_readable(rpc::Node& node, const ReplayPlan& plan,
                   const RecoveryOutcome& outcome, SimTime started,
                   obs::SpanId span, RecoveryStats& stats) {
  if (outcome.torn_bytes > 0) {
    ++stats.torn_tails_truncated;
    obs::count("recovery.torn_tails");
  }
  if (outcome.wiped) ++stats.cold_starts;
  ++stats.recoveries;
  stats.replay_bytes += plan.total_bytes();
  stats.replay_records += plan.total_records();
  stats.last_time_to_readable = node.cluster().sim().now() - started;
  stats.total_time_to_readable += stats.last_time_to_readable;
  obs::count("recovery.replays");
  obs::count("recovery.replay_bytes", plan.total_bytes());
  obs::count("recovery.replay_records", plan.total_records());
  obs::observe("recovery.time_to_readable_ms",
               static_cast<double>(stats.last_time_to_readable) /
                   static_cast<double>(simtime::kNanosPerMilli),
               0.0, 60000.0, 120);
  if (auto* ts = obs::sink()) ts->end_span(span, "ok");
  BS_INFO("recovery", "node %llu readable after %llu records / %llu bytes",
          (unsigned long long)node.id().value,
          (unsigned long long)plan.total_records(),
          (unsigned long long)plan.total_bytes());
}

}  // namespace bs::blob
