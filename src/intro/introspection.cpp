#include "intro/introspection.hpp"

#include <algorithm>

namespace bs::intro {

namespace {
constexpr SimDuration kPruneInterval = simtime::seconds(30);
constexpr SimDuration kAnalysisWindow = simtime::seconds(10);
}  // namespace

IntrospectionService::IntrospectionService(rpc::Node& node) : node_(node) {
  node_.serve<mon::MonStoreReq, mon::MonStoreResp>(
      [this](const mon::MonStoreReq& req,
             const rpc::Envelope&) -> sim::Task<Result<mon::MonStoreResp>> {
        for (const auto& r : req.batch()) ingest(r);
        mon::MonStoreResp resp;
        resp.accepted = req.batch().size();
        co_return resp;
      });
}

void IntrospectionService::start() {
  if (running_) return;
  running_ = true;
  node_.cluster().sim().spawn(prune_loop());
}

sim::Task<void> IntrospectionService::prune_loop() {
  auto& sim = node_.cluster().sim();
  while (running_ && node_.up()) {
    co_await sim.delay(kPruneInterval);
    if (!running_) break;
    activity_.prune(sim.now());
    const SimTime cutoff = sim.now() - kRetention;
    if (cutoff > 0) {
      // Per-series transform, no cross-series state: order-insensitive.
      series_.for_each_unordered([&](const mon::RecordKey&, TimeSeries& ts) {
        auto keep = ts.range(cutoff, simtime::kInfinite);
        TimeSeries pruned;
        for (const auto& s : keep) pruned.append(s.time, s.value);
        ts = std::move(pruned);
      });
    }
  }
}

void IntrospectionService::ingest(const mon::Record& record) {
  ++ingested_;
  if (record.key.domain == mon::Domain::client) {
    activity_.ingest(record);
    return;
  }
  TimeSeries& ts = series_.at(series_.intern(record.key));
  const SimTime t =
      ts.empty() ? record.time : std::max(record.time, ts.back().time);
  ts.append(t, record.value);
}

const TimeSeries* IntrospectionService::series(
    const mon::RecordKey& key) const {
  return series_.find(key);
}

std::vector<mon::RecordKey> IntrospectionService::keys() const {
  return series_.sorted_keys();
}

SystemSnapshot IntrospectionService::snapshot() const {
  const SimTime now = node_.cluster().sim().now();
  const SimTime from = now - kAnalysisWindow;
  const double window_sec = simtime::to_seconds(kAnalysisWindow);

  SystemSnapshot snap;
  snap.time = now;

  std::map<std::uint64_t, SystemSnapshot::ProviderInfo> providers;
  std::map<std::uint64_t, SystemSnapshot::BlobInfo> blobs;
  RunningStats cpu_stats;

  // Sorted traversal: the floating-point accumulations below are evaluated
  // in key order, matching the std::map iteration this store replaced.
  series_.for_each_sorted([&](const mon::RecordKey& key,
                              const TimeSeries& ts) {
    if (ts.empty()) return;
    switch (key.domain) {
      case mon::Domain::provider: {
        auto& p = providers[key.id];
        p.node = NodeId{key.id};
        const Sample& last = ts.back();
        switch (key.metric) {
          case mon::Metric::used_bytes:
            p.used = last.value;
            p.updated = std::max(p.updated, last.time);
            break;
          case mon::Metric::capacity_bytes:
            p.capacity = last.value;
            break;
          case mon::Metric::chunk_count:
            p.chunks = last.value;
            break;
          case mon::Metric::store_rate:
            p.store_rate = ts.mean(from, now + 1, 0.0);
            break;
          default:
            break;
        }
        break;
      }
      case mon::Domain::blob: {
        auto& b = blobs[key.id];
        b.blob = BlobId{key.id};
        double sum = 0;
        for (const auto& s : ts.range(from, now + 1)) sum += s.value;
        switch (key.metric) {
          case mon::Metric::blob_read_bytes:
            b.read_rate = window_sec > 0 ? sum / window_sec : 0;
            break;
          case mon::Metric::blob_write_bytes:
            b.write_rate = window_sec > 0 ? sum / window_sec : 0;
            break;
          case mon::Metric::blob_versions:
            b.versions = sum;
            break;
          default:
            break;
        }
        break;
      }
      case mon::Domain::node: {
        if (key.metric == mon::Metric::cpu_load) {
          const double v = ts.value_at(now, 0.0);
          cpu_stats.add(v);
        }
        break;
      }
      default:
        break;
    }
  });

  // Node CPU attribution onto providers.
  for (auto& [id, p] : providers) {
    if (const TimeSeries* cpu =
            series(mon::RecordKey{mon::Domain::node, id,
                                  mon::Metric::cpu_load})) {
      p.cpu = cpu->value_at(now, 0.0);
    }
    if (const TimeSeries* mem =
            series(mon::RecordKey{mon::Domain::node, id,
                                  mon::Metric::mem_used})) {
      p.mem = mem->value_at(now, 0.0);
    }
    snap.providers.push_back(p);
    snap.total_used += p.used;
    snap.total_capacity += p.capacity;
    snap.aggregate_write_rate += p.store_rate;
  }
  for (auto& [id, b] : blobs) {
    snap.aggregate_read_rate += b.read_rate;
    snap.blobs.push_back(b);
  }
  snap.avg_cpu = cpu_stats.mean();
  snap.max_cpu = cpu_stats.max();

  const auto active = activity_.active_clients(kAnalysisWindow, now);
  snap.active_clients = active.size();
  for (ClientId c : active) {
    snap.rejected_rate +=
        activity_.rate(c, mon::Metric::rejected_ops, kAnalysisWindow, now);
  }
  return snap;
}

}  // namespace bs::intro
