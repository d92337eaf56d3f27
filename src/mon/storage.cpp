#include "mon/storage.hpp"

#include <algorithm>

namespace bs::mon {

namespace {
constexpr std::size_t kDrainBatch = 512;  ///< records per disk write
constexpr SimDuration kDrainInterval = simtime::millis(200);
}  // namespace

MonStorageServer::MonStorageServer(rpc::Node& node, MonStorageOptions options)
    : node_(node), options_(options), cache_(options.cache_capacity) {
  node_.serve<MonStoreReq, MonStoreResp>(
      [this](const MonStoreReq& req,
             const rpc::Envelope&) -> sim::Task<Result<MonStoreResp>> {
        MonStoreResp resp;
        if (!options_.cache_enabled) {
          // Ablation mode: synchronous disk write on the request path.
          std::vector<Record> batch = req.batch();
          co_await write_to_disk(std::move(batch));
          resp.accepted = req.batch().size();
          co_return resp;
        }
        for (const auto& r : req.batch()) {
          if (cache_.push(r)) {
            ++resp.accepted;
          } else {
            ++resp.dropped;
            ++dropped_;
          }
        }
        co_return resp;
      });

  node_.serve<MonQueryReq, MonQueryResp>(
      [this](const MonQueryReq& req,
             const rpc::Envelope&) -> sim::Task<Result<MonQueryResp>> {
        MonQueryResp resp;
        if (const TimeSeries* ts = series(req.key)) {
          resp.samples = ts->range(req.from, req.to);
        }
        co_return resp;
      });

  node_.serve<MonListSeriesReq, MonListSeriesResp>(
      [this](const MonListSeriesReq& req,
             const rpc::Envelope&) -> sim::Task<Result<MonListSeriesResp>> {
        MonListSeriesResp resp;
        series_.for_each_sorted([&](const RecordKey& key, const TimeSeries&) {
          if (req.filter_domain && key.domain != req.domain) return;
          resp.keys.push_back(key);
        });
        co_return resp;
      });
}

void MonStorageServer::start() {
  if (running_ || !options_.cache_enabled) return;
  running_ = true;
  node_.cluster().sim().spawn(drain_loop());
}

sim::Task<void> MonStorageServer::drain_loop() {
  auto& sim = node_.cluster().sim();
  while (running_ && node_.up()) {
    co_await sim.delay(kDrainInterval);
    if (!running_ || !node_.up()) break;
    while (!cache_.empty()) {
      std::vector<Record> batch;
      batch.reserve(kDrainBatch);
      while (batch.size() < kDrainBatch && !cache_.empty()) {
        batch.push_back(*cache_.pop());
      }
      co_await write_to_disk(std::move(batch));
    }
  }
}

// bslint: allow(perf-large-byvalue): consumed batch; every caller moves
sim::Task<void> MonStorageServer::write_to_disk(std::vector<Record> batch) {
  const double bytes =
      options_.record_disk_bytes * static_cast<double>(batch.size());
  std::vector<net::Resource*> disk{node_.disk()};
  co_await node_.cluster().flows().transfer(bytes, std::move(disk));
  for (const auto& r : batch) {
    TimeSeries& ts = series_.at(series_.intern(r.key));
    // Out-of-order samples across services: clamp into order.
    const SimTime t =
        ts.empty() ? r.time : std::max(r.time, ts.back().time);
    ts.append(t, r.value);
    ++stored_;
  }
}

const TimeSeries* MonStorageServer::series(const RecordKey& key) const {
  return series_.find(key);
}

std::vector<RecordKey> MonStorageServer::keys() const {
  return series_.sorted_keys();
}

}  // namespace bs::mon
