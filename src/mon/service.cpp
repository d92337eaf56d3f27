#include "mon/service.hpp"

namespace bs::mon {

MonitoringService::MonitoringService(rpc::Node& node,
                                     MonitoringServiceOptions options)
    : node_(node), options_(std::move(options)) {
  node_.serve<MonReportReq, MonReportResp>(
      [this](const MonReportReq& req,
             const rpc::Envelope&) -> sim::Task<Result<MonReportResp>> {
        events_ += req.batch().size();
        for (const auto& ev : req.batch()) {
          for (auto& f : filters_) f->ingest(ev);
        }
        co_return MonReportResp{};
      });
}

void MonitoringService::start() {
  if (running_) return;
  running_ = true;
  if (filters_.empty()) filters_ = default_filters();
  node_.cluster().sim().spawn(flush_loop());
}

sim::Task<void> MonitoringService::flush_loop() {
  auto& sim = node_.cluster().sim();
  while (running_ && node_.up()) {
    co_await sim.delay(options_.flush_interval);
    if (!running_ || !node_.up()) break;
    std::vector<Record> records;
    for (auto& f : filters_) f->flush(sim.now(), records);
    records_ += records.size();
    if (!records.empty()) co_await dispatch(std::move(records));
  }
}

// bslint: allow(perf-large-byvalue): sharded then shared; the one caller moves
sim::Task<void> MonitoringService::dispatch(std::vector<Record> records) {
  auto& cluster = node_.cluster();
  // Partition across storage servers by series key.
  if (!options_.storage_servers.empty()) {
    const std::size_t n = options_.storage_servers.size();
    std::vector<std::vector<Record>> shards(n);
    for (const auto& r : records) {
      shards[r.key.hash() % n].push_back(r);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (shards[i].empty()) continue;
      MonStoreReq req;
      req.records = std::make_shared<const std::vector<Record>>(
          std::move(shards[i]));
      (void)co_await cluster.call<MonStoreReq, MonStoreResp>(
          node_, options_.storage_servers[i], std::move(req));
    }
  }
  // Full stream to every sink (introspection layer): one immutable batch
  // shared across the whole fan-out, so each extra sink costs a pointer
  // bump instead of a vector copy.
  if (!options_.sinks.empty()) {
    auto shared =
        std::make_shared<const std::vector<Record>>(std::move(records));
    for (NodeId sink : options_.sinks) {
      MonStoreReq req;
      req.records = shared;
      (void)co_await cluster.call<MonStoreReq, MonStoreResp>(node_, sink,
                                                             std::move(req));
    }
  }
}

}  // namespace bs::mon
