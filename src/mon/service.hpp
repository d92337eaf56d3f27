// Monitoring service actor (the MonALISA role): receives raw event batches
// from instrumented nodes, runs them through data filters, and periodically
// pushes the aggregated records to the monitoring storage servers (for
// persistence) and to subscribed sinks (the introspection layer).
#pragma once

#include <memory>
#include <vector>

#include "mon/filters.hpp"
#include "mon/messages.hpp"
#include "rpc/rpc.hpp"

namespace bs::mon {

struct MonitoringServiceOptions {
  SimDuration flush_interval{simtime::seconds(1)};
  std::vector<NodeId> storage_servers;  ///< records partitioned by key hash
  std::vector<NodeId> sinks;            ///< receive every record (push)
};

class MonitoringService {
 public:
  MonitoringService(rpc::Node& node, MonitoringServiceOptions options);

  /// Installs the default filters (first start only) and starts flushing.
  void start();
  void stop() { running_ = false; }

  [[nodiscard]] NodeId id() const { return node_.id(); }
  [[nodiscard]] std::uint64_t events_received() const { return events_; }
  [[nodiscard]] std::uint64_t records_emitted() const { return records_; }

 private:
  sim::Task<void> flush_loop();
  // bslint: allow(perf-large-byvalue): sharded then shared; the one caller moves
  sim::Task<void> dispatch(std::vector<Record> records);

  rpc::Node& node_;
  MonitoringServiceOptions options_;
  std::vector<std::unique_ptr<DataFilter>> filters_;
  bool running_{false};
  std::uint64_t events_{0};
  std::uint64_t records_{0};
};

}  // namespace bs::mon
