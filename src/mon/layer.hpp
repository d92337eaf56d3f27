// MonitoringLayer: deploys the full monitoring substrate over a BlobSeer
// deployment — monitoring services, storage servers, and one Instrument per
// BlobSeer actor (wired into the actors' observer hooks) — and exposes the
// query interface the introspection layer and visualization tool consume.
#pragma once

#include <memory>
#include <optional>
#include <map>

#include "blob/deployment.hpp"
#include "common/rng.hpp"
#include "mon/instrument.hpp"
#include "mon/service.hpp"
#include "mon/storage.hpp"

namespace bs::mon {

struct MonitoringConfig {
  std::size_t services{2};
  std::size_t storage_servers{2};
  InstrumentOptions instrument{};
  SimDuration service_flush_interval{simtime::seconds(1)};
  std::vector<NodeId> sinks;  ///< push targets (introspection layer)
};

class MonitoringLayer {
 public:
  MonitoringLayer(blob::Deployment& deployment,
                  MonitoringConfig config = MonitoringConfig());

  /// Starts instruments, services and storage drains.
  void start();

  /// Instruments one client (call for every client the experiment adds).
  void attach_client(blob::BlobClient& client);

  /// Instruments a data provider added after construction (the elasticity
  /// engine's provider_added hook should call this).
  void attach_provider(blob::DataProvider& provider);

  [[nodiscard]] Instrument* instrument_for(NodeId node);

  /// Same-process query: find the storage server owning `key`.
  [[nodiscard]] const TimeSeries* query(const RecordKey& key) const;
  [[nodiscard]] std::vector<RecordKey> all_keys() const;

  [[nodiscard]] std::vector<std::unique_ptr<MonitoringService>>& services() {
    return services_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<MonStorageServer>>& storage() {
    return storage_;
  }

  /// Aggregate intrusiveness counters (experiment E-B).
  [[nodiscard]] std::uint64_t total_events() const;
  [[nodiscard]] std::uint64_t total_records() const;
  [[nodiscard]] std::uint64_t total_dropped() const;
  [[nodiscard]] std::size_t distinct_series() const;

 private:
  Instrument& make_instrument(rpc::Node& node);
  NodeId service_for(NodeId node) const;
  void attach_node_gauges(rpc::Node& node, Instrument& inst);
  static std::optional<MetricEvent> event_from_request(
      const rpc::RequestInfo& info);

  blob::Deployment& dep_;
  MonitoringConfig config_;
  Rng rng_{0x4D04E};
  std::vector<std::unique_ptr<MonitoringService>> services_;
  std::vector<std::unique_ptr<MonStorageServer>> storage_;
  // std::map: start() walks this to kick off per-instrument publish loops,
  // so iteration order shapes the event schedule — keep it deterministic.
  std::map<std::uint64_t, std::unique_ptr<Instrument>> instruments_;
  bool started_{false};
};

}  // namespace bs::mon
