// User Activity History — "a container for monitoring data collected through
// monitoring mechanisms specific to each storage system" (§III-C). The
// security framework's detection engine scans it through the rate/total
// query API; it is fed per-interval client-domain records pushed by the
// monitoring services.
#pragma once

#include <map>
#include <vector>

#include "common/timeseries.hpp"
#include "mon/record.hpp"

namespace bs::intro {

/// How long the introspection layer keeps activity and series samples.
inline constexpr SimDuration kRetention = simtime::minutes(10);

class UserActivityHistory {
 public:
  explicit UserActivityHistory(SimDuration retention = kRetention)
      : retention_(retention) {}

  /// Ingests one client-domain record (others are ignored).
  void ingest(const mon::Record& record);

  /// Sum of a per-interval metric over the trailing window.
  [[nodiscard]] double total(ClientId client, mon::Metric metric,
                             SimDuration window, SimTime now) const;

  /// Per-second rate of a metric over the trailing window.
  [[nodiscard]] double rate(ClientId client, mon::Metric metric,
                            SimDuration window, SimTime now) const;

  /// Clients with any activity inside the window.
  [[nodiscard]] std::vector<ClientId> active_clients(SimDuration window,
                                                     SimTime now) const;

  /// Full per-metric series of one client (viz, tests).
  [[nodiscard]] const TimeSeries* series(ClientId client,
                                         mon::Metric metric) const;

  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] std::uint64_t records_ingested() const { return ingested_; }

  /// Drops samples older than the retention horizon.
  void prune(SimTime now);

 private:
  struct PerClient {
    std::map<mon::Metric, TimeSeries> metrics;
    SimTime last_activity{0};
  };

  SimDuration retention_;
  std::map<std::uint64_t, PerClient> clients_;
  std::uint64_t ingested_{0};
};

}  // namespace bs::intro
