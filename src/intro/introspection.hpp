// Introspection layer (§III-B layer 1): an actor that receives the
// aggregated record stream pushed by the monitoring services and distills it
// into "relevant information related to the state and the behavior of the
// system, which can be fed as input to various higher-level self-*
// components": per-provider storage state, BLOB access patterns, per-user
// activity history, and whole-system snapshots for the autonomic engine.
#pragma once

#include "common/stats.hpp"
#include "intro/activity.hpp"
#include "mon/messages.hpp"
#include "mon/series_table.hpp"
#include "rpc/rpc.hpp"

namespace bs::intro {

/// Point-in-time digest of the whole system, the "knowledge" input of the
/// MAPE-K loop.
struct SystemSnapshot {
  SimTime time{0};

  struct ProviderInfo {
    NodeId node;
    double used{0};
    double capacity{0};
    double chunks{0};
    double store_rate{0};  ///< bytes/s over the analysis window
    double cpu{0};
    double mem{0};
    SimTime updated{0};
  };
  std::vector<ProviderInfo> providers;

  struct BlobInfo {
    BlobId blob;
    double read_rate{0};   ///< bytes/s
    double write_rate{0};  ///< bytes/s
    double versions{0};    ///< versions published in the window
  };
  std::vector<BlobInfo> blobs;

  double total_used{0};
  double total_capacity{0};
  double aggregate_write_rate{0};  ///< bytes/s across providers
  double aggregate_read_rate{0};
  double avg_cpu{0};
  double max_cpu{0};
  std::size_t active_clients{0};
  double rejected_rate{0};  ///< rejections/s across clients

  /// Provider health tally (from the provider manager's failure tracking);
  /// filled by the autonomic controller when it enriches the snapshot.
  std::size_t providers_alive{0};
  std::size_t providers_suspect{0};
  std::size_t providers_dead{0};

  [[nodiscard]] double utilization() const {
    return total_capacity > 0 ? total_used / total_capacity : 0;
  }
};

class IntrospectionService {
 public:
  explicit IntrospectionService(rpc::Node& node);

  void start();
  void stop() { running_ = false; }

  [[nodiscard]] NodeId id() const { return node_.id(); }
  [[nodiscard]] UserActivityHistory& activity() { return activity_; }
  [[nodiscard]] const UserActivityHistory& activity() const {
    return activity_;
  }

  /// Builds a snapshot over the trailing 10 s analysis window.
  [[nodiscard]] SystemSnapshot snapshot() const;

  /// Raw series access for visualization (provider/blob/node/system data
  /// retained here mirrors what the storage servers persist).
  [[nodiscard]] const TimeSeries* series(const mon::RecordKey& key) const;
  [[nodiscard]] std::vector<mon::RecordKey> keys() const;

  [[nodiscard]] std::uint64_t records_ingested() const { return ingested_; }

 private:
  sim::Task<void> prune_loop();
  void ingest(const mon::Record& record);

  rpc::Node& node_;
  UserActivityHistory activity_;
  // Interned store: hashed O(1) ingest; snapshot()/keys() traverse in
  // sorted key order so aggregation and the viz layer see the order the
  // std::map this replaces used to give them.
  mon::SeriesTable series_;
  bool running_{false};
  std::uint64_t ingested_{0};
};

}  // namespace bs::intro
