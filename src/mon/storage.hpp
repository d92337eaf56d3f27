// Monitoring storage server: persists aggregated records as per-series time
// series. Incoming bursts land in a bounded in-memory cache that a
// write-behind drain empties to the (simulated) disk — the caching mechanism
// the paper added "so as to enable them to cope with bursts of monitoring
// data generated when the system is under heavy load" (§III-B). When the
// cache is full, records are dropped and counted.
#pragma once

#include "common/ring_buffer.hpp"
#include "common/timeseries.hpp"
#include "mon/messages.hpp"
#include "mon/series_table.hpp"
#include "rpc/rpc.hpp"

namespace bs::mon {

struct MonStorageOptions {
  std::size_t cache_capacity{8192};  ///< records buffered ahead of the disk
  double record_disk_bytes{64};      ///< on-disk footprint per record
  bool cache_enabled{true};          ///< ablation: false = synchronous disk
};

class MonStorageServer {
 public:
  MonStorageServer(rpc::Node& node,
                   MonStorageOptions options = MonStorageOptions());

  void start();
  void stop() { running_ = false; }

  [[nodiscard]] NodeId id() const { return node_.id(); }

  /// Same-process query access (tests, viz, introspection co-location).
  [[nodiscard]] const TimeSeries* series(const RecordKey& key) const;
  [[nodiscard]] std::vector<RecordKey> keys() const;

  [[nodiscard]] std::uint64_t records_stored() const { return stored_; }
  [[nodiscard]] std::uint64_t records_dropped() const { return dropped_; }
  [[nodiscard]] std::size_t cache_depth() const { return cache_.size(); }

 private:
  sim::Task<void> drain_loop();
  // bslint: allow(perf-large-byvalue): consumed batch; every caller moves
  sim::Task<void> write_to_disk(std::vector<Record> batch);

  rpc::Node& node_;
  MonStorageOptions options_;
  RingBuffer<Record> cache_;
  // Interned store: hashed O(1) appends; the MonListSeries RPC and keys()
  // go through the table's sorted traversal so the wire order is unchanged.
  SeriesTable series_;
  bool running_{false};
  std::uint64_t stored_{0};
  std::uint64_t dropped_{0};
};

}  // namespace bs::mon
