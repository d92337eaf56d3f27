// Traced-run plumbing: installs a trace sink and a metrics registry for one
// simulation and folds the span stream into per-layer numbers while the
// run is in progress, so the ring never has to hold the whole run.
//
// Folding reads the ring without clearing it (clear() would reset span ids
// and the open-span table). A poll visits only the records pushed since
// the previous poll; if more were pushed than the ring holds, the excess
// was overwritten unread and is reported as trace.dropped — the traced
// run fails unless that stays 0.
//
// Blob-layer self time: the BlobClient opens a `blob.*` span at each
// public call (append/write/read) and parents every RPC it issues on it.
// An op's self time is its span's duration minus the part of that interval
// covered by its direct `rpc` child spans (rpc.call spans; their attempt
// and serve spans nest inside them).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

class Report;

class Tracer {
 public:
  /// A disabled tracer installs nothing and every call is a no-op.
  Tracer(bool enabled, std::size_t ring_records = std::size_t{1} << 21);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Binds the sink to `sim`'s clock and installs sink + registry.
  void attach(bs::sim::Simulation& sim);
  /// Folds newly pushed records once the ring is a quarter full (cheap to
  /// call after every simulated step).
  void poll() {
    if (enabled_ && pushed() - consumed_ >= sink_.capacity() / 4) fold();
  }
  /// Final fold, then uninstalls the sink and registry (the registry stays
  /// readable). Call before the simulation is destroyed.
  void detach();

  /// Registry counter value (0 when never bumped).
  [[nodiscard]] std::uint64_t counter(const char* name) const;
  /// Quantile of a registry histogram (0 when absent).
  [[nodiscard]] double hist_quantile(const char* name, double q) const;

  /// Adds the trace-derived per-layer metrics (blob.*, trace.dropped)
  /// and the check that no record was lost and no span closed twice.
  void report(Report& rep) const;

 private:
  struct BlobOp {
    bool read{false};
    bs::SimTime begin{0};
    std::uint32_t rpcs{0};
    std::vector<std::pair<bs::SimTime, bs::SimTime>> covered;
  };

  [[nodiscard]] std::uint64_t pushed() const {
    return sink_.dropped() + sink_.size();
  }
  void fold();
  void on_record(const bs::obs::TraceRecord& r);

  bool enabled_;
  bs::obs::TraceSink sink_;
  bs::obs::MetricsRegistry registry_;
  std::optional<bs::obs::ScopedTrace> scoped_trace_;
  std::optional<bs::obs::ScopedMetrics> scoped_metrics_;

  std::uint64_t consumed_{0};
  std::uint64_t lost_{0};  ///< records overwritten before they were folded
  std::unordered_map<bs::obs::SpanId, BlobOp> open_ops_;
  std::unordered_map<bs::obs::SpanId, bs::obs::SpanId> rpc_parent_;
  std::vector<double> write_self_ms_;
  std::vector<double> read_self_ms_;
  std::uint64_t blob_ops_{0};
  std::uint64_t blob_rpcs_{0};
};

/// The sim/rpc/net/blob/trace per-layer metrics every RPC workload shares:
/// cluster accessors, registry counters and histograms, and the blob fold.
/// Expects rep.events to be set.
void report_rpc_layer(Report& rep, const Tracer& tr, bs::rpc::Cluster& cl);

}  // namespace perfbench
