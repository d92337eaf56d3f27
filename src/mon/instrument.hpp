// Instrumentation layer: a per-node event buffer with an asynchronous flush
// loop. emit() is a cheap in-memory append on the instrumented node's fast
// path; batches travel to the node's monitoring service off the critical
// path — which is why the intrusiveness experiment (§IV-B) shows negligible
// overhead.
#pragma once

#include <functional>
#include <vector>

#include "mon/event.hpp"
#include "mon/messages.hpp"
#include "rpc/rpc.hpp"

namespace bs::mon {

struct InstrumentOptions {
  SimDuration flush_interval{simtime::seconds(1)};
  std::size_t buffer_limit{65536}; ///< emits beyond this are dropped
};

class Instrument {
 public:
  using GaugeFn = std::function<double(SimTime now)>;

  Instrument(rpc::Node& node, NodeId monitoring_service,
             InstrumentOptions options = InstrumentOptions());

  /// Appends an event (timestamped now). Constant-time, no I/O.
  void emit(MetricEvent ev);

  /// Registers a periodically sampled gauge (cpu_load, provider_storage...).
  /// `aux_fn` optionally fills the event's aux field (e.g. capacity in MB).
  void add_gauge(MetricKind kind, GaugeFn fn, GaugeFn aux_fn = nullptr);

  /// Starts the flush + gauge loops.
  void start();
  void stop() { running_ = false; }

  [[nodiscard]] std::uint64_t events_emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t events_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t batches_sent() const { return batches_; }
  [[nodiscard]] std::uint64_t send_failures() const { return failures_; }

 private:
  sim::Task<void> flush_loop();
  sim::Task<void> gauge_loop();
  // bslint: allow(perf-large-byvalue): consumed batch; every caller moves
  sim::Task<void> send_batch(std::vector<MetricEvent> batch);

  rpc::Node& node_;
  NodeId service_;
  InstrumentOptions options_;
  std::vector<MetricEvent> buffer_;
  struct Gauge {
    MetricKind kind;
    GaugeFn fn;
    GaugeFn aux_fn;
  };
  std::vector<Gauge> gauges_;
  bool running_{false};
  std::uint64_t emitted_{0};
  std::uint64_t dropped_{0};
  std::uint64_t batches_{0};
  std::uint64_t failures_{0};
};

}  // namespace bs::mon
