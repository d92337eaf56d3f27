#include "mon/instrument.hpp"

#include "obs/metrics.hpp"

namespace bs::mon {

namespace {
constexpr std::size_t kMaxBatch = 512;  ///< events per report message
constexpr SimDuration kGaugeInterval = simtime::seconds(2);
}  // namespace

Instrument::Instrument(rpc::Node& node, NodeId monitoring_service,
                       InstrumentOptions options)
    : node_(node), service_(monitoring_service), options_(options) {}

void Instrument::emit(MetricEvent ev) {
  if (buffer_.size() >= options_.buffer_limit) {
    ++dropped_;
    obs::count("mon.events_dropped");
    return;
  }
  ev.time = node_.cluster().sim().now();
  ev.source = node_.id();
  buffer_.push_back(ev);
  ++emitted_;
  obs::count("mon.events_emitted");
}

void Instrument::add_gauge(MetricKind kind, GaugeFn fn, GaugeFn aux_fn) {
  gauges_.push_back(Gauge{kind, std::move(fn), std::move(aux_fn)});
}

void Instrument::start() {
  if (running_) return;
  running_ = true;
  auto& sim = node_.cluster().sim();
  sim.spawn(flush_loop());
  if (!gauges_.empty()) sim.spawn(gauge_loop());
}

sim::Task<void> Instrument::flush_loop() {
  auto& sim = node_.cluster().sim();
  while (running_ && node_.up()) {
    co_await sim.delay(options_.flush_interval);
    if (!running_ || !node_.up()) break;
    while (!buffer_.empty()) {
      const std::size_t n = std::min(kMaxBatch, buffer_.size());
      std::vector<MetricEvent> batch(buffer_.begin(),
                                     buffer_.begin() +
                                         static_cast<std::ptrdiff_t>(n));
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(n));
      co_await send_batch(std::move(batch));
    }
  }
}

// bslint: allow(perf-large-byvalue): consumed batch; every caller moves
sim::Task<void> Instrument::send_batch(std::vector<MetricEvent> batch) {
  MonReportReq req;
  req.events =
      std::make_shared<const std::vector<MetricEvent>>(std::move(batch));
  auto r = co_await node_.cluster().call<MonReportReq, MonReportResp>(
      node_, service_, std::move(req));
  ++batches_;
  obs::count("mon.batches_sent");
  if (!r.ok()) {
    ++failures_;
    obs::count("mon.batches_failed");
  }
}

sim::Task<void> Instrument::gauge_loop() {
  auto& sim = node_.cluster().sim();
  while (running_ && node_.up()) {
    co_await sim.delay(kGaugeInterval);
    if (!running_ || !node_.up()) break;
    for (const auto& g : gauges_) {
      MetricEvent ev;
      ev.kind = g.kind;
      ev.value = g.fn(sim.now());
      if (g.aux_fn) {
        ev.aux = static_cast<std::uint32_t>(g.aux_fn(sim.now()));
      }
      emit(ev);
    }
  }
}

}  // namespace bs::mon
