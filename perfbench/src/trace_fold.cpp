#include "trace_fold.hpp"

#include <algorithm>
#include <string_view>

#include "report.hpp"

namespace perfbench {

using bs::SimTime;
using bs::obs::RecordKind;

Tracer::Tracer(bool enabled, std::size_t ring_records)
    : enabled_(enabled),
      sink_(bs::obs::TraceSinkOptions{enabled ? ring_records : 1}) {}

Tracer::~Tracer() = default;

void Tracer::attach(bs::sim::Simulation& sim) {
  if (!enabled_) return;
  sink_.set_clock([&sim] { return sim.now(); });
  scoped_trace_.emplace(sink_);
  scoped_metrics_.emplace(registry_);
}

void Tracer::detach() {
  if (!enabled_) return;
  fold();
  scoped_trace_.reset();
  scoped_metrics_.reset();
  sink_.set_clock({});
}

std::uint64_t Tracer::counter(const char* name) const {
  const auto* c = registry_.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

double Tracer::hist_quantile(const char* name, double q) const {
  const auto* h = registry_.find_histogram(name);
  return h != nullptr ? h->quantile(q) : 0.0;
}

void report_rpc_layer(Report& rep, const Tracer& tr, bs::rpc::Cluster& cl) {
  const auto count = [&rep](const char* name, std::uint64_t v) {
    rep.layer(name, static_cast<double>(v), "count");
  };
  count("sim.events", rep.events);
  count("rpc.calls_started", cl.calls_started());
  rep.layer("rpc.events_per_call",
            cl.calls_started() > 0
                ? static_cast<double>(rep.events) /
                      static_cast<double>(cl.calls_started())
                : 0.0,
            "ratio");
  count("rpc.calls_timed_out", cl.calls_timed_out());
  count("rpc.calls_retried", cl.calls_retried());
  count("rpc.requests_served", tr.counter("rpc.requests_served"));
  count("rpc.admission_rejects", tr.counter("rpc.admission_rejects"));
  rep.layer("rpc.queue_wait_ms_p50", tr.hist_quantile("rpc.queue_wait_ms", 0.5),
            "ms");
  rep.layer("rpc.queue_wait_ms_p99",
            tr.hist_quantile("rpc.queue_wait_ms", 0.99), "ms");
  rep.layer("rpc.service_ms_p50", tr.hist_quantile("rpc.service_ms", 0.5),
            "ms");
  count("net.flows_completed", cl.flows().completed_flows());
  tr.report(rep);
}

void Tracer::fold() {
  const std::uint64_t total = pushed();
  const std::uint64_t fresh = total - consumed_;
  const std::uint64_t held = sink_.size();
  if (fresh > held) lost_ += fresh - held;
  const std::uint64_t skip = fresh >= held ? 0 : held - fresh;
  std::uint64_t i = 0;
  sink_.for_each([&](const bs::obs::TraceRecord& r) {
    if (i++ >= skip) on_record(r);
  });
  consumed_ = total;
}

void Tracer::on_record(const bs::obs::TraceRecord& r) {
  const std::string_view cat(r.cat);
  if (r.kind == RecordKind::span_begin) {
    if (cat == "blob") {
      const std::string_view name(r.name);
      if (name == "blob.append" || name == "blob.write" ||
          name == "blob.read") {
        open_ops_.emplace(r.id, BlobOp{name == "blob.read", r.time, 0, {}});
      }
    } else if (cat == "rpc" && std::string_view(r.name) != "rpc.attempt") {
      if (auto it = open_ops_.find(r.parent); it != open_ops_.end()) {
        rpc_parent_.emplace(r.id, r.parent);
        ++it->second.rpcs;
      }
    }
    return;
  }
  if (r.kind != RecordKind::span_end) return;
  if (auto it = rpc_parent_.find(r.id); it != rpc_parent_.end()) {
    if (auto op = open_ops_.find(it->second); op != open_ops_.end()) {
      op->second.covered.emplace_back(r.time - r.args[0].value, r.time);
    }
    rpc_parent_.erase(it);
    return;
  }
  auto op = open_ops_.find(r.id);
  if (op == open_ops_.end()) return;
  BlobOp& o = op->second;
  // Self time = duration minus the union of the child RPC intervals.
  std::sort(o.covered.begin(), o.covered.end());
  SimTime covered = 0;
  SimTime reach = o.begin;
  for (auto [lo, hi] : o.covered) {
    lo = std::max(lo, reach);
    hi = std::min(hi, r.time);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  const double self_ms = bs::simtime::to_millis(r.time - o.begin - covered);
  (o.read ? read_self_ms_ : write_self_ms_).push_back(self_ms);
  ++blob_ops_;
  blob_rpcs_ += o.rpcs;
  open_ops_.erase(op);
}

void Tracer::report(Report& rep) const {
  // A blob metric is reported only when the workload issued such ops.
  if (!write_self_ms_.empty()) {
    std::vector<double> w = write_self_ms_;
    rep.layer("blob.write_self_ms_p50", quantile(w, 0.5), "ms");
  }
  if (!read_self_ms_.empty()) {
    std::vector<double> rd = read_self_ms_;
    rep.layer("blob.read_self_ms_p50", quantile(rd, 0.5), "ms");
  }
  if (blob_ops_ > 0) {
    rep.layer("blob.rpcs_per_op",
              static_cast<double>(blob_rpcs_) / static_cast<double>(blob_ops_),
              "ratio");
  }
  rep.layer("trace.dropped", static_cast<double>(lost_), "count");
  // Span ends that matched no open span (double or unknown closes).
  const std::uint64_t stray = sink_.stray_ends();
  rep.check("trace.complete", lost_ == 0 && stray == 0,
            std::to_string(lost_) + " records lost, " +
                std::to_string(stray) + " stray span ends");
}

}  // namespace perfbench
