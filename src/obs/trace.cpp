#include "obs/trace.hpp"

#include <algorithm>

namespace bs::obs {

#ifndef BS_OBS_DISABLED
namespace detail {
TraceSink* g_sink = nullptr;
}
void set_sink(TraceSink* s) { detail::g_sink = s; }
#endif

void Span::finish(const char* status) {
  if (sink_ == nullptr) return;
  sink_->end_span(id_, status);
  sink_ = nullptr;
}

TraceSink::TraceSink(TraceSinkOptions opts)
    : capacity_(std::max<std::size_t>(1, opts.capacity)) {
  ring_.reserve(capacity_);
}

Span TraceSink::span(const char* name, const char* cat, SpanId parent,
                     TraceArg a, TraceArg b) {
  return Span(this, begin_span(name, cat, parent, a, b));
}

SpanId TraceSink::begin_span(const char* name, const char* cat, SpanId parent,
                             TraceArg a, TraceArg b) {
  const SpanId id = next_id_++;
  const SimTime t = now();
  TraceRecord r;
  r.time = t;
  r.kind = RecordKind::span_begin;
  r.id = id;
  r.parent = parent;
  r.name = name;
  r.cat = cat;
  r.args[0] = a;
  r.args[1] = b;
  push(r);
  open_.emplace(id, OpenSpan{name, cat, parent, t});
  return id;
}

void TraceSink::end_span(SpanId id, const char* status) {
  auto it = open_.find(id);
  if (it == open_.end()) {
    ++stray_ends_;
    return;
  }
  TraceRecord r;
  r.time = now();
  r.kind = RecordKind::span_end;
  r.id = id;
  r.parent = it->second.parent;
  r.name = it->second.name;
  r.cat = it->second.cat;
  r.status = status;
  r.args[0] = TraceArg{"dur_ns", r.time - it->second.begin};
  open_.erase(it);
  push(r);
}

void TraceSink::instant(const char* name, const char* cat, SpanId parent,
                        const char* detail, TraceArg a, TraceArg b) {
  TraceRecord r;
  r.time = now();
  r.kind = RecordKind::instant;
  r.parent = parent;
  r.name = name;
  r.cat = cat;
  r.status = detail;
  r.args[0] = a;
  r.args[1] = b;
  push(r);
}

void TraceSink::push(TraceRecord r) {
  last_time_ = std::max(last_time_, r.time);
  if (ring_.size() < capacity_) {
    ring_.push_back(r);
    return;
  }
  ring_[head_] = r;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void TraceSink::clear() {
  ring_.clear();  // keeps the reservation
  head_ = 0;
  dropped_ = stray_ends_ = 0;
  last_time_ = 0;
  next_id_ = 1;
  open_.clear();
}

}  // namespace bs::obs
