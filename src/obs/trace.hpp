// Deterministic observability plane, part 1: structured tracing keyed to
// *simulated* time. A TraceSink ring-buffers span begin/end and instant
// records; spans are RAII handles whose ids flow through RPC envelopes so a
// client write shows its nested provider / metadata / version-manager
// activity. Everything is derived from the simulation clock and seeded
// state — two runs of the same seed produce bit-identical traces, which is
// what lets tests pin golden trace digests.
//
// Instrumented code guards every record behind `if (auto* s = obs::sink())`
// where sink() is a single global-pointer load (and a compile-time nullptr
// when built with BS_TRACE=OFF), so the disabled plane costs one predicted
// branch per site. Record name/category/status strings MUST be string
// literals (static storage duration): records store the pointers only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/teardown.hpp"
#include "common/types.hpp"

namespace bs::obs {

/// Span identity; 0 means "no span" (used as a root parent).
using SpanId = std::uint64_t;

enum class RecordKind : std::uint8_t { span_begin, span_end, instant };

/// Small named integer attached to a record (attempt index, byte count...).
/// A null key means "absent".
struct TraceArg {
  const char* key{nullptr};
  std::int64_t value{0};
};

struct TraceRecord {
  SimTime time{0};
  RecordKind kind{RecordKind::instant};
  SpanId id{0};      ///< span id (begin/end); 0 for instants
  SpanId parent{0};  ///< enclosing span, 0 for roots
  const char* name{""};
  const char* cat{""};
  const char* status{""};  ///< span_end outcome / instant detail
  TraceArg args[2]{};
};

class TraceSink;

/// Move-only RAII span handle. A span that is destroyed without an explicit
/// end() is closed with status "aborted" — crash-interrupted spans are
/// marked, never leaked open.
class Span {
 public:
  Span() = default;
  Span(TraceSink* sink, SpanId id) : sink_(sink), id_(id) {}
  Span(Span&& o) noexcept : sink_(o.sink_), id_(o.id_) { o.sink_ = nullptr; }
  Span& operator=(Span&& o) noexcept {
    if (this != &o) {
      finish("aborted");
      sink_ = o.sink_;
      id_ = o.id_;
      o.sink_ = nullptr;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  // Teardown guard: a span held by a frame destroyed in ~Simulation points
  // at a sink the owner already destroyed; the abort record is unwritable.
  ~Span() {
    if (!in_frame_teardown()) finish("aborted");
  }

  /// Closes the span with `status` (a string literal, e.g. errc_name()).
  void end(const char* status = "ok") { finish(status); }

  /// Id to hand to children (0 when tracing is off / span inactive).
  [[nodiscard]] SpanId id() const { return sink_ != nullptr ? id_ : 0; }
  [[nodiscard]] bool active() const { return sink_ != nullptr; }

 private:
  void finish(const char* status);

  TraceSink* sink_{nullptr};
  SpanId id_{0};
};

struct TraceSinkOptions {
  /// Ring capacity in records; the oldest records are overwritten once the
  /// ring is full (`dropped()` counts overwrites).
  std::size_t capacity{1u << 20};
};

class TraceSink {
 public:
  explicit TraceSink(TraceSinkOptions opts = {});

  /// Installs the (simulated) clock used to stamp records. Without a clock
  /// every record is stamped 0.
  void set_clock(std::function<SimTime()> clock) { clock_ = std::move(clock); }
  [[nodiscard]] SimTime now() const { return clock_ ? clock_() : 0; }

  /// Opens a span and returns the RAII handle.
  Span span(const char* name, const char* cat, SpanId parent = 0,
            TraceArg a = {}, TraceArg b = {});

  SpanId begin_span(const char* name, const char* cat, SpanId parent = 0,
                    TraceArg a = {}, TraceArg b = {});
  /// Closes an open span; unknown / already-closed ids are counted in
  /// stray_ends() and otherwise ignored, so double closes are harmless.
  void end_span(SpanId id, const char* status = "ok");

  void instant(const char* name, const char* cat, SpanId parent = 0,
               const char* detail = "", TraceArg a = {}, TraceArg b = {});

  /// Visits records oldest-first.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      fn(ring_[(head_ + i) % ring_.size()]);
    }
  }

  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t stray_ends() const { return stray_ends_; }
  [[nodiscard]] std::size_t open_spans() const { return open_.size(); }
  [[nodiscard]] SimTime last_time() const { return last_time_; }

  struct OpenSpan {
    const char* name{""};
    const char* cat{""};
    SpanId parent{0};
    SimTime begin{0};
  };
  [[nodiscard]] const std::unordered_map<SpanId, OpenSpan>& open() const {
    return open_;
  }

  void clear();

 private:
  void push(TraceRecord r);

  std::function<SimTime()> clock_;
  /// Reserved to capacity_, and each record constructed when it is first
  /// written: a run that writes fewer records never touches the rest of
  /// the reservation. Until it is full the ring is in write order and
  /// head_ is 0; afterwards head_ is the oldest record.
  std::vector<TraceRecord> ring_;
  std::size_t capacity_;
  std::size_t head_{0};
  SpanId next_id_{1};
  std::uint64_t dropped_{0};
  std::uint64_t stray_ends_{0};
  SimTime last_time_{0};
  std::unordered_map<SpanId, OpenSpan> open_;
};

// ---------------------------------------------------------------- global hook
//
// The process-wide sink the instrumentation hooks consult. With
// BS_TRACE=OFF (BS_OBS_DISABLED) sink() is a compile-time nullptr and every
// instrumentation block folds away; otherwise it is one pointer load.

#ifdef BS_OBS_DISABLED
inline constexpr bool kEnabled = false;
constexpr TraceSink* sink() { return nullptr; }
inline void set_sink(TraceSink*) {}
#else
inline constexpr bool kEnabled = true;
namespace detail {
extern TraceSink* g_sink;
}
inline TraceSink* sink() { return detail::g_sink; }
void set_sink(TraceSink* s);
#endif

/// RAII installer for the global sink (tests, examples, benches).
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceSink& s) { set_sink(&s); }
  ~ScopedTrace() { set_sink(nullptr); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
};

}  // namespace bs::obs
