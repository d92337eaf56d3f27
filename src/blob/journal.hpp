// LMDB-style persistent store *model* for the stateful actors (data
// providers, metadata providers, version manager, S3 gateway, replication
// egress): a write-ahead journal of versioned records plus periodic
// checkpoints, following the nano-node version_store idiom. Nothing is
// serialized to a real file — the journal tracks which records would be on
// disk (the durable prefix) and what replaying them would cost, so crash
// recovery has a measurable time-to-readable instead of being free:
//
//   append()  — write a record to the volatile tail (in the page cache);
//   seal()    — an fsync barrier: everything appended up to a sequence
//               number becomes durable (group commit — one fsync covers its
//               own record and every earlier append);
//   crash()   — drop the volatile tail (or everything, on store loss) and
//               optionally model a torn last record (power loss mid-write);
//   replay()  — visit checkpoint + durable tail in order to rebuild state,
//               after paying the ReplayPlan's disk cost.
//
// Durable<Record> wraps a Journal with the protocol every journaled actor
// shares: the crash -> replay -> readable path, the commit barriers and the
// checkpoint policy. Actors supply only their record hooks.
//
// The disk cost rides the FlowScheduler through the node's disk resource,
// so fault-plane disk slowdowns stretch recovery exactly like they stretch
// regular I/O.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "rpc/rpc.hpp"

namespace bs::blob {

/// Cost model of the simulated persistent store's disk behaviour. Byte
/// costs (checkpoint scan, journal tail, torn-tail scan) go through the
/// node's FlowScheduler disk resource; per-record apply cost and fixed
/// latencies are pure delays.
struct DiskModel {
  double replay_iops{50000.0};  ///< records applied per second during replay
  SimDuration fsync_latency{simtime::micros(500)};  ///< per fsync barrier
  SimDuration mount_latency{simtime::millis(20)};   ///< open + manifest scan
};

struct JournalOptions {
  bool enabled{false};
  /// A checkpoint is taken once the fully-durable tail exceeds either
  /// bound, truncating the journal (warm restarts replay a short tail).
  std::uint64_t checkpoint_bytes{256ull * units::MB};
  std::uint64_t checkpoint_records{4096};
  DiskModel disk{};
};

/// What the pending recovery has to read and apply.
struct ReplayPlan {
  std::uint64_t checkpoint_bytes{0};
  std::uint64_t checkpoint_records{0};
  std::uint64_t tail_bytes{0};
  std::uint64_t tail_records{0};
  std::uint64_t torn_bytes{0};  ///< partial last record, scanned + truncated

  [[nodiscard]] std::uint64_t total_bytes() const {
    return checkpoint_bytes + tail_bytes + torn_bytes;
  }
  [[nodiscard]] std::uint64_t total_records() const {
    return checkpoint_records + tail_records;
  }
};

/// Per-service recovery bookkeeping (exported by bench_recovery).
struct RecoveryStats {
  std::uint64_t recoveries{0};
  std::uint64_t cold_starts{0};  ///< store was lost; nothing to replay
  std::uint64_t replay_bytes{0};
  std::uint64_t replay_records{0};
  std::uint64_t torn_tails_truncated{0};
  SimDuration last_time_to_readable{0};
  SimDuration total_time_to_readable{0};
};

/// What a finished recovery had to clean up (Journal::finish_recovery).
struct RecoveryOutcome {
  std::uint64_t torn_bytes{0};
  bool wiped{false};
};

/// The store model itself, generic over the service's record type. Not a
/// byte-accurate format: each record carries the byte size it would occupy
/// on disk, which is what the cost model consumes.
template <class Record>
class Journal {
 public:
  struct Entry {
    Record rec{};
    std::uint64_t bytes{0};
  };

  explicit Journal(JournalOptions opts) : opts_(opts) {}

  [[nodiscard]] bool enabled() const { return opts_.enabled; }
  [[nodiscard]] const JournalOptions& options() const { return opts_; }

  /// Appends to the volatile tail; the record is durable only once a
  /// seal() covers the returned sequence number.
  std::uint64_t append(Record rec, std::uint64_t bytes) {
    tail_.push_back(Entry{std::move(rec), bytes});
    tail_bytes_ += bytes;
    return ++next_seq_;
  }

  /// fsync barrier: every record with sequence <= seq becomes durable.
  /// Call only after the fsync cost has been paid *and* the node survived
  /// it (journal_fsync returns true) — sealing first would make records
  /// durable for free.
  void seal(std::uint64_t seq) {
    if (seq <= base_seq_) return;  // predates the last checkpoint/wipe
    const std::uint64_t upto = seq - base_seq_;
    durable_ = std::max(durable_, std::min<std::uint64_t>(upto, tail_.size()));
  }

  /// Sequence number of the newest append (seal(tail_seq()) after an fsync
  /// covers the whole tail as it stood when the fsync started).
  [[nodiscard]] std::uint64_t tail_seq() const { return next_seq_; }

  /// Crash semantics. `lose_storage` wipes checkpoint and journal (cold,
  /// empty store); otherwise the volatile tail is dropped and, with
  /// `torn_tail`, the first un-sealed record is modelled as torn — half its
  /// bytes linger on disk and must be scanned and truncated at recovery.
  void crash(bool lose_storage, bool torn_tail) {
    if (lose_storage) {
      checkpoint_.clear();
      checkpoint_bytes_ = 0;
      tail_.clear();
      tail_bytes_ = 0;
      durable_ = 0;
      base_seq_ = next_seq_;
      torn_bytes_ = 0;
      wiped_ = true;
      return;
    }
    if (torn_tail && tail_.size() > durable_) {
      torn_bytes_ = (tail_[durable_].bytes + 1) / 2;
    }
    tail_bytes_ -= volatile_bytes();
    tail_.resize(durable_);
  }

  [[nodiscard]] ReplayPlan replay_plan() const {
    ReplayPlan p;
    p.checkpoint_bytes = checkpoint_bytes_;
    p.checkpoint_records = checkpoint_.size();
    p.tail_bytes = tail_bytes_;
    p.tail_records = tail_.size();
    p.torn_bytes = torn_bytes_;
    return p;
  }

  /// Visits checkpoint records, then the durable tail, in append order.
  template <class Fn>
  void replay(Fn&& fn) const {
    for (const Entry& e : checkpoint_) fn(e.rec);
    for (const Entry& e : tail_) fn(e.rec);
  }

  /// Closes out a recovery: truncates the torn tail and clears the wipe
  /// marker. Returns what the recovery had to clean up.
  RecoveryOutcome finish_recovery() {
    RecoveryOutcome out{torn_bytes_, wiped_};
    torn_bytes_ = 0;
    wiped_ = false;
    return out;
  }

  /// True once the fully-durable tail has outgrown the checkpoint policy.
  [[nodiscard]] bool checkpoint_due() const {
    if (!opts_.enabled || durable_ != tail_.size() || tail_.empty()) {
      return false;
    }
    return tail_bytes_ >= opts_.checkpoint_bytes ||
           tail_.size() >= opts_.checkpoint_records;
  }

  /// Replaces the checkpoint image and truncates the journal. Only legal at
  /// a commit boundary (no volatile tail — those records would be lost);
  /// returns false and does nothing otherwise.
  bool install_checkpoint(std::vector<Entry> image) {
    if (durable_ != tail_.size()) return false;
    checkpoint_ = std::move(image);
    checkpoint_bytes_ = 0;
    for (const Entry& e : checkpoint_) checkpoint_bytes_ += e.bytes;
    tail_.clear();
    tail_bytes_ = 0;
    durable_ = 0;
    base_seq_ = next_seq_;
    return true;
  }

  /// Installs `encode(previous, tail)` as the new checkpoint image: the
  /// encoder gets the current image, moved out so it can fold the durable
  /// tail into that buffer in place, and the tail. Same commit-boundary
  /// rule as install_checkpoint(); `encode` does not run when it refuses.
  template <class Encode>
  bool checkpoint(Encode&& encode) {
    if (durable_ != tail_.size()) return false;
    return install_checkpoint(encode(std::move(checkpoint_), tail_));
  }

  [[nodiscard]] std::size_t checkpoint_records() const {
    return checkpoint_.size();
  }
  [[nodiscard]] std::uint64_t checkpoint_bytes() const {
    return checkpoint_bytes_;
  }
  [[nodiscard]] std::size_t tail_records() const { return tail_.size(); }
  [[nodiscard]] std::size_t durable_records() const {
    return static_cast<std::size_t>(durable_);
  }
  /// Bytes appended but not yet sealed: what one fsync covering the whole
  /// volatile tail has to write.
  [[nodiscard]] std::uint64_t volatile_bytes() const {
    std::uint64_t bytes = 0;
    for (std::size_t i = durable_; i < tail_.size(); ++i) {
      bytes += tail_[i].bytes;
    }
    return bytes;
  }
  [[nodiscard]] std::uint64_t torn_bytes() const { return torn_bytes_; }
  [[nodiscard]] bool wiped() const { return wiped_; }

 private:
  JournalOptions opts_;
  std::vector<Entry> checkpoint_;
  std::uint64_t checkpoint_bytes_{0};
  std::vector<Entry> tail_;
  std::uint64_t tail_bytes_{0};  ///< sum of the tail's record bytes
  std::uint64_t durable_{0};     ///< durable prefix length of tail_
  std::uint64_t base_seq_{0};    ///< sequence just before tail_[0]
  std::uint64_t next_seq_{0};    ///< sequence of the newest append
  std::uint64_t torn_bytes_{0};
  bool wiped_{false};
};

/// Pays the fsync cost for `bytes` of journal on `node`'s disk. Returns
/// true iff the node stayed up (same incarnation) for the whole barrier —
/// the caller seals only then; on false its record stays volatile and the
/// crash has already dropped it.
// bslint: allow(coro-ref-param): the node is cluster-owned for the whole
// simulation; crash safety is handled by incarnation pinning, not lifetime
sim::Task<bool> journal_fsync(rpc::Node& node, DiskModel disk,
                              std::uint64_t bytes);

/// Pays the recovery replay cost (mount + checkpoint/tail/torn bytes at
/// disk bandwidth + per-record apply IOPS). Returns false if the node
/// crashed again mid-replay — the next restart starts recovery over.
// bslint: allow(coro-ref-param): node is cluster-owned; see journal_fsync
sim::Task<bool> journal_replay_cost(rpc::Node& node, DiskModel disk,
                                    ReplayPlan plan);

/// Charges a background write of `bytes` against the node's disk
/// (detached flow: the service keeps serving while it drains) — checkpoint
/// images and spilled custody.
void charge_disk_write(rpc::Node& node, std::uint64_t bytes);

/// Opens the `recovery.replay` span of one replay attempt (0 untraced).
obs::SpanId begin_replay_span(NodeId node, const ReplayPlan& plan);

/// Books one completed replay: RecoveryStats, the `recovery.*` counters,
/// the time-to-readable histogram, the span (closed "ok") and a log line.
void note_readable(rpc::Node& node, const ReplayPlan& plan,
                   const RecoveryOutcome& outcome, SimTime started,
                   obs::SpanId span, RecoveryStats& stats);

/// One journaled actor's store plus the protocol every such actor shares:
/// the `recovering` gate, RecoveryStats, the journaled crash/restart path,
/// the replay (recover), the commit barriers and the checkpoint policy.
/// Hook contract — the actor passes itself and its gate message (a string
/// literal: the `unavailable` text a request gets during a replay) to the
/// constructor, registers every handler through serve(), befriends
/// Durable<Record> and defines, as named member functions:
///
///   std::uint64_t record_bytes(const Record&)  (may be static)
///       on-disk size of one record; commits size each record once;
///   void apply_record(const Record&)
///       replays one record into the in-memory image;
///   std::vector<Entry> encode_checkpoint(std::vector<Entry> previous,
///                                        const std::vector<Entry>& tail)
///       const
///       the new checkpoint image (Entry is Journal<Record>::Entry) as a
///       deterministic record sequence: `previous`, the last image moved
///       in, with the fully durable `tail` folded in. The metadata
///       provider folds `tail` into `previous` in place; the other four
///       actors ignore `tail` and re-encode their live state, which at a
///       commit boundary is the same image, into `previous` cleared, so
///       the new image reuses the old one's buffer;
///   void wipe()
///       drops the in-memory image (a journaled crash loses it);
///   void on_readable(const RecoveryOutcome&)
///       reopens the actor after a completed replay; runs after the stats,
///       counters, histogram, span and log line are booked.
///
/// With the journal off every commit succeeds at once and crash() /
/// restart() return false without doing anything: what a journal-off crash
/// or restart means is each actor's own behaviour.
template <class Record>
class Durable {
 public:
  using Entry = typename Journal<Record>::Entry;

  template <class Actor>
  Durable(rpc::Node& node, JournalOptions opts, Actor& actor,
          const char* gate_message)
      : node_(node),
        journal_(opts),
        gate_message_(gate_message),
        record_bytes_(
            [a = &actor](const Record& r) { return a->record_bytes(r); }),
        apply_record_([a = &actor](const Record& r) { a->apply_record(r); }),
        encode_checkpoint_(
            [a = &actor](std::vector<Entry> previous,
                         const std::vector<Entry>& tail) {
              return a->encode_checkpoint(std::move(previous), tail);
            }),
        wipe_([a = &actor] { a->wipe(); }),
        on_readable_(
            [a = &actor](const RecoveryOutcome& o) { a->on_readable(o); }) {}
  Durable(const Durable&) = delete;
  Durable& operator=(const Durable&) = delete;

  /// True between a journaled crash and the end of the next completed
  /// replay; serve() answers `unavailable` meanwhile.
  [[nodiscard]] bool recovering() const { return recovering_; }
  [[nodiscard]] const RecoveryStats& stats() const { return stats_; }

  /// Registers `handler` for Req on the node behind the recovery gate:
  /// while recovering() a request is answered `unavailable` with the gate
  /// message and the handler never runs. The check runs where a handler's
  /// first statement would (after admission, the service queue and the
  /// per-request overhead), so gating moves no event. The wrapper is not a
  /// coroutine: an ungated request runs the handler's own task, and only a
  /// gated one pays for a (tiny) coroutine frame.
  template <class Req, class Resp, class F>
  void serve(F handler) {
    node_.serve<Req, Resp>(
        [this, handler = std::move(handler)](const Req& req,
                                             const rpc::Envelope& env)
            -> sim::Task<Result<Resp>> {
          if (recovering_) return gated<Resp>(gate_message_);
          return handler(req, env);
        });
  }

  /// Journaled crash, for the node's crash listener: the in-memory image
  /// dies with the process, the journal keeps its durable prefix (torn or
  /// wiped as `c` says) and requests are gated until the replay ends.
  bool crash(const rpc::CrashOptions& c) {
    if (!journal_.enabled()) return false;
    wipe_();
    journal_.crash(c.lose_storage, c.torn_tail);
    recovering_ = true;
    return true;
  }

  /// Journaled restart, for the node's restart listener: starts the replay.
  bool restart() {
    if (!journal_.enabled()) return false;
    node_.cluster().sim().spawn(recover(node_.incarnation()));
    return true;
  }

  /// Appends to the volatile tail without a barrier: synchronous code
  /// paths journal this way and the next commit's fsync seals the record.
  void append(Record rec) {
    if (!journal_.enabled()) return;
    const std::uint64_t bytes = record_bytes_(rec);
    journal_.append(std::move(rec), bytes);
  }

  /// Commit barrier for one record: append, fsync its bytes, seal, maybe
  /// checkpoint. `unavailable` ("crashed before commit") when the node
  /// crashed before the barrier: the record never became durable and the
  /// handler must not ack it.
  sim::Task<Result<void>> commit(Record rec) {
    if (!journal_.enabled()) co_return ok_result();
    const std::uint64_t bytes = record_bytes_(rec);
    const std::uint64_t seq = journal_.append(std::move(rec), bytes);
    co_return co_await seal_after_fsync(seq, bytes);
  }

  /// One barrier for a batch, appended in order: one fsync covers the sum
  /// of the records' sizes. An empty batch commits nothing.
  // bslint: allow(perf-large-byvalue): every caller moves its batch in
  sim::Task<Result<void>> commit(std::vector<Record> recs) {
    if (!journal_.enabled() || recs.empty()) co_return ok_result();
    std::uint64_t bytes = 0;
    for (Record& rec : recs) {
      const std::uint64_t b = record_bytes_(rec);
      bytes += b;
      journal_.append(std::move(rec), b);
    }
    co_return co_await seal_after_fsync(journal_.tail_seq(), bytes);
  }

  /// Group-commit barrier over whatever is volatile now (records append()ed
  /// by synchronous paths and not yet covered by another barrier).
  sim::Task<Result<void>> commit_tail() {
    if (!journal_.enabled()) co_return ok_result();
    co_return co_await seal_after_fsync(journal_.tail_seq(),
                                        journal_.volatile_bytes());
  }

  /// Appends now and runs the barrier in a detached task, for records no
  /// caller waits on: a crash before the barrier drops the record.
  void commit_detached(Record rec) {
    if (!journal_.enabled()) return;
    const std::uint64_t bytes = record_bytes_(rec);
    const std::uint64_t seq = journal_.append(std::move(rec), bytes);
    node_.cluster().sim().spawn(seal_detached(seq, bytes));
  }

 private:
  template <class Resp>
  static sim::Task<Result<Resp>> gated(const char* message) {
    co_return Error{Errc::unavailable, message};
  }

  /// Seals through `seq` once the fsync of `bytes` is paid *and* the node
  /// survived it (sealing first would make records durable for free).
  sim::Task<Result<void>> seal_after_fsync(std::uint64_t seq,
                                           std::uint64_t bytes) {
    // Hoisted out of the `if`: GCC 12 misplaces the frame of a coroutine
    // whose first statement is an `if` with a co_await in its condition
    // (the `lint.frame_scan` gate).
    const bool durable =
        co_await journal_fsync(node_, journal_.options().disk, bytes);
    if (!durable) co_return Error{Errc::unavailable, "crashed before commit"};
    journal_.seal(seq);
    maybe_checkpoint();
    co_return ok_result();
  }

  /// spawn() starts the task at once, so journal_fsync pins the
  /// incarnation of the append: a crash before the barrier never seals.
  sim::Task<void> seal_detached(std::uint64_t seq, std::uint64_t bytes) {
    (void)co_await seal_after_fsync(seq, bytes);
  }

  void maybe_checkpoint() {
    if (!journal_.checkpoint_due()) return;
    if (!journal_.checkpoint(encode_checkpoint_)) return;
    obs::count("journal.checkpoints");
    charge_disk_write(node_, journal_.checkpoint_bytes());
  }

  sim::Task<void> recover(std::uint64_t incarnation) {
    const SimTime started = node_.cluster().sim().now();
    const ReplayPlan plan = journal_.replay_plan();
    const obs::SpanId span = begin_replay_span(node_.id(), plan);
    const bool paid =
        co_await journal_replay_cost(node_, journal_.options().disk, plan);
    if (!paid || node_.incarnation() != incarnation) {
      // Crashed again mid-replay; the next restart starts recovery over.
      if (auto* ts = obs::sink()) ts->end_span(span, "aborted");
      co_return;
    }
    const RecoveryOutcome outcome = journal_.finish_recovery();
    journal_.replay(apply_record_);
    recovering_ = false;
    note_readable(node_, plan, outcome, started, span, stats_);
    on_readable_(outcome);
  }

  rpc::Node& node_;
  Journal<Record> journal_;
  const char* gate_message_;
  bool recovering_{false};
  RecoveryStats stats_;
  std::function<std::uint64_t(const Record&)> record_bytes_;
  std::function<void(const Record&)> apply_record_;
  std::function<std::vector<Entry>(std::vector<Entry>,
                                   const std::vector<Entry>&)>
      encode_checkpoint_;
  std::function<void()> wipe_;
  std::function<void(const RecoveryOutcome&)> on_readable_;
};

}  // namespace bs::blob
