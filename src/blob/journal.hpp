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
// Durable<Actor, Record> wraps a Journal with the protocol every journaled
// actor shares: the crash -> replay -> readable path, the commit barriers
// and the checkpoint policy. Actors supply only their record hooks.
//
// The disk cost rides the FlowScheduler through the node's disk resource,
// so fault-plane disk slowdowns stretch recovery exactly like they stretch
// regular I/O.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "rpc/rpc.hpp"

namespace bs::blob {

/// Open + manifest scan, paid before a recovery reads anything. Byte costs
/// (checkpoint scan, journal tail, torn-tail scan) go through the node's
/// FlowScheduler disk resource; this latency, each fsync barrier's and the
/// per-record apply cost (journal.cpp) are pure delays.
inline constexpr SimDuration kMountLatency = simtime::millis(20);

struct JournalOptions {
  bool enabled{false};
  /// A checkpoint is taken once the fully-durable tail exceeds either
  /// bound, truncating the journal (warm restarts replay a short tail).
  std::uint64_t checkpoint_bytes{256ull * units::MB};
  std::uint64_t checkpoint_records{4096};
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
    replay_tail(fn);
  }

  /// Visits the durable tail alone, in append order.
  template <class Fn>
  void replay_tail(Fn&& fn) const {
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

  /// The checkpoint image, as the last encoder left it.
  [[nodiscard]] const std::vector<Entry>& image() const { return checkpoint_; }
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
sim::Task<bool> journal_fsync(rpc::Node& node, std::uint64_t bytes);

/// Pays the recovery replay cost (mount + checkpoint/tail/torn bytes at
/// disk bandwidth + per-record apply IOPS). Returns false if the node
/// crashed again mid-replay — the next restart starts recovery over.
// bslint: allow(coro-ref-param): node is cluster-owned; see journal_fsync
sim::Task<bool> journal_replay_cost(rpc::Node& node, ReplayPlan plan);

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

/// Constructor tag of Durable's one opt-in: the actor serves reads from the
/// checkpoint image itself (see the hook contract).
struct ImageIsStore {
  explicit ImageIsStore() = default;
};
inline constexpr ImageIsStore image_is_store{};

/// One journaled actor's store plus the protocol every such actor shares:
/// the `recovering` gate, RecoveryStats, the journaled crash/restart path,
/// the replay (recover), the commit barriers and the checkpoint policy.
/// Hook contract — the actor passes itself and its gate message (a string
/// literal: the `unavailable` text a request gets during a replay) to the
/// constructor, registers every handler through serve(), befriends
/// Durable<Actor, Record> and defines, as named member functions (Durable
/// calls them directly):
///
///   std::uint64_t record_bytes(const Record&)  (may be static)
///       on-disk size of one record; commits size each record once;
///   void apply_record(const Record&)
///       replays one record into the in-memory image;
///   std::vector<Entry> encode_checkpoint(std::vector<Entry> previous,
///                                        const std::vector<Entry>& tail)
///       the new checkpoint image (Entry is Journal<Record>::Entry) as a
///       deterministic record sequence: `previous`, the last image moved
///       in, with the fully durable `tail` folded in. The metadata
///       provider folds `tail` into `previous` in place; the other four
///       actors ignore `tail` and re-encode their live state, which at a
///       commit boundary is the same image, into `previous` cleared, so
///       the new image reuses the old one's buffer. It is const in all
///       but the actor that opts in below;
///   void wipe()
///       drops the in-memory image (a journaled crash loses it);
///   void on_readable(const RecoveryOutcome&)
///       reopens the actor after a completed replay; runs after the stats,
///       counters, histogram, span and log line are booked.
///
/// The opt-in, for an actor whose checkpoint image is its store (the
/// metadata provider): it passes `image_is_store` as the constructor's
/// last argument and defines one more hook,
///
///   void adopt_image(const std::vector<Entry>& image)
///       recounts the actor's totals from the recovered image, which it
///       then reads in place through image();
///
/// and recovery replays only the durable tail after it, where every other
/// actor gets the image record by record through apply_record. Such an
/// actor answers a read from the records applied since the last checkpoint
/// and otherwise from image(), which its encoder keeps sorted; removing an
/// image entry leaves a tombstone beside those records, and its
/// encode_checkpoint, which folds both into the new image, empties them.
/// The constructor static_asserts the hook, so a misspelt one fails to
/// compile instead of falling back to a record-by-record replay.
///
/// With the journal off every commit succeeds at once and crash() /
/// restart() return false without doing anything: what a journal-off crash
/// or restart means is each actor's own behaviour.
template <class Actor, class Record>
class Durable {
 public:
  using Entry = typename Journal<Record>::Entry;

  Durable(rpc::Node& node, JournalOptions opts, Actor& actor,
          const char* gate_message)
      : node_(node), actor_(actor), journal_(opts),
        gate_message_(gate_message) {}

  /// The opt-in form: recovery hands the actor the image through
  /// adopt_image and replays only the durable tail.
  Durable(rpc::Node& node, JournalOptions opts, Actor& actor,
          const char* gate_message, ImageIsStore)
      : Durable(node, opts, actor, gate_message) {
    static_assert(adopts_image(),
                  "an actor constructed with image_is_store must define "
                  "adopt_image(const std::vector<Entry>&)");
    image_is_store_ = true;
  }
  Durable(const Durable&) = delete;
  Durable& operator=(const Durable&) = delete;

  /// True between a journaled crash and the end of the next completed
  /// replay; serve() answers `unavailable` meanwhile.
  [[nodiscard]] bool recovering() const { return recovering_; }
  [[nodiscard]] const RecoveryStats& stats() const { return stats_; }
  /// The checkpoint image; empty with the journal off.
  [[nodiscard]] const std::vector<Entry>& image() const {
    return journal_.image();
  }

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
    actor_.wipe();
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
    const std::uint64_t bytes = actor_.record_bytes(rec);
    journal_.append(std::move(rec), bytes);
  }

  /// Commit barrier for one record: append, fsync its bytes, seal, maybe
  /// checkpoint. `unavailable` ("crashed before commit") when the node
  /// crashed before the barrier: the record never became durable and the
  /// handler must not ack it.
  sim::Task<Result<void>> commit(Record rec) {
    if (!journal_.enabled()) co_return ok_result();
    const std::uint64_t bytes = actor_.record_bytes(rec);
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
      const std::uint64_t b = actor_.record_bytes(rec);
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
    const std::uint64_t bytes = actor_.record_bytes(rec);
    const std::uint64_t seq = journal_.append(std::move(rec), bytes);
    node_.cluster().sim().spawn(seal_detached(seq, bytes));
  }

 private:
  /// A function, not a constant: its body is checked where Actor is
  /// complete, with this class's friend access to the hook.
  static constexpr bool adopts_image() {
    return requires(Actor& a, const std::vector<Entry>& image) {
      a.adopt_image(image);
    };
  }

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
    const bool durable = co_await journal_fsync(node_, bytes);
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
    const bool installed = journal_.checkpoint(
        [this](std::vector<Entry> previous, const std::vector<Entry>& tail) {
          return actor_.encode_checkpoint(std::move(previous), tail);
        });
    if (!installed) return;
    obs::count("journal.checkpoints");
    charge_disk_write(node_, journal_.checkpoint_bytes());
  }

  sim::Task<void> recover(std::uint64_t incarnation) {
    const SimTime started = node_.cluster().sim().now();
    const ReplayPlan plan = journal_.replay_plan();
    const obs::SpanId span = begin_replay_span(node_.id(), plan);
    const bool paid = co_await journal_replay_cost(node_, plan);
    if (!paid || node_.incarnation() != incarnation) {
      // Crashed again mid-replay; the next restart starts recovery over.
      if (auto* ts = obs::sink()) ts->end_span(span, "aborted");
      co_return;
    }
    const RecoveryOutcome outcome = journal_.finish_recovery();
    replay_into_actor();
    recovering_ = false;
    note_readable(node_, plan, outcome, started, span, stats_);
    actor_.on_readable(outcome);
  }

  void replay_into_actor() {
    auto apply = [this](const Record& r) { actor_.apply_record(r); };
    if constexpr (adopts_image()) {
      if (image_is_store_) {
        actor_.adopt_image(journal_.image());
        journal_.replay_tail(apply);
        return;
      }
    }
    journal_.replay(apply);
  }

  rpc::Node& node_;
  Actor& actor_;
  Journal<Record> journal_;
  const char* gate_message_;
  bool image_is_store_{false};  ///< the opt-in
  bool recovering_{false};
  RecoveryStats stats_;
};

}  // namespace bs::blob
