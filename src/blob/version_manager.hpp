// Version manager actor: serializes concurrent writes and publishes a new
// BLOB version for each one (§III-A). Version numbers are assigned at
// StartWrite; publication happens strictly in version order once a write's
// data and metadata are durable. Writers receive the version of every border
// subtree they borrow, answered from the blob's write history (including
// in-flight writes), so they can build their segment trees with forward
// references, fully in parallel. An aborted write bumps the blob's abort
// epoch; a committer holding a stale epoch is asked to rebuild its metadata
// against the corrected history before it can publish — this keeps
// published trees free of dangling references.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "blob/journal.hpp"
#include "blob/messages.hpp"
#include "blob/meta_ops.hpp"
#include "rpc/rpc.hpp"
#include "sim/sync.hpp"

namespace bs::blob {

struct VersionManagerOptions {
  /// An uncommitted pending write older than this is auto-aborted by the
  /// lease sweeper. Ordered publication stalls on the first uncommitted
  /// version, so an orphan (writer crashed, StartWrite response lost)
  /// would otherwise block every later commit forever.
  SimDuration write_lease{simtime::seconds(300)};
  SimDuration sweep_interval{simtime::seconds(10)};
  /// Persistent version-metadata store model. Disabled: blob state survives
  /// crashes intact (the paper's durable version manager), as before.
  JournalOptions journal{};
};

class VersionManager {
 public:
  using Options = VersionManagerOptions;

  /// Publication notification for the instrumentation layer.
  struct PublishEvent {
    BlobId blob;
    Version version{0};
    std::uint64_t size{0};
    std::uint64_t written_bytes{0};
    ClientId writer{};
  };

  explicit VersionManager(rpc::Node& node, Options opts = {});

  /// Spawns the background loop enforcing Options::write_lease.
  void start_lease_sweeper();

  [[nodiscard]] NodeId id() const { return node_.id(); }
  [[nodiscard]] std::size_t blob_count() const { return blobs_.size(); }
  [[nodiscard]] std::uint64_t leases_expired() const {
    return leases_expired_;
  }

  void set_publish_observer(std::function<void(const PublishEvent&)> obs) {
    publish_observer_ = std::move(obs);
  }

  /// Geo-replication hooks: version lifecycle events the replication plane
  /// mirrors to remote sites. `published` fires when a version becomes
  /// visible, `trimmed` after a version is removed (per version, after the
  /// trim's journal commit), `deleted` after a blob is tombstoned. The
  /// plane's custody dedup + reconciliation absorb replays of any of them.
  struct GeoHooks {
    std::function<void(BlobId, Version, std::uint64_t)> published;
    std::function<void(BlobId, Version)> trimmed;
    std::function<void(BlobId)> deleted;
  };
  void set_geo_hooks(GeoHooks hooks) { geo_hooks_ = std::move(hooks); }

  /// Snapshot of every live published version (geo-replication reprime
  /// after a custody-store wipe).
  struct PublishedVersion {
    BlobId blob;
    Version version{0};
    std::uint64_t size{0};
  };
  [[nodiscard]] std::vector<PublishedVersion> published_snapshot() const;

  /// Published versions of a blob (tests/removal engine).
  [[nodiscard]] std::vector<VersionInfo> versions_of(BlobId blob) const;

  /// Pending (started, unsettled) write count across all blobs.
  [[nodiscard]] std::size_t pending_writes() const;

  /// True between a journaled crash and the end of journal replay.
  [[nodiscard]] bool recovering() const { return durable_.recovering(); }
  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return durable_.stats();
  }

  /// One write-ahead-journal record of the version-metadata store. Fixed
  /// 64 bytes on disk; the union of fields the eight kinds need.
  struct VmRecord {
    enum class Kind : std::uint8_t {
      create,           ///< blob created (chunk_size/replication/ttl)
      start,            ///< version reserved (extent; bytes = reservation end)
      publish,          ///< version published (bytes = snapshot size)
      abort,            ///< pending write aborted
      trim_mark,        ///< published version trimmed away
      set_replication,  ///< replication factor changed
      delete_blob,      ///< blob tombstoned
      frontier,         ///< checkpoint cursor: next_version/reserved_end/epoch
    };
    Kind kind{Kind::create};
    std::uint64_t blob{0};
    Version version{0};
    WriteExtent extent{};
    std::uint64_t bytes{0};  ///< start: reserved end; publish: size;
                             ///< frontier: reserved_end
    std::uint64_t chunk_size{0};
    std::uint32_t replication{1};
    SimTime created_at{0};
    SimDuration ttl{0};
    std::uint64_t epoch{0};  ///< frontier: abort_epoch at checkpoint
  };

 private:
  friend class Durable<VersionManager, VmRecord>;

  struct PendingWrite {
    WriteExtent extent;
    std::uint64_t end_bytes{0};
    std::uint64_t root_chunks{0};
    ClientId writer{};
    bool committed{false};
    bool aborted{false};
    std::uint64_t committed_epoch{0};  ///< abort epoch sent with commit
    /// Set when the commit decision (published / rebuild) is ready. Shared:
    /// a retried commit may leave an earlier handler coroutine still
    /// awaiting it after the pending entry is gone.
    std::shared_ptr<sim::Event> decision;
    bool published{false};
    bool rebuild{false};
    /// Lease clock; reset on start and on every commit interaction.
    SimTime lease_from{0};
  };

  struct BlobState {
    BlobId id;
    std::uint64_t chunk_size{0};
    std::uint32_t replication{1};
    std::uint32_t base_replication{1};
    SimTime created_at{0};
    SimDuration ttl{0};
    bool deleted{false};
    std::set<Version> trimmed;
    Version next_version{1};
    Version latest{0};
    std::uint64_t latest_size{0};
    std::uint64_t reserved_end{0};  ///< max end over non-aborted writes
    std::uint64_t abort_epoch{0};
    std::vector<WriteExtent> history;  ///< non-aborted writes, by version
    /// `history` indexed for StartWrite's border answers; dropped once the
    /// blob is deleted.
    meta_ops::MaxVersionTree max_versions;
    std::map<Version, VersionInfo> published;
    std::map<Version, PendingWrite> pending;
  };

  void register_handlers();
  // Requests by value: copied into the coroutine frame, so the handlers
  // outlive any caller (bslint coro-ref-param). All three are small structs.
  sim::Task<Result<StartWriteResp>> handle_start(StartWriteReq req,
                                                 ClientId writer);
  sim::Task<Result<CommitWriteResp>> handle_commit(CommitWriteReq req);
  sim::Task<Result<AbortWriteResp>> handle_abort(AbortWriteReq req);
  /// The "published" commit reply, sent once the journal tail is durable:
  /// the publish record may still be volatile (racing group commit), and
  /// an acked publish must never be lost to a crash.
  sim::Task<Result<CommitWriteResp>> reply_published(VersionInfo info);

  /// Walks the pending queue in version order, settling decisions.
  void try_publish(BlobState& b);
  void publish_one(BlobState& b, Version v, PendingWrite& w);
  /// Drops write v from the history and its index (an abort).
  void remove_from_history(BlobState& b, Version v);
  /// Abort machinery shared by AbortWrite and lease expiry: drops the
  /// pending write, bumps the abort epoch, recomputes the append frontier
  /// and re-drives publication.
  void force_abort(BlobState& b, Version v);
  /// Where write `e`'s reservation ends: its requested end while it is
  /// pending, its whole chunk range after that.
  static std::uint64_t reservation_end(const BlobState& b,
                                       const WriteExtent& e);
  /// Recomputes the append frontier (reserved_end) from the published size
  /// and every remaining write's reservation, as after an abort.
  static void recompute_frontier(BlobState& b);
  /// What BlobInfo and ListBlobs report for `b`.
  static BlobDescriptor descriptor_of(const BlobState& b);
  sim::Task<void> lease_sweeper_loop();

  // Durable<VersionManager, VmRecord> hooks.
  static std::uint64_t record_bytes(const VmRecord&) { return 64; }
  void apply_record(const VmRecord& rec);
  [[nodiscard]] std::vector<Journal<VmRecord>::Entry> encode_checkpoint(
      std::vector<Journal<VmRecord>::Entry> previous,
      const std::vector<Journal<VmRecord>::Entry>& tail) const;
  void wipe();
  void on_readable(const RecoveryOutcome&);

  rpc::Node& node_;
  Options opts_;
  std::map<std::uint64_t, BlobState> blobs_;  // by BlobId value
  Durable<VersionManager, VmRecord> durable_;
  std::uint64_t next_blob_{1};
  std::uint64_t leases_expired_{0};
  bool sweeper_enabled_{false};
  bool sweeper_running_{false};
  std::function<void(const PublishEvent&)> publish_observer_;
  GeoHooks geo_hooks_;
};

}  // namespace bs::blob
