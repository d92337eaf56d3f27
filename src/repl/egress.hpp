// Site egress: the custody-transfer endpoint of the geo-replication plane,
// one per site, on its own light node. Outbound replication traffic parks
// in bounded per-destination custody queues; a drain loop forwards the
// queue head to the destination site's egress, which journals + fsyncs the
// apply before acking — only that durable handoff releases custody. A
// delivery attempt that times out is re-forwarded (the receiver dedups by
// version id), a partition notification parks the queue without burning
// RPC timeouts, and a heal resumes the drain. The custody queue itself
// rides a PR 7 journal, so parked bundles survive node crashes and are
// re-driven after replay.
//
// The egress also owns its site's VersionMap. The origin site's map is
// authoritative (applied == published); remote maps advance on durable
// applies, and the reconciler exchanges them after heal to schedule
// catch-up for whatever custody lost (wipes, torn tails).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "blob/journal.hpp"
#include "common/types.hpp"
#include "net/topology.hpp"
#include "repl/custody.hpp"
#include "repl/messages.hpp"
#include "repl/version_map.hpp"
#include "rpc/rpc.hpp"
#include "sim/sync.hpp"

namespace bs::repl {

struct EgressOptions {
  /// Custody bound per destination queue; a bundle beyond it spills (it
  /// is kept, at a disk cost).
  std::size_t queue_bound{1024};
  /// Per delivery attempt; an attempt that exceeds it is re-forwarded.
  SimDuration custody_timeout{simtime::seconds(5)};
  /// Pause between failed delivery attempts on a link nobody declared down.
  SimDuration retry_backoff{simtime::seconds(2)};
  blob::JournalOptions journal{};
};

/// Per-(blob, version) size retained at the origin so reconciliation can
/// re-synthesize catch-up bundles for versions whose original custody was
/// lost or never queued.
class SiteEgress {
 public:
  using PeerResolver = std::function<NodeId(net::SiteId)>;
  /// Invoked when a recovery finds the store wiped: the plane re-primes
  /// the origin egress from the version manager (the source of truth).
  using ReprimeHook = std::function<void()>;
  /// Invoked after a durable apply or a map merge at this egress, so the
  /// plane can re-check coherence and record reconciliation lag.
  using ProgressHook = std::function<void()>;

  SiteEgress(rpc::Node& node, net::SiteId site, EgressOptions options);

  [[nodiscard]] rpc::Node& node() { return node_; }
  [[nodiscard]] net::SiteId site() const { return site_; }
  [[nodiscard]] const EgressOptions& options() const { return options_; }

  void set_peer_resolver(PeerResolver fn) { peer_resolver_ = std::move(fn); }
  void set_reprime_hook(ReprimeHook fn) { reprime_ = std::move(fn); }
  void set_progress_hook(ProgressHook fn) { progress_ = std::move(fn); }

  // ------------------------------------------------------------- origin API
  /// Records a publication at the origin (authoritative map + size table)
  /// without queueing custody. Durable via the egress journal.
  void note_published(BlobId blob, blob::Version v, std::uint64_t bytes);
  /// Parks a publish bundle for `dst`.
  void enqueue_publish(net::SiteId dst, BlobId blob, blob::Version v,
                       std::uint64_t bytes, bool catch_up = false);
  /// Parks a chunk-replica bundle for `dst` (custody of the actual bytes).
  void enqueue_chunk(net::SiteId dst, const blob::ChunkKey& key,
                     NodeId target, blob::Payload payload);
  /// Version trimmed away at the origin: no longer owed to anyone.
  void retire_version(BlobId blob, blob::Version v);
  /// Blob deleted: drop its region everywhere custody still references it.
  void drop_blob(BlobId blob);

  // ----------------------------------------------------- fault notifications
  /// Partition state of the link towards `peer` (fault plane listener).
  /// Parks / resumes that destination's drain loop.
  void set_link_state(net::SiteId peer, bool partitioned);

  // ------------------------------------------------------------- reconciler
  /// One reconciliation exchange with the origin egress: sends this site's
  /// map, merges the origin's reply, returns how many catch-up bundles the
  /// origin queued towards us (or nullopt on RPC failure).
  sim::Task<std::optional<std::uint64_t>> reconcile_with(NodeId origin_node);

  // ------------------------------------------------------------- inspection
  [[nodiscard]] const VersionMap& map() const { return map_; }
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] std::size_t queue_depth(net::SiteId dst) const;
  [[nodiscard]] std::uint64_t queued_bytes() const;
  [[nodiscard]] const CustodyQueueStats* queue_stats(net::SiteId dst) const;
  [[nodiscard]] CustodyQueueStats total_stats() const;
  [[nodiscard]] bool recovering() const { return durable_.recovering(); }
  [[nodiscard]] const blob::RecoveryStats& recovery_stats() const {
    return durable_.stats();
  }
  [[nodiscard]] std::uint64_t applies() const { return applies_; }
  [[nodiscard]] std::uint64_t duplicates_dropped() const {
    return duplicates_;
  }
  /// Size table lookup (tests + catch-up synthesis).
  [[nodiscard]] std::uint64_t published_bytes(BlobId blob,
                                              blob::Version v) const;
  /// Newest bundle id ever issued (tests: must never regress across a
  /// crash+recovery, or released ids could be re-issued onto the wire).
  [[nodiscard]] std::uint64_t bundle_id_hwm() const {
    return next_bundle_id_;
  }

  /// Order-sensitive digest over map + queue state (determinism suites).
  [[nodiscard]] std::uint64_t digest() const;

 private:
  struct EgressRecord {
    enum class Kind : std::uint8_t {
      enqueue,      ///< bundle parked (full bundle payload in the WAL)
      release,      ///< custody handed off (queue head, by bundle id)
      apply,        ///< durable local apply of a remote publication
      apply_chunk,  ///< durable local apply of a remote chunk replica
      publish,      ///< origin bookkeeping: version published, size retained
      retire,       ///< version trimmed
      drop_blob,    ///< blob deleted
      frontier,     ///< newest-known publication learned via map exchange
      bundle_hwm    ///< bundle-id high-water mark (checkpoint image)
    };
    Kind kind{Kind::enqueue};
    CustodyBundle bundle{};      ///< enqueue
    std::uint64_t bundle_id{0};  ///< release / bundle_hwm
    net::SiteId dst{0};          ///< enqueue/release destination
    BlobId blob{};               ///< apply/publish/retire/drop_blob/frontier
    blob::Version version{0};
    std::uint64_t bytes{0};      ///< publish: modelled version size
    blob::ChunkKey chunk{};      ///< apply_chunk: replica identity
    NodeId target{};             ///< apply_chunk: receiving provider
  };
  friend class blob::Durable<SiteEgress, EgressRecord>;

  struct DstState {
    explicit DstState(std::size_t bound) : queue(bound) {}
    CustodyQueue queue;
    bool partitioned{false};
    bool draining{false};
    std::shared_ptr<sim::Event> resume;  ///< set on heal while parked
  };

  /// Payload bytes a bundle holds under custody (what spill/unspill and
  /// the WAL charge for it).
  static std::uint64_t rec_bundle_bytes(const CustodyBundle& b) {
    return b.kind == BundleKind::chunk ? b.payload.size : b.bytes;
  }
  // blob::Durable<SiteEgress, EgressRecord> hooks.
  static std::uint64_t record_bytes(const EgressRecord& rec);
  void apply_record(const EgressRecord& rec);
  std::vector<blob::Journal<EgressRecord>::Entry> encode_checkpoint(
      std::vector<blob::Journal<EgressRecord>::Entry> previous,
      const std::vector<blob::Journal<EgressRecord>::Entry>& tail) const;
  void wipe();
  void on_readable(const blob::RecoveryOutcome& outcome);

  void enqueue(CustodyBundle b);

  DstState& dst_state(net::SiteId dst);
  void ensure_drain(net::SiteId dst);
  sim::Task<void> drain_loop(net::SiteId dst, std::uint64_t generation);
  void update_depth_gauge();

  void register_handlers();
  sim::Task<Result<ReplDeliverResp>> handle_deliver(ReplDeliverReq req);
  sim::Task<Result<ReplMapResp>> handle_map(ReplMapReq req);

  rpc::Node& node_;
  net::SiteId site_;
  EgressOptions options_;
  PeerResolver peer_resolver_;
  ReprimeHook reprime_;
  ProgressHook progress_;

  VersionMap map_;
  /// Origin size table: blob -> version -> modelled bytes.
  std::map<std::uint64_t, std::map<blob::Version, std::uint64_t>> sizes_;
  std::map<net::SiteId, DstState> dsts_;
  /// Chunk replicas durably applied here, keyed by replica identity
  /// (chunk key, target provider) rather than sender bundle id, so the
  /// dedup survives bundle-id reuse after a sender crash or store wipe
  /// (the publish dedup is the version map itself).
  std::set<std::pair<blob::ChunkKey, NodeId>> applied_chunks_;

  blob::Durable<SiteEgress, EgressRecord> durable_;
  std::uint64_t generation_{0};  ///< stales drain loops across crashes
  std::uint64_t next_bundle_id_{0};
  std::uint64_t applies_{0};
  std::uint64_t duplicates_{0};
  std::string depth_gauge_name_;
};

}  // namespace bs::repl
