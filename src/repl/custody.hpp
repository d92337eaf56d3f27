// Custody bundles, the store-and-forward unit of the geo-replication plane
// (bundle-protocol shape): replication traffic to a currently-unreachable
// site is wrapped in a bundle and parked in a bounded per-destination FIFO
// at the site egress. Custody is released only on durable handoff — the
// remote egress journals + fsyncs the apply before acking — and a bundle
// whose delivery attempt times out is re-forwarded, so the receiver dedups
// by version id. A bundle beyond the queue bound spills: it is kept, but
// pays a disk round-trip on both enqueue and release. Nothing evicts a
// queued bundle, so the head the drain loop has in flight stays the head
// until the loop releases it (a crash or wipe ends that loop first).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <utility>

#include "blob/blob_types.hpp"
#include "common/types.hpp"
#include "net/topology.hpp"

namespace bs::repl {

enum class BundleKind : std::uint8_t {
  publish,  ///< version-publication metadata (+ modelled blob bytes)
  chunk,    ///< a chunk replica headed for a provider on the remote site
};

/// One unit of custody. Immutable once enqueued except for the forwarding
/// counters; ordered by `id` (per-egress, monotonically increasing), which
/// is also the FIFO order of the queue.
struct CustodyBundle {
  std::uint64_t id{0};
  BundleKind kind{BundleKind::publish};
  net::SiteId src_site{0};
  net::SiteId dst_site{0};
  BlobId blob{};
  blob::Version version{0};
  std::uint64_t bytes{0};  ///< payload bytes moved cross-site
  blob::ChunkKey chunk{};  ///< kind == chunk
  NodeId target{};         ///< kind == chunk: receiving provider
  blob::Payload payload{};  ///< kind == chunk: the replica itself
  SimTime enqueued_at{0};
  std::uint32_t forwards{0};  ///< delivery attempts so far
  bool spilled{false};        ///< parked on disk, not in memory
  bool catch_up{false};       ///< re-synthesized by reconciliation
};

/// What push() did with the bundle.
enum class EnqueueOutcome : std::uint8_t {
  ok,
  spilled,  ///< accepted, but parked on disk (bound exceeded)
};

struct CustodyQueueStats {
  std::uint64_t enqueued{0};
  std::uint64_t released{0};  ///< custody handed off (acked by remote)
  std::uint64_t spilled{0};
  std::uint64_t reforwards{0};
  std::uint64_t peak_depth{0};
};

/// Bounded FIFO of custody bundles for one destination site. Plain ordered
/// state — std::deque in id order — because the drain loop walks it onto
/// the wire and the journal snapshots it (bslint det-custody-order).
class CustodyQueue {
 public:
  explicit CustodyQueue(std::size_t bound) : bound_(bound) {}

  EnqueueOutcome push(CustodyBundle b) {
    if (bundles_.size() >= bound_) {
      b.spilled = true;
      ++stats_.spilled;
    }
    remember(b);
    const bool spilled = b.spilled;
    bundles_.push_back(std::move(b));
    ++stats_.enqueued;
    stats_.peak_depth =
        std::max<std::uint64_t>(stats_.peak_depth, bundles_.size());
    return spilled ? EnqueueOutcome::spilled : EnqueueOutcome::ok;
  }

  /// Custody handoff of the queue head (remote acked durably).
  CustodyBundle release_front() {
    CustodyBundle b = std::move(bundles_.front());
    bundles_.pop_front();
    forget(b);
    ++stats_.released;
    return b;
  }

  void note_reforward() { ++stats_.reforwards; }

  [[nodiscard]] bool empty() const { return bundles_.empty(); }
  [[nodiscard]] std::size_t size() const { return bundles_.size(); }
  [[nodiscard]] const CustodyBundle& front() const { return bundles_.front(); }
  [[nodiscard]] CustodyBundle& front() { return bundles_.front(); }
  [[nodiscard]] const std::deque<CustodyBundle>& bundles() const {
    return bundles_;
  }
  [[nodiscard]] const CustodyQueueStats& stats() const { return stats_; }

  /// Whether a publish of (blob, version) is already parked here — keeps
  /// reconciliation catch-up from double-queueing work that is still in
  /// flight under custody.
  [[nodiscard]] bool holds_publish(BlobId blob, blob::Version v) const {
    return pending_publishes_.count({blob.value, v}) > 0;
  }

  [[nodiscard]] std::uint64_t queued_bytes() const {
    std::uint64_t total = 0;
    for (const CustodyBundle& b : bundles_) total += b.bytes;
    return total;
  }

  void clear() {
    bundles_.clear();
    pending_publishes_.clear();
  }

 private:
  void remember(const CustodyBundle& b) {
    if (b.kind == BundleKind::publish) {
      pending_publishes_.insert({b.blob.value, b.version});
    }
  }
  void forget(const CustodyBundle& b) {
    if (b.kind == BundleKind::publish) {
      pending_publishes_.erase({b.blob.value, b.version});
    }
  }

  std::size_t bound_;
  std::deque<CustodyBundle> bundles_;
  std::set<std::pair<std::uint64_t, blob::Version>> pending_publishes_;
  CustodyQueueStats stats_;
};

}  // namespace bs::repl
