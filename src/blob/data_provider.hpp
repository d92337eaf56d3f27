// Data provider actor: stores immutable chunks on its node's disk, enforces
// capacity, serves puts/gets/removes, replicates chunks to peers, and
// heartbeats the provider manager. One of the five BlobSeer actors (§III-A).
#pragma once

#include <functional>
#include <unordered_map>

#include "blob/journal.hpp"
#include "blob/messages.hpp"
#include "common/stats.hpp"
#include "rpc/rpc.hpp"

namespace bs::blob {

struct DataProviderOptions {
  std::uint64_t capacity{64ull * units::GB};
  /// Persistent chunk-index store model. Disabled: the store survives
  /// crashes intact (unless wiped) and restarts are free, as before.
  JournalOptions journal{};
};

class DataProvider {
 public:
  using Options = DataProviderOptions;

  /// Storage-change notification for the instrumentation layer.
  struct StorageEvent {
    NodeId node;
    std::uint64_t used{0};
    std::uint64_t capacity{0};
    std::uint64_t chunks{0};
    std::int64_t delta{0};  ///< bytes added (negative: removed)
  };

  /// Served chunk access (put/get), with blob attribution — the
  /// instrumentation layer turns these into per-blob access patterns.
  struct AccessEvent {
    ChunkKey key;
    std::uint64_t bytes{0};
    bool write{false};
    ClientId client{};
  };

  DataProvider(rpc::Node& node, Options options = {});

  /// Registers with the provider manager and starts the heartbeat loop.
  /// Restartable: a crash kills the loop, a node restart revives it.
  void start_heartbeats(NodeId provider_manager);
  void stop_heartbeats() {
    heartbeats_on_ = false;
    ++hb_generation_;  // kills any loop that hasn't noticed yet
  }

  [[nodiscard]] NodeId id() const { return node_.id(); }
  [[nodiscard]] rpc::Node& node() { return node_; }
  [[nodiscard]] std::uint64_t capacity() const { return options_.capacity; }
  [[nodiscard]] std::uint64_t used() const { return used_; }
  [[nodiscard]] std::uint64_t free_space() const {
    return options_.capacity - used_;
  }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  [[nodiscard]] bool has_chunk(const ChunkKey& key) const {
    return chunks_.count(key) > 0;
  }
  [[nodiscard]] std::vector<ChunkKey> chunk_keys() const;

  /// Recent store throughput (bytes/s over the trailing window) — the load
  /// signal carried by heartbeats and consumed by load-aware allocation.
  [[nodiscard]] double store_rate(SimTime now) const {
    return stores_.rate_per_sec(now);
  }

  void set_storage_observer(std::function<void(const StorageEvent&)> obs) {
    storage_observer_ = std::move(obs);
  }

  void set_access_observer(std::function<void(const AccessEvent&)> obs) {
    access_observer_ = std::move(obs);
  }

  /// Geo-replication router: consulted before the direct cross-node
  /// PutChunk a ReplicateChunk would issue. Returning true means the router
  /// took custody of the transfer (store-and-forward delivery); the
  /// replicate call then succeeds immediately.
  using ReplicateRouter =
      std::function<bool(const ChunkKey&, NodeId, const Payload&)>;
  void set_replicate_router(ReplicateRouter fn) { router_ = std::move(fn); }

  /// Failure injection: drops all stored chunks (models a disk loss).
  void wipe();

  /// True between a journaled crash and the end of journal replay; every
  /// request is rejected `unavailable` until the store is readable again.
  [[nodiscard]] bool recovering() const { return durable_.recovering(); }
  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return durable_.stats();
  }

  /// One write-ahead-journal record of the chunk store: puts carry the
  /// payload (the WAL holds data pages), removes just the key.
  struct JournalRecord {
    enum class Kind : std::uint8_t { put, remove };
    Kind kind{Kind::put};
    ChunkKey key{};
    Payload payload{};
  };

 private:
  friend class Durable<DataProvider, JournalRecord>;

  void register_handlers();
  sim::Task<void> heartbeat_loop(NodeId provider_manager,
                                 std::uint64_t generation);
  void notify_storage(std::int64_t delta);

  void notify_access(const ChunkKey& key, std::uint64_t bytes, bool write,
                     ClientId client);

  // Requests are taken by value: a coroutine copies value parameters into
  // its frame, so the handler stays safe however the caller's lifetime ends
  // (bslint coro-ref-param). The structs are small; Payload shares the
  // backing bytes.
  sim::Task<Result<PutChunkResp>> handle_put(PutChunkReq req, ClientId client);
  sim::Task<Result<GetChunkResp>> handle_get(GetChunkReq req, ClientId client);
  sim::Task<Result<RemoveChunkResp>> handle_remove(RemoveChunkReq req);
  sim::Task<Result<ReplicateChunkResp>> handle_replicate(ReplicateChunkReq req);

  // Durable<DataProvider, JournalRecord> hooks.
  static std::uint64_t record_bytes(const JournalRecord& rec);
  void apply_record(const JournalRecord& rec);
  [[nodiscard]] std::vector<Journal<JournalRecord>::Entry> encode_checkpoint(
      std::vector<Journal<JournalRecord>::Entry> previous,
      const std::vector<Journal<JournalRecord>::Entry>& tail) const;
  void on_readable(const RecoveryOutcome& outcome);

  rpc::Node& node_;
  Options options_;
  std::unordered_map<ChunkKey, Payload> chunks_;
  Durable<DataProvider, JournalRecord> durable_;
  std::uint64_t used_{0};
  SlidingWindowCounter stores_{simtime::seconds(10)};
  bool heartbeats_on_{false};
  std::uint64_t hb_generation_{0};  ///< stales superseded heartbeat loops
  NodeId pm_node_{};                ///< manager to re-register with on restart
  std::function<void(const StorageEvent&)> storage_observer_;
  std::function<void(const AccessEvent&)> access_observer_;
  ReplicateRouter router_;
};

}  // namespace bs::blob
