// RPC message types of the BlobSeer actors. Wire sizes model an efficient
// binary protocol: fixed headers plus payload bytes; control-plane messages
// stay small so only the data plane contends for bandwidth.
#pragma once

#include <cstdint>
#include <vector>

#include "blob/blob_types.hpp"
#include "blob/meta_tree.hpp"

namespace bs::blob {

inline constexpr std::uint64_t kAppendOffset =
    std::numeric_limits<std::uint64_t>::max();

// ---------------------------------------------------------------- provider

struct PutChunkReq {
  static constexpr const char* kName = "blob.put_chunk";
  static constexpr bool kPayloadToDisk = true;
  ChunkKey key;
  Payload payload;
  [[nodiscard]] std::uint64_t wire_size() const { return 64 + payload.size; }
};
struct PutChunkResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

struct GetChunkReq {
  static constexpr const char* kName = "blob.get_chunk";
  static constexpr bool kResponseFromDisk = true;
  ChunkKey key;
  std::uint64_t offset{0};  ///< byte offset within the chunk
  std::uint64_t length{std::numeric_limits<std::uint64_t>::max()};
  [[nodiscard]] std::uint64_t wire_size() const { return 56; }
};
struct GetChunkResp {
  Payload payload;
  [[nodiscard]] std::uint64_t wire_size() const { return 32 + payload.size; }
};

struct RemoveChunkReq {
  static constexpr const char* kName = "blob.remove_chunk";
  ChunkKey key;
  [[nodiscard]] std::uint64_t wire_size() const { return 40; }
};
struct RemoveChunkResp {
  bool removed{false};
  [[nodiscard]] std::uint64_t wire_size() const { return 17; }
};

/// Presence probe: does this provider hold the chunk? Used by
/// content-addressed layers (the cloud gateway's dedup index) to verify a
/// recovered index entry still resolves before skipping a store.
struct HasChunkReq {
  static constexpr const char* kName = "blob.has_chunk";
  ChunkKey key;
  [[nodiscard]] std::uint64_t wire_size() const { return 40; }
};
struct HasChunkResp {
  bool present{false};
  std::uint64_t size{0};
  [[nodiscard]] std::uint64_t wire_size() const { return 25; }
};

struct ProviderStatusReq {
  static constexpr const char* kName = "blob.provider_status";
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};
struct ProviderStatusResp {
  std::uint64_t capacity{0};
  std::uint64_t used{0};
  std::uint64_t chunks{0};
  [[nodiscard]] std::uint64_t wire_size() const { return 40; }
};

/// Lists chunk keys held by a provider (used by migration/rebalance).
struct ListChunksReq {
  static constexpr const char* kName = "blob.list_chunks";
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};
struct ListChunksResp {
  std::vector<ChunkKey> keys;
  [[nodiscard]] std::uint64_t wire_size() const {
    return 16 + 24 * keys.size();
  }
};

/// Provider-to-provider replica copy (re-replication / migration).
struct ReplicateChunkReq {
  static constexpr const char* kName = "blob.replicate_chunk";
  ChunkKey key;
  NodeId target;  ///< provider that should receive a copy
  [[nodiscard]] std::uint64_t wire_size() const { return 48; }
};
struct ReplicateChunkResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

// ------------------------------------------------------- metadata provider

struct MetaPutReq {
  static constexpr const char* kName = "blob.meta_put";
  NodeKey key;
  TreeNode node;
  [[nodiscard]] std::uint64_t wire_size() const {
    return 16 + key.wire_size() + node.wire_size();
  }
};
struct MetaPutResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

/// Deletes one tree node (metadata GC after trims). Idempotent.
struct MetaRemoveReq {
  static constexpr const char* kName = "blob.meta_remove";
  NodeKey key;
  [[nodiscard]] std::uint64_t wire_size() const {
    return 16 + key.wire_size();
  }
};
struct MetaRemoveResp {
  bool removed{false};
  [[nodiscard]] std::uint64_t wire_size() const { return 17; }
};

struct MetaGetReq {
  static constexpr const char* kName = "blob.meta_get";
  NodeKey key;
  [[nodiscard]] std::uint64_t wire_size() const {
    return 16 + key.wire_size();
  }
};
struct MetaGetResp {
  TreeNode node;
  [[nodiscard]] std::uint64_t wire_size() const {
    return 16 + node.wire_size();
  }
};

// -------------------------------------------------------- provider manager

struct RegisterProviderReq {
  static constexpr const char* kName = "blob.register_provider";
  NodeId provider;
  std::uint64_t capacity{0};
  /// State carried across a restart with an intact store; a fresh provider
  /// registers with free_space == capacity and zero chunks.
  std::uint64_t free_space{0};
  std::uint64_t chunks{0};
  [[nodiscard]] std::uint64_t wire_size() const { return 48; }
};
struct RegisterProviderResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

struct DeregisterProviderReq {
  static constexpr const char* kName = "blob.deregister_provider";
  NodeId provider;
  [[nodiscard]] std::uint64_t wire_size() const { return 24; }
};
struct DeregisterProviderResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

/// Provider heartbeat (and re-registration) period; the reaper's scan too.
inline constexpr SimDuration kHeartbeatInterval = simtime::seconds(2);

struct HeartbeatReq {
  static constexpr const char* kName = "blob.heartbeat";
  NodeId provider;
  std::uint64_t free_space{0};
  std::uint64_t chunks{0};
  double store_rate{0};  ///< recent chunk-put rate (load signal)
  [[nodiscard]] std::uint64_t wire_size() const { return 48; }
};
struct HeartbeatResp {
  bool known{true};  ///< false asks the provider to re-register
  [[nodiscard]] std::uint64_t wire_size() const { return 17; }
};

struct AllocateReq {
  static constexpr const char* kName = "blob.allocate";
  BlobId blob;
  Version version{kInvalidVersion};
  std::uint64_t chunk_count{0};
  std::uint64_t chunk_size{0};  ///< for free-space filtering
  std::uint32_t replication{1};
  std::vector<NodeId> exclude;
  [[nodiscard]] std::uint64_t wire_size() const {
    return 48 + 8 * exclude.size();
  }
};
struct AllocateResp {
  /// placements[i] = the replica set for chunk i (replication distinct
  /// providers, or fewer if the pool is too small).
  std::vector<std::vector<NodeId>> placements;
  [[nodiscard]] std::uint64_t wire_size() const {
    std::uint64_t n = 16;
    for (const auto& p : placements) n += 8 * p.size() + 4;
    return n;
  }
};

/// Snapshot of one registered provider, as the provider manager sees it.
/// Liveness verdict the provider manager holds about a data provider, fed
/// by heartbeats (positive signal) and client failure reports / missed
/// heartbeats (negative signal). Allocation prefers alive providers, falls
/// back to suspects under space pressure and never places on dead ones.
enum class ProviderHealth : std::uint8_t { alive, suspect, dead };

struct ProviderEntry {
  NodeId node;
  std::uint64_t capacity{0};
  std::uint64_t free_space{0};
  std::uint64_t chunks{0};
  double store_rate{0};
  SimTime last_heartbeat{0};
  std::uint64_t pending_allocs{0};  ///< chunks allocated, put not yet seen
  bool decommissioning{false};
  ProviderHealth health{ProviderHealth::alive};
  std::uint32_t reported_failures{0};  ///< client failure reports since last
                                       ///< heartbeat
};

/// Marks a provider as draining: no new allocations land on it.
struct SetDecommissionReq {
  static constexpr const char* kName = "blob.set_decommission";
  NodeId provider;
  bool decommission{true};
  [[nodiscard]] std::uint64_t wire_size() const { return 25; }
};
struct SetDecommissionResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

/// Client-side failure report: a chunk put/get against `provider` failed at
/// the transport level. Marks the entry suspect (dead after repeated
/// reports) so allocation steers away long before the heartbeat deadline.
struct ReportFailureReq {
  static constexpr const char* kName = "blob.report_failure";
  NodeId provider;
  [[nodiscard]] std::uint64_t wire_size() const { return 24; }
};
struct ReportFailureResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

// --------------------------------------------------------- version manager

struct CreateBlobReq {
  static constexpr const char* kName = "blob.create";
  std::uint64_t chunk_size{0};
  std::uint32_t replication{1};
  SimDuration ttl{0};  ///< 0 = permanent; temporary data expires after ttl
  [[nodiscard]] std::uint64_t wire_size() const { return 40; }
};
struct CreateBlobResp {
  BlobId blob;
  [[nodiscard]] std::uint64_t wire_size() const { return 24; }
};

struct BlobInfoReq {
  static constexpr const char* kName = "blob.info";
  BlobId blob;
  Version version{kLatestVersion};
  [[nodiscard]] std::uint64_t wire_size() const { return 32; }
};
struct BlobInfoResp {
  BlobDescriptor descriptor;
  VersionInfo at;  ///< info of the requested version
  [[nodiscard]] std::uint64_t wire_size() const { return 96; }
};

struct StartWriteReq {
  static constexpr const char* kName = "blob.start_write";
  BlobId blob;
  std::uint64_t offset{kAppendOffset};  ///< kAppendOffset = append
  std::uint64_t size{0};
  [[nodiscard]] std::uint64_t wire_size() const { return 40; }
};
struct StartWriteResp {
  Version version{kInvalidVersion};
  std::uint64_t chunk_size{0};
  std::uint32_t replication{1};
  std::uint64_t offset{0};       ///< resolved byte offset (for appends)
  std::uint64_t first_chunk{0};
  std::uint64_t chunk_count{0};
  std::uint64_t root_chunks{0};  ///< coverage the writer must build to
  std::uint64_t abort_epoch{0};  ///< for abort-repair detection at commit
  /// The versions the write borrows for its border subtrees, in build
  /// order (meta_ops::build_nodes consumes them).
  std::vector<BorderVersion> borders;
  /// Writes with version < this one. The reply is charged as if it still
  /// carried them, 24 bytes each.
  std::uint64_t history_len{0};
  [[nodiscard]] WriteExtent extent() const {
    return WriteExtent{version, first_chunk, chunk_count, root_chunks};
  }
  [[nodiscard]] std::uint64_t wire_size() const {
    return 80 + 24 * history_len;
  }
};

struct CommitWriteReq {
  static constexpr const char* kName = "blob.commit_write";
  BlobId blob;
  Version version{kInvalidVersion};
  std::uint64_t abort_epoch{0};  ///< epoch the metadata was built against
  [[nodiscard]] std::uint64_t wire_size() const { return 40; }
};
struct CommitWriteResp {
  bool published{false};
  /// When true, an earlier write aborted after this writer built its
  /// metadata; the writer must rebuild against `borders` (answered without
  /// the aborted versions) and commit again with `abort_epoch`.
  bool rebuild_needed{false};
  std::uint64_t abort_epoch{0};
  std::vector<BorderVersion> borders;
  /// Writes with version < this one; charged as in StartWriteResp.
  std::uint64_t history_len{0};
  VersionInfo info;  ///< valid iff published
  [[nodiscard]] std::uint64_t wire_size() const {
    return 64 + 24 * history_len;
  }
};

struct AbortWriteReq {
  static constexpr const char* kName = "blob.abort_write";
  BlobId blob;
  Version version{kInvalidVersion};
  [[nodiscard]] std::uint64_t wire_size() const { return 32; }
};
struct AbortWriteResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

struct ListBlobsReq {
  static constexpr const char* kName = "blob.list_blobs";
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};
struct ListBlobsResp {
  std::vector<BlobDescriptor> blobs;
  [[nodiscard]] std::uint64_t wire_size() const {
    return 16 + 64 * blobs.size();
  }
};

/// Full version list of one blob (removal strategies, visualization).
struct BlobVersionsReq {
  static constexpr const char* kName = "blob.versions";
  BlobId blob;
  [[nodiscard]] std::uint64_t wire_size() const { return 24; }
};
struct BlobVersionsResp {
  std::vector<VersionInfo> versions;
  [[nodiscard]] std::uint64_t wire_size() const {
    return 16 + 24 * versions.size();
  }
};

/// Removes published versions older than `keep_from` and returns the chunk
/// keys that are no longer referenced by any kept version (the caller —
/// the self-optimization removal engine — deletes them from providers).
struct TrimBlobReq {
  static constexpr const char* kName = "blob.trim";
  BlobId blob;
  Version keep_from{0};
  [[nodiscard]] std::uint64_t wire_size() const { return 32; }
};
struct TrimBlobResp {
  std::vector<ChunkKey> unreferenced;
  /// Metadata-tree nodes no kept snapshot can reach (metadata GC).
  std::vector<NodeKey> removable_nodes;
  std::uint64_t versions_removed{0};
  [[nodiscard]] std::uint64_t wire_size() const {
    return 24 + 24 * unreferenced.size() + 32 * removable_nodes.size();
  }
};

/// Updates the replication degree applied to FUTURE writes of a blob
/// (the self-optimization engine's actuator for adaptive replication).
struct SetReplicationReq {
  static constexpr const char* kName = "blob.set_replication";
  BlobId blob;
  std::uint32_t replication{1};
  [[nodiscard]] std::uint64_t wire_size() const { return 28; }
};
struct SetReplicationResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

/// Marks a blob deleted; subsequent reads/writes fail. Chunk reclamation is
/// done by the removal engine via RemoveBlobChunksReq broadcasts.
struct DeleteBlobReq {
  static constexpr const char* kName = "blob.delete";
  BlobId blob;
  [[nodiscard]] std::uint64_t wire_size() const { return 24; }
};
struct DeleteBlobResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

/// Provider-side: drop every chunk belonging to a (deleted) blob.
struct RemoveBlobChunksReq {
  static constexpr const char* kName = "blob.remove_blob_chunks";
  BlobId blob;
  [[nodiscard]] std::uint64_t wire_size() const { return 24; }
};
struct RemoveBlobChunksResp {
  std::uint64_t chunks_removed{0};
  std::uint64_t bytes_freed{0};
  [[nodiscard]] std::uint64_t wire_size() const { return 32; }
};

}  // namespace bs::blob
