// BlobSeer client actor: the library applications link against. Implements
// client-side operations for each interaction with the system (§III-A):
// CREATE, WRITE, APPEND, READ plus stat/versions. Writes pipeline chunk
// transfers with bounded parallelism, retry failed puts on fresh providers,
// build segment-tree metadata locally (forward references) and publish
// through the version manager; reads walk the published tree and fetch
// chunks from replicas with failover.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "blob/messages.hpp"
#include "blob/meta_ops.hpp"
#include "blob/metadata_provider.hpp"
#include "common/rng.hpp"
#include "rpc/rpc.hpp"
#include "sim/sync.hpp"

namespace bs::blob {

struct ClientConfig {
  std::uint32_t max_put_retries{3};  ///< fresh-provider retries per chunk
  /// Transport-level retry for every client RPC (jittered exponential
  /// backoff, deterministic via the cluster's seeded RNG). Down-node
  /// failures still fail fast; retries matter for drops and timeouts.
  rpc::RetryPolicy retry{.max_attempts = 3};
};

struct WriteReceipt {
  Version version{0};
  std::uint64_t offset{0};
  std::uint64_t size{0};
  SimDuration duration{0};
  std::uint32_t put_retries{0};
  std::uint32_t rebuilds{0};
  /// Per-chunk descriptors (key, size, checksum, replica set) of the
  /// committed write, in chunk order. Content-addressed layers use these to
  /// index where each chunk landed.
  std::vector<ChunkDescriptor> chunks;

  [[nodiscard]] double throughput_bps() const {
    const double s = simtime::to_seconds(duration);
    return s > 0 ? static_cast<double>(size) / s : 0.0;
  }
};

/// One resolved chunk of a read.
struct ChunkRead {
  std::uint64_t chunk_index{0};
  std::uint64_t offset{0};  ///< byte offset in blob space
  std::uint64_t bytes{0};
  std::uint64_t checksum{0};
  bool hole{false};
  std::shared_ptr<const std::vector<std::uint8_t>> data;  // when stored inline
};

struct ReadResult {
  Version version{0};
  std::uint64_t bytes{0};  ///< non-hole bytes delivered
  SimDuration duration{0};
  std::vector<ChunkRead> chunks;

  [[nodiscard]] double throughput_bps() const {
    const double s = simtime::to_seconds(duration);
    return s > 0 ? static_cast<double>(bytes) / s : 0.0;
  }

  /// True when every non-hole chunk carries inline bytes that lie inside
  /// [from_offset, from_offset+length), so that there is data to copy.
  [[nodiscard]] bool has_bytes(std::uint64_t from_offset,
                               std::uint64_t length) const;

  /// Copies the inline bytes into `out`, which holds blob bytes
  /// [from_offset, from_offset+out.size()); holes leave `out` untouched.
  /// Requires has_bytes(from_offset, out.size()).
  void copy_to(std::uint64_t from_offset, std::span<std::uint8_t> out) const;

  /// Reassembles inline data (zero-filling holes); nullopt, without
  /// allocating, when has_bytes(from_offset, length) is false.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> assemble(
      std::uint64_t from_offset, std::uint64_t length) const;
};

/// Per-operation record for instrumentation / experiment harnesses.
struct ClientOpInfo {
  enum class Op { create, write, append, read };
  Op op{Op::write};
  ClientId client{};
  BlobId blob{};
  Version version{0};
  std::uint64_t bytes{0};
  SimDuration duration{0};
  Errc outcome{Errc::ok};
};

class BlobClient {
 public:
  /// Addresses of the deployment's actors.
  struct Endpoints {
    NodeId version_manager;
    NodeId provider_manager;
    std::vector<NodeId> metadata_providers;
  };

  BlobClient(rpc::Node& node, ClientId id, Endpoints endpoints,
             ClientConfig config = {}, std::uint64_t rng_seed = 1);

  [[nodiscard]] ClientId id() const { return id_; }
  [[nodiscard]] rpc::Node& node() { return node_; }

  sim::Task<Result<BlobId>> create(std::uint64_t chunk_size,
                                   std::uint32_t replication = 1,
                                   SimDuration ttl = 0);

  /// Writes `data` at `offset` (must be chunk-aligned). Returns once the
  /// new version is published.
  sim::Task<Result<WriteReceipt>> write(BlobId blob, std::uint64_t offset,
                                        Payload data);

  /// Appends `data` after the current end (chunk-aligned up).
  sim::Task<Result<WriteReceipt>> append(BlobId blob, Payload data);

  /// Appends pre-split chunk payloads as one new version: payload i lands
  /// in its own chunk slot (all but the last must be exactly `chunk_size`;
  /// the last may be shorter). Used by content-addressed callers that need
  /// to control chunk boundaries; the receipt's `chunks` give each chunk's
  /// key and replica set.
  // bslint: allow(perf-large-byvalue): every caller moves its freshly
  // split chunk batch; Payload bodies are shared_ptr-backed either way
  sim::Task<Result<WriteReceipt>> append_chunks(BlobId blob,
                                                std::uint64_t chunk_size,
                                                std::vector<Payload> chunks);

  /// Probes the chunk's replicas for presence. True as soon as one replica
  /// holds it; false when every reachable replica answered and none does;
  /// an error only when no replica could be asked.
  // bslint: allow(perf-large-byvalue): replicas is replication-factor
  // sized (a handful of node ids)
  sim::Task<Result<bool>> chunk_present(ChunkKey key,
                                        std::vector<NodeId> replicas);

  /// Reads [offset, offset+length) of `version` (default: latest published).
  sim::Task<Result<ReadResult>> read(BlobId blob, std::uint64_t offset,
                                     std::uint64_t length,
                                     Version version = kLatestVersion);

  sim::Task<Result<BlobDescriptor>> stat(BlobId blob);
  sim::Task<Result<std::vector<VersionInfo>>> versions(BlobId blob);

  /// Drops published versions older than `keep_from` (data-removal
  /// strategy hook); returns the trim summary from the version manager.
  sim::Task<Result<TrimBlobResp>> trim(BlobId blob, Version keep_from);

  /// Marks the blob deleted (chunk reclamation is asynchronous).
  sim::Task<Result<void>> remove(BlobId blob);

  void set_op_observer(std::function<void(const ClientOpInfo&)> obs) {
    op_observer_ = std::move(obs);
  }

 private:
  struct WritePlan;

  /// `presplit` non-empty routes each payload into its own chunk slot
  /// (append_chunks); empty means `data` is sliced at chunk boundaries.
  // bslint: allow(perf-large-byvalue): presplit is moved by its only
  // non-empty caller (append_chunks); the default is empty
  sim::Task<Result<WriteReceipt>> write_impl(BlobId blob,
                                             std::uint64_t offset,
                                             Payload data,
                                             ClientOpInfo::Op op,
                                             std::vector<Payload> presplit = {});
  /// Stores one chunk on `replication` providers, re-allocating around
  /// failures. On success fills `desc.replicas`. The WritePlan is an
  /// in/out param owned by write_impl's frame, which joins the WaitGroup
  /// these run under before the plan dies.
  // bslint: allow(coro-ref-param): plan outlives the awaited WaitGroup
  sim::Task<Result<void>> put_chunk_replicated(WritePlan& plan,
                                               std::size_t chunk_idx);
  // bslint: allow(coro-ref-param): nodes owned by write_impl's frame,
  // which co_awaits this call in one full-expression
  sim::Task<Result<void>> put_metadata(
      const std::vector<std::pair<NodeKey, TreeNode>>& nodes,
      obs::SpanId parent);
  // bslint: allow(coro-ref-param): leaf owned by read()'s frame, which
  // joins the fetch WaitGroup before the leaf vector dies
  sim::Task<Result<ChunkRead>> fetch_chunk(const meta_ops::LeafRef& leaf,
                                           std::uint64_t chunk_size,
                                           std::uint64_t read_lo,
                                           std::uint64_t read_hi,
                                           obs::SpanId parent);
  void observe(ClientOpInfo info);
  /// Detached, best-effort failure report to the provider manager.
  void report_provider_failure(NodeId provider);

  static constexpr SimDuration kRpcTimeout = simtime::seconds(30);
  rpc::CallOptions opts(obs::SpanId parent = 0,
                        SimDuration timeout = kRpcTimeout) const;

  rpc::Node& node_;
  ClientId id_;
  Endpoints endpoints_;
  ClientConfig config_;
  Rng rng_;
  std::unique_ptr<RemoteMetadataStore> meta_store_;
  std::function<void(const ClientOpInfo&)> op_observer_;
};

}  // namespace bs::blob
