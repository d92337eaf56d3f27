// Trace-replay workload for the S3 gateway: multiple tenants with mixed
// object sizes, zipf hot-key skew, multipart-heavy ingest, and
// overwrite-heavy delta traffic. The op stream is a pure function of the
// seed, and every response folds into a per-tenant digest (combined in
// tenant order), so the same trace must produce identical digests across
// replays.
#pragma once

#include "cloud/gateway.hpp"
#include "common/rng.hpp"

namespace bs::workload {

/// Tenant t runs as ClientId{kFirstTenantId + t}.
inline constexpr std::uint64_t kFirstTenantId = 1000;

struct GatewayTraceConfig {
  std::uint32_t tenants{4};
  std::uint32_t keys_per_tenant{32};
  std::uint32_t ops_per_tenant{64};
  /// Must match the gateway's object_chunk_size: delta ops and per-chunk
  /// content checksums are computed at this granularity.
  std::uint64_t chunk_size{4 * units::MB};
  std::uint64_t max_object_chunks{8};
  std::uint32_t multipart_parts{4};
  /// Probability a chunk's content comes from the cross-tenant shared pool
  /// (the dedup opportunity); otherwise the content is tenant-unique.
  double shared_content_ratio{0.5};
  SimDuration think_time{simtime::millis(20)};
  std::uint64_t rng_seed{42};
};

struct GatewayTraceStats {
  std::uint64_t puts{0};
  std::uint64_t multipart_puts{0};
  std::uint64_t delta_puts{0};
  std::uint64_t gets{0};
  std::uint64_t lists{0};
  std::uint64_t deletes{0};
  std::uint64_t failures{0};
  std::uint64_t logical_bytes{0};  ///< object bytes presented to the gateway
  std::uint64_t wire_bytes{0};     ///< payload bytes actually shipped to it
  std::uint64_t digest{0};         ///< per-tenant digests, tenant order
};

class GatewayTrace {
 public:
  /// Replays the whole trace against the gateway: one sequential actor per
  /// tenant (each under its own ClientId), joined before returning.
  // bslint: allow(coro-ref-param): the harness owns node and stats for the
  // full run and this task is joined before teardown
  static sim::Task<void> run(rpc::Node& client_node, NodeId gateway,
                             GatewayTraceConfig config,
                             GatewayTraceStats* stats);
};

}  // namespace bs::workload
