// Raw monitoring events produced by the instrumentation layer — the lowest
// layer of the paper's three-layer introspection architecture (§III-B). The
// instrumentation code in each BlobSeer actor emits these; the monitoring
// layer aggregates them into Records.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace bs::mon {

enum class MetricKind : std::uint8_t {
  chunk_write = 0,   ///< a chunk put served (value = bytes)
  chunk_read,        ///< a chunk get served (value = bytes)
  chunk_remove,      ///< a chunk removal (value = bytes freed)
  meta_op,           ///< a metadata get/put served
  control_op,        ///< version-manager / provider-manager request
  rejected_request,  ///< admission refused (blocked/throttled client)
  failed_request,    ///< served but failed (value = bytes attempted)
  client_op,         ///< client-side completed operation (value = bytes)
  provider_storage,  ///< gauge: used bytes on a provider
  provider_chunks,   ///< gauge: chunk count on a provider
  cpu_load,          ///< gauge: synthetic CPU load in [0,1]
  mem_used,          ///< gauge: synthetic memory fraction in [0,1]
  version_publish,   ///< a new blob version published (value = write bytes)
};

/// Client-side operation codes carried in MetricEvent::aux for client_op.
enum class ClientOpCode : std::uint32_t {
  create = 0,
  write,
  append,
  read,
};

struct MetricEvent {
  SimTime time{0};
  NodeId source{};
  MetricKind kind{MetricKind::chunk_write};
  ClientId client{};   ///< invalid for gauges
  BlobId blob{};       ///< invalid when not blob-related
  double value{0};     ///< bytes / gauge level
  std::uint32_t aux{0};  ///< op code, outcome code, or extra payload
  SimDuration duration{0};  ///< for ops: how long they took

  [[nodiscard]] std::uint64_t wire_size() const { return 56; }
};

}  // namespace bs::mon
