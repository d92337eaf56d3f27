// Workload actors of the evaluation section: correct writers/readers (the
// "clients, each of them writing 1 GB of data to BlobSeer" of §IV-B) and the
// DoS attackers of §IV-C, which flood data providers with small write
// requests to exhaust their service capacity.
#pragma once

#include "blob/client.hpp"
#include "workload/stats.hpp"

namespace bs::workload {

struct WriterOptions {
  std::uint64_t total_bytes{1 * units::GB};
  std::uint64_t op_bytes{64 * units::MB};  ///< bytes appended per operation
  SimTime start{0};
  SimTime deadline{simtime::kInfinite};  ///< stop even if unfinished
  bool loop_forever{false};              ///< keep writing until deadline
  SimDuration retry_backoff{simtime::seconds(1)};
};

/// Honest writer: appends op_bytes at a time to its blob, retrying failed
/// ops after a backoff.
class Writer {
 public:
  // bslint: allow(coro-ref-param): the harness owns every BlobClient for
  // the full run and joins all workload tasks before teardown
  static sim::Task<void> run(blob::BlobClient& client, BlobId blob,
                             WriterOptions options, ClientRunStats* stats,
                             ThroughputTracker* tracker = nullptr);
};

struct ReaderOptions {
  std::uint64_t total_bytes{1 * units::GB};
  std::uint64_t op_bytes{64 * units::MB};
  SimTime start{0};
  SimTime deadline{simtime::kInfinite};
  bool loop_forever{false};
  std::uint64_t rng_seed{7};
  SimDuration retry_backoff{simtime::seconds(1)};
};

/// Honest reader: reads op_bytes ranges at random offsets of a blob.
class Reader {
 public:
  // bslint: allow(coro-ref-param): the harness owns every BlobClient for
  // the full run and joins all workload tasks before teardown
  static sim::Task<void> run(blob::BlobClient& client, BlobId blob,
                             ReaderOptions options, ClientRunStats* stats,
                             ThroughputTracker* tracker = nullptr);
};

struct AttackerOptions {
  double request_rate{200.0};          ///< small writes per second
  SimTime start{0};
  SimTime deadline{simtime::kInfinite};
  std::uint64_t rng_seed{13};
};

struct AttackerStats {
  ClientId client{};
  std::uint64_t sent{0};
  std::uint64_t served{0};
  std::uint64_t rejected{0};  ///< admission refusals (blocked/throttled)
  std::uint64_t failed{0};
  SimTime first_rejected{simtime::kInfinite};  ///< = detection feedback time
};

/// DoS attacker: floods the given data providers with tiny chunk writes at
/// a fixed request rate, saturating their service queues. Uses raw provider
/// RPCs (not the client library) so the version manager is untouched —
/// matching an attacker that bypasses the normal write protocol.
class DosAttacker {
 public:
  // bslint: allow(coro-ref-param): the attacker's node is cluster-owned
  // for the full run; the harness joins attackers before teardown
  // bslint: allow(perf-large-byvalue): tiny id list, copied once per attacker
  static sim::Task<void> run(rpc::Node& node, ClientId id,
                             std::vector<NodeId> targets,
                             AttackerOptions options, AttackerStats* stats);
};

}  // namespace bs::workload
