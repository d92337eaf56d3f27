#include "workload/clients.hpp"

#include "common/rng.hpp"

namespace bs::workload {

namespace {
constexpr std::uint64_t kAttackPayloadBytes = 4096;  ///< per attack request
}  // namespace

// bslint: allow(coro-ref-param): the harness owns every BlobClient for
// the full run and joins all workload tasks before teardown
sim::Task<void> Writer::run(blob::BlobClient& client, BlobId blob,
                            WriterOptions options, ClientRunStats* stats,
                            ThroughputTracker* tracker) {
  auto& sim = client.node().cluster().sim();
  co_await sim.delay_until(options.start);
  if (stats != nullptr) {
    stats->client = client.id();
    stats->started = sim.now();
  }
  std::uint64_t done = 0;
  std::uint64_t seq = 0;
  while ((options.loop_forever || done < options.total_bytes) &&
         sim.now() < options.deadline) {
    const std::uint64_t n = options.loop_forever
                                ? options.op_bytes
                                : std::min(options.op_bytes,
                                           options.total_bytes - done);
    auto r = co_await client.append(
        blob, blob::Payload::synthetic(
                  n, hash_combine(client.id().value, seq++)));
    if (r.ok()) {
      done += n;
      if (stats != nullptr) {
        ++stats->ops_ok;
        stats->bytes_done += n;
        stats->op_throughput_bps.add(r.value().throughput_bps());
        stats->op_duration_sec.add(
            simtime::to_seconds(r.value().duration));
      }
      if (tracker != nullptr) {
        tracker->record(sim.now(), static_cast<double>(n),
                        r.value().duration);
      }
    } else {
      if (stats != nullptr) ++stats->ops_failed;
      co_await sim.delay(options.retry_backoff);
    }
  }
  if (stats != nullptr) stats->finished = sim.now();
}

// bslint: allow(coro-ref-param): the harness owns every BlobClient for
// the full run and joins all workload tasks before teardown
sim::Task<void> Reader::run(blob::BlobClient& client, BlobId blob,
                            ReaderOptions options, ClientRunStats* stats,
                            ThroughputTracker* tracker) {
  auto& sim = client.node().cluster().sim();
  co_await sim.delay_until(options.start);
  if (stats != nullptr) {
    stats->client = client.id();
    stats->started = sim.now();
  }
  Rng rng(options.rng_seed);

  auto d = co_await client.stat(blob);
  if (!d.ok() || d.value().latest.size == 0) {
    if (stats != nullptr) {
      ++stats->ops_failed;
      stats->finished = sim.now();
    }
    co_return;
  }
  const std::uint64_t blob_size = d.value().latest.size;

  std::uint64_t done = 0;
  while ((options.loop_forever || done < options.total_bytes) &&
         sim.now() < options.deadline) {
    const std::uint64_t n = std::min(options.op_bytes, blob_size);
    const std::uint64_t offset =
        blob_size > n ? rng.next_below(blob_size - n + 1) : 0;
    auto r = co_await client.read(blob, offset, n);
    if (r.ok()) {
      done += r.value().bytes;
      if (stats != nullptr) {
        ++stats->ops_ok;
        stats->bytes_done += r.value().bytes;
        stats->op_throughput_bps.add(r.value().throughput_bps());
        stats->op_duration_sec.add(
            simtime::to_seconds(r.value().duration));
      }
      if (tracker != nullptr) {
        tracker->record(sim.now(),
                        static_cast<double>(r.value().bytes),
                        r.value().duration);
      }
    } else {
      if (stats != nullptr) ++stats->ops_failed;
      co_await sim.delay(options.retry_backoff);
    }
  }
  if (stats != nullptr) stats->finished = sim.now();
}

// bslint: allow(coro-ref-param): see clients.hpp — cluster-owned node
// bslint: allow(perf-large-byvalue): tiny id list, copied once per attacker
sim::Task<void> DosAttacker::run(rpc::Node& node, ClientId id,
                                 std::vector<NodeId> targets,
                                 AttackerOptions options,
                                 AttackerStats* stats) {
  auto& cluster = node.cluster();
  auto& sim = cluster.sim();
  co_await sim.delay_until(options.start);
  if (stats != nullptr) stats->client = id;
  Rng rng(options.rng_seed ^ id.value);
  const SimDuration gap =
      simtime::seconds(1.0 / std::max(options.request_rate, 1e-9));

  std::uint64_t seq = 0;
  std::size_t cursor = static_cast<std::size_t>(rng.next_below(
      std::max<std::size_t>(targets.size(), 1)));
  rpc::CallOptions call_opts;
  call_opts.client = id;
  call_opts.timeout = simtime::seconds(60);

  while (sim.now() < options.deadline && !targets.empty()) {
    const NodeId target = targets[cursor++ % targets.size()];
    blob::PutChunkReq req;
    // Garbage chunks under a fabricated blob id — the attack bypasses the
    // version manager entirely.
    req.key = blob::ChunkKey{BlobId{0xDD05u}, id.value, seq++};
    req.payload = blob::Payload::synthetic(kAttackPayloadBytes, rng.next_u64());
    if (stats != nullptr) ++stats->sent;
    // Fire-and-forget at the configured rate: a flooder does not wait for
    // responses before sending the next request.
    sim.spawn([](rpc::Cluster& c, rpc::Node& n, NodeId t,
                 blob::PutChunkReq r, rpc::CallOptions o,
                 AttackerStats* s) -> sim::Task<void> {
      auto result = co_await c.call<blob::PutChunkReq, blob::PutChunkResp>(
          n, t, std::move(r), o);
      if (s == nullptr) co_return;
      if (result.ok()) {
        ++s->served;
      } else if (result.code() == Errc::blocked ||
                 result.code() == Errc::throttled) {
        ++s->rejected;
        s->first_rejected =
            std::min(s->first_rejected, n.cluster().sim().now());
      } else {
        ++s->failed;
      }
    }(cluster, node, target, std::move(req), call_opts, stats));
    // The paper's attackers keep knocking after they are blocked.
    co_await sim.delay(gap);
  }
}

}  // namespace bs::workload
