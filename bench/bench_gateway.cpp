// Gateway bench for the content-addressed multi-tenant S3 front: measures
// what each of the three ingest optimisations buys, in simulated time.
//
//   dedup sweep     : the trace-replay workload (4 tenants, zipf keys,
//                     mixed put/multipart/delta traffic) at shared-content
//                     ratios 0.25 / 0.5 / 0.75 with dedup on, plus a
//                     dedup-off baseline replay of the identical trace.
//                     Reports ingest throughput (logical bytes over the
//                     trace's sim duration), dedup ratio (provider bytes
//                     saved / logical bytes ingested) and bytes that
//                     actually reached providers.
//   multipart sweep : one 8-part upload (2 MB parts), parts shipped
//                     one-at-a-time vs all-at-once — the sim-time speedup
//                     of the parallel part path for the same object.
//   delta sweep     : a 16-chunk object overwritten with 2 / 6 / 12 chunks
//                     changed, as a delta vs as a full-object PUT of the
//                     same new content (each against a fresh deployment
//                     holding the same base). Dedup already spares the
//                     providers the unchanged chunks on the full PUT; the
//                     delta additionally keeps them off the wire, so the
//                     bench reports both wire bytes and provider bytes.
//
// Everything is measured in simulated time, so the numbers are
// bit-identical across machines; the bench replays the whole suite and
// fails if the digest moves. Output is JSON (redirect to BENCH_gateway.json).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blob/deployment.hpp"
#include "cloud/gateway.hpp"
#include "common/hash.hpp"
#include "workload/gateway_trace.hpp"

namespace {

using namespace bs;

constexpr std::uint64_t kChunk = 1 * units::MB;
constexpr ClientId kUser{7001};

struct Options {
  std::vector<double> shared_ratios{0.25, 0.5, 0.75};
  std::vector<std::uint64_t> delta_changed{2, 6, 12};
  int repeat = 2;      // full-suite replays; digests must match
  bool smoke = false;  // single ratio / single delta, shorter trace
};

/// One gateway deployment: 6 providers on one site, journal-backed
/// metadata, the gateway and a client node. The production-shaped stack
/// the tests use, minus faults.
struct Env {
  sim::Simulation sim;
  std::unique_ptr<blob::Deployment> dep;
  rpc::Node* gw_node{nullptr};
  std::unique_ptr<cloud::S3Gateway> gateway;
  rpc::Node* user{nullptr};

  explicit Env(bool dedup) {
    blob::DeploymentConfig cfg;
    cfg.sites = 1;
    cfg.data_providers = 6;
    cfg.metadata_providers = 2;
    cfg.provider_capacity = 4ull * units::GB;
    cfg.journal.enabled = true;
    dep = std::make_unique<blob::Deployment>(sim, cfg);
    gw_node = dep->cluster().add_node(0);
    cloud::GatewayOptions gopts;
    gopts.object_chunk_size = kChunk;
    gopts.dedup = dedup;
    gopts.journal.enabled = true;
    gateway = std::make_unique<cloud::S3Gateway>(*gw_node, dep->endpoints(),
                                                gopts);
    user = dep->cluster().add_node(0);
  }
};

/// Runs one gateway RPC to completion, advancing sim time in 1 ms steps
/// (quantizes durations, but identically so on every run).
template <class Req, class Resp>
Result<Resp> call(Env& e, Req req) {
  std::optional<Result<Resp>> out;
  rpc::CallOptions copts;
  copts.client = kUser;
  e.sim.spawn([](rpc::Cluster& cl, rpc::Node& src, NodeId dst, Req rq,
                 rpc::CallOptions co,
                 std::optional<Result<Resp>>& o) -> sim::Task<void> {
    o.emplace(co_await cl.call<Req, Resp>(src, dst, std::move(rq), co));
  }(e.dep->cluster(), *e.user, e.gw_node->id(), std::move(req), copts, out));
  const SimTime deadline = e.sim.now() + simtime::minutes(5);
  while (!out && e.sim.now() < deadline) {
    e.sim.run_until(e.sim.now() + simtime::millis(1));
  }
  if (!out) {
    std::fprintf(stderr, "FATAL: gateway call never completed\n");
    std::abort();
  }
  return std::move(*out);
}

/// Whole-object checksum of a synthetic chunk layout (the trace's recipe:
/// the gateway adopts the payload checksum as the etag).
std::uint64_t object_checksum(std::uint64_t size,
                              const std::vector<std::uint64_t>& sums) {
  std::uint64_t d = fnv1a_u64(size);
  for (std::uint64_t s : sums) d = hash_combine(d, s);
  return d;
}

void make_bucket(Env& e, const std::string& bucket) {
  cloud::S3CreateBucketReq mk;
  mk.bucket = bucket;
  auto r = call<cloud::S3CreateBucketReq, cloud::S3CreateBucketResp>(e, mk);
  if (!r.ok()) {
    std::fprintf(stderr, "FATAL: create_bucket failed\n");
    std::abort();
  }
}

/// Full-object PUT of a synthetic layout; returns the etag.
std::uint64_t put_object(Env& e, const std::string& bucket,
                         const std::string& key,
                         const std::vector<std::uint64_t>& sums) {
  cloud::S3PutObjectReq put;
  put.bucket = bucket;
  put.key = key;
  put.payload.size = sums.size() * kChunk;
  put.payload.checksum = object_checksum(put.payload.size, sums);
  put.chunk_sums = sums;
  auto r = call<cloud::S3PutObjectReq, cloud::S3PutObjectResp>(
      e, std::move(put));
  if (!r.ok()) {
    std::fprintf(stderr, "FATAL: put_object failed\n");
    std::abort();
  }
  return r.value().etag;
}

// ---------------------------------------------------------------------------
// Scenario 1: trace-replay dedup sweep.

struct TraceResult {
  double shared_ratio{0};
  bool dedup{true};
  workload::GatewayTraceStats trace;
  std::uint64_t chunks_ingested{0};
  std::uint64_t dedup_hits{0};
  std::uint64_t bytes_to_providers{0};
  std::uint64_t bytes_saved{0};
  SimDuration elapsed{0};
  std::uint64_t state_digest{0};

  [[nodiscard]] double dedup_ratio() const {
    const double logical = static_cast<double>(trace.logical_bytes);
    return logical > 0 ? static_cast<double>(bytes_saved) / logical : 0.0;
  }
  [[nodiscard]] double throughput_mbps() const {
    const double s = simtime::to_seconds(elapsed);
    return s > 0 ? static_cast<double>(trace.logical_bytes) / 1e6 / s : 0.0;
  }
};

TraceResult run_trace(double shared_ratio, bool dedup, bool smoke) {
  Env e(dedup);
  workload::GatewayTraceConfig tc;
  tc.tenants = 4;
  tc.keys_per_tenant = 12;
  tc.ops_per_tenant = smoke ? 12 : 48;
  tc.chunk_size = kChunk;
  tc.max_object_chunks = 6;
  tc.shared_content_ratio = shared_ratio;
  tc.think_time = simtime::millis(20);
  tc.rng_seed = 0xBEAC4ull;  // identical op stream for the on/off pair

  bool done = false;
  TraceResult r;
  r.shared_ratio = shared_ratio;
  r.dedup = dedup;
  e.sim.spawn([](rpc::Node& n, NodeId gw, workload::GatewayTraceConfig c,
                 workload::GatewayTraceStats* st,
                 bool& flag) -> sim::Task<void> {
    co_await workload::GatewayTrace::run(n, gw, c, st);
    flag = true;
  }(*e.user, e.gw_node->id(), tc, &r.trace, done));

  // Poll at 50 ms; the completion time IS the throughput denominator.
  const SimTime deadline = simtime::minutes(120);
  while (!done && e.sim.now() < deadline) {
    e.sim.run_until(e.sim.now() + simtime::millis(50));
  }
  r.elapsed = e.sim.now();

  const cloud::GatewayStats& gs = e.gateway->stats();
  r.chunks_ingested = gs.chunks_ingested;
  r.dedup_hits = gs.dedup_hits;
  r.bytes_to_providers = gs.bytes_to_providers;
  r.bytes_saved = gs.bytes_saved;
  r.state_digest = e.gateway->state_digest();
  return r;
}

// ---------------------------------------------------------------------------
// Scenario 2: sequential vs concurrent multipart parts.

struct MultipartResult {
  std::uint32_t parts{0};
  std::uint64_t part_bytes{0};
  SimDuration sequential{0};
  SimDuration concurrent{0};

  [[nodiscard]] double speedup() const {
    const double c = static_cast<double>(concurrent);
    return c > 0 ? static_cast<double>(sequential) / c : 0.0;
  }
};

/// One multipart upload of `parts` parts, `chunks_per_part` chunks each,
/// content namespaced by `salt` so the two modes never dedup against each
/// other. Returns create->complete sim time.
SimDuration run_one_upload(Env& e, const std::string& key, bool concurrent,
                           std::uint32_t parts,
                           std::uint64_t chunks_per_part,
                           std::uint64_t salt) {
  cloud::S3CreateMultipartReq mk;
  mk.bucket = "bench";
  mk.key = key;
  auto created =
      call<cloud::S3CreateMultipartReq, cloud::S3CreateMultipartResp>(e, mk);
  if (!created.ok()) {
    std::fprintf(stderr, "FATAL: create_multipart failed\n");
    std::abort();
  }
  const SimTime t0 = e.sim.now();

  auto build_part = [&](std::uint32_t p) {
    cloud::S3UploadPartReq up;
    up.bucket = "bench";
    up.key = key;
    up.upload_id = created.value().upload_id;
    up.part_number = p + 1;
    for (std::uint64_t c = 0; c < chunks_per_part; ++c) {
      up.chunk_sums.push_back(fnv1a_u64(salt * 1000 + p * 100 + c));
    }
    up.payload.size = chunks_per_part * kChunk;
    up.payload.checksum = object_checksum(up.payload.size, up.chunk_sums);
    return up;
  };

  if (concurrent) {
    std::uint32_t landed = 0;
    for (std::uint32_t p = 0; p < parts; ++p) {
      e.sim.spawn([](rpc::Cluster& cl, rpc::Node& src, NodeId dst,
                     cloud::S3UploadPartReq rq, rpc::CallOptions co,
                     std::uint32_t& n) -> sim::Task<void> {
        auto resp = co_await cl.call<cloud::S3UploadPartReq,
                                     cloud::S3UploadPartResp>(
            src, dst, std::move(rq), co);
        if (!resp.ok()) {
          std::fprintf(stderr, "FATAL: upload_part failed\n");
          std::abort();
        }
        ++n;
      }(e.dep->cluster(), *e.user, e.gw_node->id(), build_part(p),
        rpc::CallOptions{.client = kUser}, landed));
    }
    const SimTime deadline = e.sim.now() + simtime::minutes(5);
    while (landed < parts && e.sim.now() < deadline) {
      e.sim.run_until(e.sim.now() + simtime::millis(1));
    }
  } else {
    for (std::uint32_t p = 0; p < parts; ++p) {
      auto resp = call<cloud::S3UploadPartReq, cloud::S3UploadPartResp>(
          e, build_part(p));
      if (!resp.ok()) {
        std::fprintf(stderr, "FATAL: upload_part failed\n");
        std::abort();
      }
    }
  }

  cloud::S3CompleteMultipartReq fin;
  fin.bucket = "bench";
  fin.key = key;
  fin.upload_id = created.value().upload_id;
  fin.part_count = parts;
  auto done = call<cloud::S3CompleteMultipartReq,
                   cloud::S3CompleteMultipartResp>(e, fin);
  if (!done.ok()) {
    std::fprintf(stderr, "FATAL: complete_multipart failed\n");
    std::abort();
  }
  return e.sim.now() - t0;
}

MultipartResult run_multipart(std::uint32_t parts,
                              std::uint64_t chunks_per_part) {
  Env e(/*dedup=*/true);
  make_bucket(e, "bench");
  MultipartResult r;
  r.parts = parts;
  r.part_bytes = chunks_per_part * kChunk;
  r.sequential = run_one_upload(e, "seq", /*concurrent=*/false, parts,
                                chunks_per_part, /*salt=*/1);
  r.concurrent = run_one_upload(e, "par", /*concurrent=*/true, parts,
                                chunks_per_part, /*salt=*/2);
  return r;
}

// ---------------------------------------------------------------------------
// Scenario 3: delta sync vs full overwrite.

struct DeltaResult {
  std::uint64_t object_chunks{0};
  std::uint64_t chunks_changed{0};
  std::uint64_t delta_wire_bytes{0};
  std::uint64_t full_wire_bytes{0};
  std::uint64_t delta_provider_bytes{0};
  std::uint64_t full_provider_bytes{0};
  std::uint32_t chunks_shipped{0};
  std::uint32_t chunks_shared{0};
  SimDuration delta_time{0};
  SimDuration full_time{0};

  [[nodiscard]] double wire_reduction() const {
    const double full = static_cast<double>(full_wire_bytes);
    return full > 0
               ? 1.0 - static_cast<double>(delta_wire_bytes) / full
               : 0.0;
  }
};

DeltaResult run_delta(std::uint64_t object_chunks,
                      std::uint64_t chunks_changed) {
  DeltaResult r;
  r.object_chunks = object_chunks;
  r.chunks_changed = chunks_changed;

  std::vector<std::uint64_t> base(object_chunks);
  for (std::uint64_t i = 0; i < object_chunks; ++i) {
    base[i] = fnv1a_u64(0xD417Aull + i);
  }
  std::vector<std::uint64_t> next = base;
  for (std::uint64_t i = 0; i < chunks_changed; ++i) {
    next[i] = fnv1a_u64(0xFE11ull + i);
  }
  const std::uint64_t size = object_chunks * kChunk;

  {  // Delta path: ship only the changed chunks.
    Env e(/*dedup=*/true);
    make_bucket(e, "bench");
    const std::uint64_t base_etag = put_object(e, "bench", "obj", base);
    cloud::S3PutDeltaReq req;
    req.bucket = "bench";
    req.key = "obj";
    req.base_etag = base_etag;
    req.new_size = size;
    req.new_etag = object_checksum(size, next);
    for (std::uint64_t i = 0; i < chunks_changed; ++i) {
      cloud::S3DeltaChunk dc;
      dc.index = i;
      dc.payload.size = kChunk;
      dc.payload.checksum = next[i];
      req.chunks.push_back(std::move(dc));
    }
    r.delta_wire_bytes = req.wire_size();
    const std::uint64_t before = e.gateway->stats().bytes_to_providers;
    const SimTime t0 = e.sim.now();
    auto resp = call<cloud::S3PutDeltaReq, cloud::S3PutDeltaResp>(
        e, std::move(req));
    if (!resp.ok()) {
      std::fprintf(stderr, "FATAL: put_delta failed\n");
      std::abort();
    }
    r.delta_time = e.sim.now() - t0;
    r.delta_provider_bytes = e.gateway->stats().bytes_to_providers - before;
    r.chunks_shipped = resp.value().chunks_shipped;
    r.chunks_shared = resp.value().chunks_shared;
  }

  {  // Full overwrite of the same new content against the same base, in a
     // fresh deployment so nothing leaks between the two measurements.
    Env e(/*dedup=*/true);
    make_bucket(e, "bench");
    put_object(e, "bench", "obj", base);
    cloud::S3PutObjectReq put;
    put.bucket = "bench";
    put.key = "obj";
    put.payload.size = size;
    put.payload.checksum = object_checksum(size, next);
    put.chunk_sums = next;
    r.full_wire_bytes = put.wire_size();
    const std::uint64_t before = e.gateway->stats().bytes_to_providers;
    const SimTime t0 = e.sim.now();
    auto resp = call<cloud::S3PutObjectReq, cloud::S3PutObjectResp>(
        e, std::move(put));
    if (!resp.ok()) {
      std::fprintf(stderr, "FATAL: full overwrite failed\n");
      std::abort();
    }
    r.full_time = e.sim.now() - t0;
    r.full_provider_bytes = e.gateway->stats().bytes_to_providers - before;
  }
  return r;
}

// ---------------------------------------------------------------------------

double ms(SimDuration d) { return static_cast<double>(d) / 1e6; }

struct SuiteResult {
  std::vector<TraceResult> traces;  ///< dedup-on sweep + dedup-off baselines
  std::vector<MultipartResult> multipart;
  std::vector<DeltaResult> deltas;
  std::uint64_t digest{0};
};

SuiteResult run_suite(const Options& opt) {
  SuiteResult suite;
  for (const double ratio : opt.shared_ratios) {
    suite.traces.push_back(run_trace(ratio, /*dedup=*/true, opt.smoke));
    suite.traces.push_back(run_trace(ratio, /*dedup=*/false, opt.smoke));
  }
  suite.multipart.push_back(run_multipart(/*parts=*/8,
                                          /*chunks_per_part=*/2));
  for (const std::uint64_t changed : opt.delta_changed) {
    suite.deltas.push_back(run_delta(/*object_chunks=*/16, changed));
  }

  // The suite digest: any change in a reported counter or sim-time value
  // moves it.
  Digest dg{0x9e3779b97f4a7c15ull};
  for (const TraceResult& r : suite.traces) {
    dg.mix(r.dedup ? 1 : 0);
    dg.mix(r.trace.digest);
    dg.mix(r.trace.puts + r.trace.multipart_puts + r.trace.delta_puts);
    dg.mix(r.trace.failures);
    dg.mix(r.trace.logical_bytes);
    dg.mix(r.trace.wire_bytes);
    dg.mix(r.chunks_ingested);
    dg.mix(r.dedup_hits);
    dg.mix(r.bytes_to_providers);
    dg.mix(r.bytes_saved);
    dg.mix(r.state_digest);
    dg.mix_signed(r.elapsed);
  }
  for (const MultipartResult& r : suite.multipart) {
    dg.mix_signed(r.sequential);
    dg.mix_signed(r.concurrent);
  }
  for (const DeltaResult& r : suite.deltas) {
    dg.mix(r.delta_wire_bytes);
    dg.mix(r.full_wire_bytes);
    dg.mix(r.delta_provider_bytes);
    dg.mix(r.full_provider_bytes);
    dg.mix(r.chunks_shipped);
    dg.mix(r.chunks_shared);
    dg.mix_signed(r.delta_time);
    dg.mix_signed(r.full_time);
  }
  suite.digest = dg.value();
  return suite;
}

// The claims the bench exists to demonstrate, enforced so bench-smoke
// turns a regression into a hard failure: dedup strictly cuts provider
// bytes on the identical trace and the saving grows with shared content;
// concurrent parts beat sequential parts; a delta ships strictly fewer
// wire bytes than the full overwrite and names exactly the changed chunks.
bool check_orderings(const SuiteResult& suite) {
  bool ok = true;
  auto fail = [&ok](const char* what, double a) {
    std::fprintf(stderr, "FAIL: ordering '%s' violated (%g)\n", what, a);
    ok = false;
  };

  double prev_saved = -1.0;
  for (std::size_t i = 0; i + 1 < suite.traces.size(); i += 2) {
    const TraceResult& on = suite.traces[i];
    const TraceResult& off = suite.traces[i + 1];
    if (on.trace.failures != 0 || off.trace.failures != 0) {
      fail("trace replay is failure-free", on.shared_ratio);
    }
    // The op stream is seed-driven and fault-free, so the baseline must
    // replay the exact same workload (the digests differ only through the
    // chunks_deduped counters the responses carry).
    if (on.trace.logical_bytes != off.trace.logical_bytes ||
        on.trace.puts != off.trace.puts ||
        on.trace.delta_puts != off.trace.delta_puts) {
      fail("on/off replay the identical trace", on.shared_ratio);
    }
    if (on.dedup_hits == 0) fail("dedup hits occur", on.shared_ratio);
    if (on.bytes_to_providers >= off.bytes_to_providers) {
      fail("dedup cuts provider bytes", on.shared_ratio);
    }
    if (off.bytes_saved != 0) {
      fail("dedup-off baseline saves nothing", on.shared_ratio);
    }
    if (static_cast<double>(on.bytes_saved) <= prev_saved) {
      fail("saving grows with shared content", on.shared_ratio);
    }
    prev_saved = static_cast<double>(on.bytes_saved);
  }
  for (const MultipartResult& r : suite.multipart) {
    if (r.concurrent >= r.sequential) {
      fail("concurrent parts beat sequential", r.parts);
    }
  }
  std::uint64_t prev_wire = 0;
  for (const DeltaResult& r : suite.deltas) {
    if (r.delta_wire_bytes >= r.full_wire_bytes) {
      fail("delta ships fewer wire bytes",
           static_cast<double>(r.chunks_changed));
    }
    if (r.chunks_shipped != r.chunks_changed ||
        r.chunks_shared != r.object_chunks - r.chunks_changed) {
      fail("delta names exactly the changed chunks",
           static_cast<double>(r.chunks_changed));
    }
    if (r.delta_wire_bytes <= prev_wire) {
      fail("delta cost grows with changed chunks",
           static_cast<double>(r.chunks_changed));
    }
    prev_wire = r.delta_wire_bytes;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--repeat=", 0) == 0) {
      opt.repeat = std::atoi(arg.substr(arg.find('=') + 1).c_str());
      if (opt.repeat < 1) opt.repeat = 1;
    } else if (arg == "--smoke") {
      opt.smoke = true;
      opt.shared_ratios = {0.5};
      opt.delta_changed = {6};
    } else {
      std::fprintf(stderr, "usage: %s [--repeat=N] [--smoke]\n", argv[0]);
      return 2;
    }
  }

  const SuiteResult suite = run_suite(opt);
  bool reproducible = true;
  for (int i = 1; i < opt.repeat; ++i) {
    const SuiteResult again = run_suite(opt);
    reproducible = reproducible && again.digest == suite.digest;
  }
  const bool orderings_ok = check_orderings(suite);

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_gateway\",\n");
  std::printf("  \"smoke\": %s,\n", opt.smoke ? "true" : "false");
  std::printf("  \"chunk_bytes\": %" PRIu64 ",\n", kChunk);
  std::printf("  \"dedup_sweep\": [\n");
  for (std::size_t i = 0; i < suite.traces.size(); ++i) {
    const TraceResult& r = suite.traces[i];
    std::printf("    {\"shared_content_ratio\": %g, \"dedup\": %s, "
                "\"logical_mb\": %.1f, "
                "\"provider_mb\": %.1f, "
                "\"saved_mb\": %.1f, "
                "\"dedup_ratio\": %.3f, "
                "\"chunks_ingested\": %" PRIu64 ", "
                "\"dedup_hits\": %" PRIu64 ", "
                "\"trace_sim_s\": %.1f, "
                "\"ingest_mb_per_sim_s\": %.1f, "
                "\"failures\": %" PRIu64 "}%s\n",
                r.shared_ratio, r.dedup ? "true" : "false",
                static_cast<double>(r.trace.logical_bytes) / 1e6,
                static_cast<double>(r.bytes_to_providers) / 1e6,
                static_cast<double>(r.bytes_saved) / 1e6, r.dedup_ratio(),
                r.chunks_ingested, r.dedup_hits,
                simtime::to_seconds(r.elapsed), r.throughput_mbps(),
                r.trace.failures, i + 1 < suite.traces.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"multipart\": [\n");
  for (std::size_t i = 0; i < suite.multipart.size(); ++i) {
    const MultipartResult& r = suite.multipart[i];
    std::printf("    {\"parts\": %u, \"part_mb\": %.1f, "
                "\"sequential_ms\": %.1f, "
                "\"concurrent_ms\": %.1f, "
                "\"speedup\": %.2f}%s\n",
                r.parts, static_cast<double>(r.part_bytes) / 1e6,
                ms(r.sequential), ms(r.concurrent), r.speedup(),
                i + 1 < suite.multipart.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"delta_sweep\": [\n");
  for (std::size_t i = 0; i < suite.deltas.size(); ++i) {
    const DeltaResult& r = suite.deltas[i];
    std::printf("    {\"object_chunks\": %" PRIu64 ", "
                "\"chunks_changed\": %" PRIu64 ", "
                "\"delta_wire_mb\": %.2f, "
                "\"full_wire_mb\": %.2f, "
                "\"wire_reduction\": %.3f, "
                "\"delta_provider_mb\": %.2f, "
                "\"full_provider_mb\": %.2f, "
                "\"chunks_shipped\": %u, \"chunks_shared\": %u, "
                "\"delta_ms\": %.1f, \"full_put_ms\": %.1f}%s\n",
                r.object_chunks, r.chunks_changed,
                static_cast<double>(r.delta_wire_bytes) / 1e6,
                static_cast<double>(r.full_wire_bytes) / 1e6,
                r.wire_reduction(),
                static_cast<double>(r.delta_provider_bytes) / 1e6,
                static_cast<double>(r.full_provider_bytes) / 1e6,
                r.chunks_shipped, r.chunks_shared, ms(r.delta_time),
                ms(r.full_time), i + 1 < suite.deltas.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"orderings_ok\": %s,\n", orderings_ok ? "true" : "false");
  std::printf("  \"reproducible\": %s,\n", reproducible ? "true" : "false");
  std::printf("  \"digest\": \"%016" PRIx64 "\"\n", suite.digest);
  std::printf("}\n");

  if (!reproducible) {
    std::fprintf(stderr, "FAIL: suite digest moved across replays\n");
    return 1;
  }
  return orderings_ok ? 0 : 1;
}
