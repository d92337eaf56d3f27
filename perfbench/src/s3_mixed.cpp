// s3_mixed: the benchmark's own seeded S3 traffic, modelled on
// workload::GatewayTrace, against cloud::S3Gateway over a BlobSeer
// deployment with the journal and dedup on (monitoring and security off).
//
// Each tenant is a closed loop with exponential think time issuing PUT,
// GET, delta PUT, multipart upload, LIST and DELETE over zipf-hot keys;
// chunk contents are drawn from a cross-tenant shared pool (the dedup
// opportunity) or are tenant-unique. Every op is timed in simulated time.
// Objects are preloaded during setup. After the timed phase a final sweep
// GETs every live object and LISTs every bucket: each acknowledged write
// must read back with its etag and size, and no deleted key may appear.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "blob/deployment.hpp"
#include "cloud/gateway.hpp"
#include "common/hash.hpp"
#include "report.hpp"
#include "sim/sync.hpp"
#include "trace_fold.hpp"

namespace perfbench {
namespace {

using namespace bs;
using namespace bs::cloud;

constexpr std::uint64_t kChunk = 1 * units::MB;

struct Params {
  std::uint32_t tenants{8};
  std::uint32_t ops_per_tenant{1000};
  std::uint32_t keys_per_tenant{24};
  std::uint32_t preload_per_tenant{12};
  std::uint64_t max_object_chunks{6};
  double hot_key_skew{0.9};
  double shared_content_ratio{0.5};
  std::uint64_t shared_pool{64};
  std::uint32_t multipart_parts{3};
  double delta_change_ratio{0.25};
  SimDuration mean_think{simtime::millis(20)};
};

/// A tenant's view of one live object: chunk layout, per-chunk content
/// checksums (for deltas) and the etag its last acknowledged write got.
struct KeyState {
  std::uint64_t chunks{0};
  std::uint64_t tail{0};
  std::vector<std::uint64_t> sums;
  std::uint64_t etag{0};
  [[nodiscard]] std::uint64_t size() const {
    return (chunks - 1) * kChunk + tail;
  }
};

struct TenantLog {
  std::vector<double> write_ms;
  std::vector<double> read_ms;
  std::uint64_t ops{0};
  std::uint64_t failed{0};
  std::uint64_t bytes{0};  ///< payload bytes moved over the wire
  std::uint64_t verified{0};
  std::uint64_t mismatches{0};
  std::string first_mismatch;
  Digest digest;
};

/// One tenant: its identity, bucket, RNG and live-object table.
struct Tenant {
  rpc::Node* node{nullptr};
  NodeId gw{};
  ClientId user{};
  std::string bucket;
  Rng rng;
  std::uint64_t uniq{0};
  std::map<std::string, KeyState> objects;
  TenantLog log;

  /// One S3 verb under a benchmark span (the rpc.call span nests in it).
  template <class Req, class Resp>
  sim::Task<Result<Resp>> call(Req req) {
    rpc::CallOptions opts;
    opts.client = user;
    opts.timeout = simtime::minutes(2);
    obs::Span span;
    if (auto* ts = obs::sink()) {
      span = ts->span(Req::kName, "bench", 0,
                      {"client", static_cast<std::int64_t>(user.value)});
      opts.parent_span = span.id();
    }
    auto r = co_await node->cluster().call<Req, Resp>(*node, gw,
                                                      std::move(req), opts);
    span.end(errc_name(r.code()));
    co_return r;
  }
};

/// One built deployment. Tenants come first and the simulation before the
/// stack: the stack is destroyed first, then the simulation tears down the
/// suspended tenant actors, then the tenants they point at.
struct Env {
  std::vector<Tenant> tenants;
  bool preload_ok{true};

  sim::Simulation sim;
  std::unique_ptr<blob::Deployment> dep;
  rpc::Node* gw_node{nullptr};
  std::unique_ptr<S3Gateway> gateway;
  rpc::Node* user_node{nullptr};

  void build() {
    blob::JournalOptions journal;
    journal.enabled = true;
    journal.checkpoint_records = 512;
    blob::DeploymentConfig cfg;
    cfg.sites = 1;
    cfg.data_providers = 8;
    cfg.metadata_providers = 2;
    cfg.provider_capacity = 16ull * units::GB;
    cfg.journal = journal;
    dep = std::make_unique<blob::Deployment>(sim, cfg);
    gw_node = dep->cluster().add_node(0);
    GatewayOptions gopts;
    gopts.object_chunk_size = kChunk;
    gopts.dedup = true;
    gopts.journal = journal;
    gateway = std::make_unique<S3Gateway>(*gw_node, dep->endpoints(), gopts);
    user_node = dep->cluster().add_node(0);
  }
};

std::uint64_t object_checksum(std::uint64_t size,
                              const std::vector<std::uint64_t>& sums) {
  std::uint64_t d = fnv1a_u64(size);
  for (std::uint64_t s : sums) d = hash_combine(d, s);
  return d;
}

std::uint64_t content_sum(Tenant& t, std::uint32_t index, const Params& p) {
  if (t.rng.chance(p.shared_content_ratio)) {
    return fnv1a_u64(0x5A5Aull ^ t.rng.next_below(p.shared_pool));
  }
  return fnv1a_u64((static_cast<std::uint64_t>(index) << 40) | ++t.uniq);
}

KeyState fresh_layout(Tenant& t, std::uint32_t index, const Params& p) {
  KeyState k;
  k.chunks = 1 + t.rng.next_below(p.max_object_chunks);
  k.tail = t.rng.chance(0.3) ? 1 + t.rng.next_below(kChunk) : kChunk;
  k.sums.resize(k.chunks);
  for (auto& s : k.sums) s = content_sum(t, index, p);
  k.etag = object_checksum(k.size(), k.sums);
  return k;
}

// Tenants are owned by the Env and outlive every actor of its simulation.
sim::Task<bool> put_object(Tenant& t, std::string key, KeyState next) {
  S3PutObjectReq put;
  put.bucket = t.bucket;
  put.key = key;
  put.payload.size = next.size();
  put.payload.checksum = next.etag;
  put.chunk_sums = next.sums;
  auto r = co_await t.call<S3PutObjectReq, S3PutObjectResp>(std::move(put));
  if (!r.ok()) co_return false;
  t.log.digest.mix(r.value().etag);
  t.log.digest.mix(r.value().chunks_deduped);
  t.log.bytes += next.size();
  next.etag = r.value().etag;
  t.objects[key] = std::move(next);
  co_return true;
}

sim::Task<bool> put_delta(Tenant& t, std::string key, const Params& p,
                          std::uint32_t index) {
  const KeyState& base = t.objects.at(key);
  KeyState next = base;
  const auto changed = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(p.delta_change_ratio *
                                    static_cast<double>(next.chunks)));
  for (std::uint64_t c = 0; c < changed; ++c) {
    next.sums[t.rng.next_below(next.chunks)] = content_sum(t, index, p);
  }
  S3PutDeltaReq req;
  req.bucket = t.bucket;
  req.key = key;
  req.base_etag = base.etag;
  std::uint64_t shipped = 0;
  for (std::uint64_t i = 0; i < next.chunks; ++i) {
    if (next.sums[i] == base.sums[i]) continue;
    S3DeltaChunk dc;
    dc.index = i;
    const std::uint64_t slot = i + 1 == next.chunks ? next.tail : kChunk;
    dc.payload.size = slot;
    dc.payload.checksum = next.sums[i];
    shipped += slot;
    req.chunks.push_back(std::move(dc));
  }
  req.new_size = next.size();
  next.etag = object_checksum(next.size(), next.sums);
  req.new_etag = next.etag;
  auto r = co_await t.call<S3PutDeltaReq, S3PutDeltaResp>(std::move(req));
  if (!r.ok()) co_return false;
  t.log.digest.mix(r.value().etag);
  t.log.digest.mix(r.value().chunks_shared);
  t.log.bytes += shipped;
  next.etag = r.value().etag;
  t.objects[key] = std::move(next);
  co_return true;
}

sim::Task<bool> put_multipart(Tenant& t, std::string key, KeyState next,
                              const Params& p) {
  S3CreateMultipartReq mk;
  mk.bucket = t.bucket;
  mk.key = key;
  auto created =
      co_await t.call<S3CreateMultipartReq, S3CreateMultipartResp>(
          std::move(mk));
  if (!created.ok()) co_return false;
  const auto parts = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(p.multipart_parts, next.chunks));
  std::vector<std::optional<Result<S3UploadPartResp>>> done(parts);
  {
    sim::WaitGroup wg(t.node->cluster().sim());
    std::uint64_t chunk = 0;
    for (std::uint32_t part = 0; part < parts; ++part) {
      const std::uint64_t n =
          next.chunks / parts + (part < next.chunks % parts ? 1 : 0);
      S3UploadPartReq up;
      up.bucket = t.bucket;
      up.key = key;
      up.upload_id = created.value().upload_id;
      up.part_number = part + 1;
      for (std::uint64_t c = 0; c < n; ++c, ++chunk) {
        up.chunk_sums.push_back(next.sums[chunk]);
        up.payload.size += chunk + 1 == next.chunks ? next.tail : kChunk;
      }
      up.payload.checksum = object_checksum(up.payload.size, up.chunk_sums);
      wg.launch([](Tenant& tn, S3UploadPartReq r,
                   std::optional<Result<S3UploadPartResp>>* slot)
                    -> sim::Task<void> {
        slot->emplace(
            co_await tn.call<S3UploadPartReq, S3UploadPartResp>(std::move(r)));
      }(t, std::move(up), &done[part]));
    }
    co_await wg.wait();
  }
  for (const auto& d : done) {
    if (!d->ok()) co_return false;
    t.log.digest.mix(d->value().etag);
  }
  S3CompleteMultipartReq fin;
  fin.bucket = t.bucket;
  fin.key = key;
  fin.upload_id = created.value().upload_id;
  fin.part_count = parts;
  auto r = co_await t.call<S3CompleteMultipartReq, S3CompleteMultipartResp>(
      std::move(fin));
  if (!r.ok()) co_return false;
  t.log.digest.mix(r.value().etag);
  t.log.bytes += next.size();
  next.etag = r.value().etag;
  t.objects[key] = std::move(next);
  co_return true;
}

/// Preload: bucket plus the first `preload_per_tenant` keys.
sim::Task<void> preload(Tenant& t, std::uint32_t index, Params p,
                        bool* ok) {
  S3CreateBucketReq mk;
  mk.bucket = t.bucket;
  auto r = co_await t.call<S3CreateBucketReq, S3CreateBucketResp>(
      std::move(mk));
  if (!r.ok()) *ok = false;
  for (std::uint32_t k = 0; k < p.preload_per_tenant; ++k) {
    if (!co_await put_object(t, "obj" + std::to_string(k),
                             fresh_layout(t, index, p))) {
      *ok = false;
    }
  }
}

/// The timed closed loop of one tenant.
sim::Task<void> tenant_loop(Tenant& t, std::uint32_t index, Params p) {
  auto& sim = t.node->cluster().sim();
  TenantLog& log = t.log;
  for (std::uint32_t op = 0; op < p.ops_per_tenant; ++op) {
    const std::uint64_t rank = t.rng.zipf(p.keys_per_tenant, p.hot_key_skew);
    const std::string key = "obj" + std::to_string(rank);
    const bool exists = t.objects.count(key) > 0;
    double roll = t.rng.next_double();
    // Reads, deltas and deletes of a missing key become fresh PUTs.
    if (!exists && (roll >= 0.50 || (roll >= 0.30 && roll < 0.42))) {
      roll = 0.0;
    }
    log.digest.mix(rank);
    const SimTime t0 = sim.now();
    bool ok = true;
    bool write = true;
    if (roll < 0.30) {
      ok = co_await put_object(t, key, fresh_layout(t, index, p));
    } else if (roll < 0.42) {
      ok = co_await put_delta(t, key, p, index);
    } else if (roll < 0.50) {
      ok = co_await put_multipart(t, key, fresh_layout(t, index, p), p);
    } else if (roll < 0.80) {
      write = false;
      const KeyState& k = t.objects.at(key);
      S3GetObjectReq get;
      get.bucket = t.bucket;
      get.key = key;
      if (t.rng.chance(0.5)) {
        get.offset = t.rng.next_below(k.size());
        get.length = 1 + t.rng.next_below(k.size() - get.offset);
      }
      const std::uint64_t want =
          std::min(get.length, k.size() - get.offset);
      const std::uint64_t etag = k.etag;
      auto r = co_await t.call<S3GetObjectReq, S3GetObjectResp>(
          std::move(get));
      ok = r.ok() && r.value().etag == etag && r.value().payload.size == want;
      if (r.ok()) {
        log.bytes += r.value().payload.size;
        log.digest.mix(r.value().etag);
        log.read_ms.push_back(simtime::to_millis(sim.now() - t0));
      }
    } else if (roll < 0.90) {
      write = false;
      S3ListObjectsReq ls;
      ls.bucket = t.bucket;
      ls.prefix = "obj";
      ls.max_keys = 10;
      auto r = co_await t.call<S3ListObjectsReq, S3ListObjectsResp>(
          std::move(ls));
      ok = r.ok();
      if (ok) {
        for (const auto& o : r.value().objects) log.digest.mix(o.etag);
      }
    } else {
      write = false;
      S3DeleteObjectReq del;
      del.bucket = t.bucket;
      del.key = key;
      auto r = co_await t.call<S3DeleteObjectReq, S3DeleteObjectResp>(
          std::move(del));
      ok = r.ok();
      if (ok) t.objects.erase(key);
    }
    ++log.ops;
    if (!ok) ++log.failed;
    if (ok && write) {
      log.write_ms.push_back(simtime::to_millis(sim.now() - t0));
    }
    log.digest.mix(ok ? 1 : 0);
    log.digest.mix_signed(sim.now() - t0);
    co_await sim.delay(static_cast<SimDuration>(t.rng.exponential(
        static_cast<double>(p.mean_think))));
  }
}

/// Final sweep: every live object reads back whole with its etag, and a
/// paged LIST of the bucket returns exactly the live keys.
sim::Task<void> verify(Tenant& t) {
  TenantLog& log = t.log;
  const auto mismatch = [&log](const std::string& what) {
    if (log.mismatches++ == 0) log.first_mismatch = what;
  };
  for (const auto& [key, k] : t.objects) {
    S3GetObjectReq get;
    get.bucket = t.bucket;
    get.key = key;
    auto r = co_await t.call<S3GetObjectReq, S3GetObjectResp>(std::move(get));
    ++log.verified;
    if (!r.ok() || r.value().etag != k.etag ||
        r.value().payload.size != k.size()) {
      mismatch(t.bucket + "/" + key);
    }
    log.digest.mix(r.ok() ? r.value().etag : 0);
  }
  std::vector<std::string> listed;
  std::string marker;
  for (;;) {
    S3ListObjectsReq ls;
    ls.bucket = t.bucket;
    ls.marker = marker;
    ls.max_keys = 16;
    auto r = co_await t.call<S3ListObjectsReq, S3ListObjectsResp>(
        std::move(ls));
    if (!r.ok()) {
      mismatch(t.bucket + " list failed");
      break;
    }
    for (const auto& o : r.value().objects) listed.push_back(o.key);
    if (!r.value().truncated) break;
    marker = r.value().next_marker;
  }
  std::vector<std::string> live;
  for (const auto& [key, k] : t.objects) live.push_back(key);
  if (listed != live) mismatch(t.bucket + " listing differs from live keys");
}

/// Spawns `make(tenant)` for every tenant and steps the simulation in one
/// second slices until all of them finished.
template <class Make>
void run_all(sim::Simulation& sim, std::vector<Tenant>& tenants, Tracer& tr,
             Make make) {
  std::size_t done = 0;
  for (std::uint32_t i = 0; i < tenants.size(); ++i) {
    sim.spawn([](sim::Task<void> body, std::size_t* n) -> sim::Task<void> {
      co_await std::move(body);
      ++*n;
    }(make(tenants[i], i), &done));
  }
  while (done < tenants.size()) {
    sim.run_until(sim.now() + simtime::seconds(1));
    tr.poll();
  }
}

}  // namespace

void run_s3_mixed(const Options& opt, Report& rep) {
  Params p;
  if (opt.smoke) {
    p.tenants = 2;
    p.ops_per_tenant = 40;
    p.preload_per_tenant = 4;
  }
  Tracer tracer(opt.traced);

  // ---- setup: deployment, gateway, buckets, preloaded objects ---------
  auto env = timed_build(rep, [&] {
    auto e = std::make_unique<Env>();
    tracer.attach(e->sim);
    e->build();
    e->tenants.resize(p.tenants);
    for (std::uint32_t i = 0; i < p.tenants; ++i) {
      Tenant& t = e->tenants[i];
      t.node = e->user_node;
      t.gw = e->gw_node->id();
      t.user = ClientId{1000 + i};
      t.bucket = "t" + std::to_string(i);
      t.rng = Rng(hash_combine(hash_combine(0x53334D58ull, opt.seed), i));
    }
    run_all(e->sim, e->tenants, tracer, [&](Tenant& t, std::uint32_t i) {
      return preload(t, i, p, &e->preload_ok);
    });
    return e;
  });
  rep.check("s3.preload", env->preload_ok, "buckets and preloaded objects");
  sim::Simulation& sim = env->sim;
  std::vector<Tenant>& tenants = env->tenants;

  // ---- timed run ------------------------------------------------------
  const auto t_run = Clock::now();
  const SimTime t_begin = sim.now();
  const std::uint64_t calls_before = env->dep->cluster().calls_started();
  run_all(sim, tenants, tracer, [&](Tenant& t, std::uint32_t i) {
    return tenant_loop(t, i, p);
  });
  const SimTime t_end = sim.now();
  const std::uint64_t timed_calls =
      env->dep->cluster().calls_started() - calls_before;
  // Let asynchronous chunk reclamation settle, then sweep.
  sim.run_until(sim.now() + simtime::seconds(5));
  run_all(sim, tenants, tracer,
          [](Tenant& t, std::uint32_t) { return verify(t); });
  sim.run_until(sim.now() + simtime::seconds(5));
  rep.events = sim.events_processed();

  // ---- outcomes -------------------------------------------------------
  std::vector<double> write_ms;
  std::vector<double> read_ms;
  std::uint64_t bytes = 0;
  std::uint64_t live_bytes = 0;
  std::uint64_t verified = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  for (auto& t : tenants) {
    const TenantLog& log = t.log;
    write_ms.insert(write_ms.end(), log.write_ms.begin(), log.write_ms.end());
    read_ms.insert(read_ms.end(), log.read_ms.begin(), log.read_ms.end());
    rep.attempted += log.ops;
    rep.failed += log.failed;
    bytes += log.bytes;
    verified += log.verified;
    mismatches += log.mismatches;
    if (first_mismatch.empty()) first_mismatch = log.first_mismatch;
    for (const auto& [key, k] : t.objects) live_bytes += k.size();
    rep.digest.mix(log.digest.value());
  }
  std::uint64_t stored = 0;
  for (auto& prov : env->dep->providers()) stored += prov->used();
  const S3Gateway& gw = *env->gateway;
  rep.digest.mix(gw.state_digest());
  rep.digest.mix(stored);
  rep.digest.mix_signed(t_end - t_begin);

  rep.latency("write", write_ms);
  rep.latency("read", read_ms);
  rep.sim("goodput_mb_s",
          static_cast<double>(bytes) / 1e6 /
              simtime::to_seconds(t_end - t_begin),
          "MB/s", rep.attempted);
  rep.sim("failed_op_share",
          rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                  static_cast<double>(rep.attempted)
                            : 0.0,
          "ratio", rep.attempted);
  rep.sim("stored_bytes_per_user_byte",
          live_bytes > 0 ? static_cast<double>(stored) /
                               static_cast<double>(live_bytes)
                         : 0.0,
          "ratio", verified);

  rep.check("s3.no_failed_ops", rep.failed == 0,
            std::to_string(rep.failed) + "/" + std::to_string(rep.attempted) +
                " ops failed");
  rep.check("s3.acked_writes_read_back", mismatches == 0 && verified > 0,
            std::to_string(verified) + " objects verified, " +
                std::to_string(mismatches) + " mismatches" +
                (first_mismatch.empty() ? "" : " (first: " + first_mismatch +
                                                   ")"));

  if (tracer.enabled()) {
    tracer.detach();
    report_rpc_layer(rep, tracer, env->dep->cluster());
    const GatewayStats& st = gw.stats();
    const std::uint64_t lookups = st.dedup_hits + st.dedup_misses;
    rep.layer("cloud.dedup_hit_ratio",
              lookups > 0 ? static_cast<double>(st.dedup_hits) /
                                static_cast<double>(lookups)
                          : 0.0,
              "ratio");
    rep.layer("cloud.bytes_to_providers",
              static_cast<double>(st.bytes_to_providers), "bytes");
    rep.layer("cloud.chunks_reclaimed",
              static_cast<double>(st.chunks_reclaimed), "count");
    rep.layer("cloud.rpcs_per_op",
              rep.attempted > 0 ? static_cast<double>(timed_calls) /
                                      static_cast<double>(rep.attempted)
                                : 0.0,
              "ratio");
    rep.layer("journal.checkpoints",
              static_cast<double>(tracer.counter("journal.checkpoints")),
              "count");
  }

  // ---- teardown (inside wall_s) --------------------------------------
  const auto t_down = Clock::now();
  env.reset();
  rep.teardown_s = seconds_since(t_down);
  rep.wall_s = seconds_since(t_run);
}

}  // namespace perfbench
