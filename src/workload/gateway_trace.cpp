#include "workload/gateway_trace.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "sim/sync.hpp"

namespace bs::workload {
namespace {

using cloud::S3CompleteMultipartReq;
using cloud::S3CompleteMultipartResp;
using cloud::S3CreateBucketReq;
using cloud::S3CreateBucketResp;
using cloud::S3CreateMultipartReq;
using cloud::S3CreateMultipartResp;
using cloud::S3DeleteObjectReq;
using cloud::S3DeleteObjectResp;
using cloud::S3DeltaChunk;
using cloud::S3GetObjectReq;
using cloud::S3GetObjectResp;
using cloud::S3ListObjectsReq;
using cloud::S3ListObjectsResp;
using cloud::S3PutDeltaReq;
using cloud::S3PutDeltaResp;
using cloud::S3PutObjectReq;
using cloud::S3PutObjectResp;
using cloud::S3UploadPartReq;
using cloud::S3UploadPartResp;

constexpr std::uint64_t kMinObjectChunks = 1;
constexpr double kHotKeySkew = 0.9;  ///< zipf s over a tenant's key space
/// Probability a fresh upload goes through the multipart path.
constexpr double kMultipartFraction = 0.25;
/// Probability an overwrite of an existing object ships a delta instead
/// of the full payload.
constexpr double kDeltaFraction = 0.6;
constexpr double kDeltaChangeRatio = 0.25;  ///< chunks changed per delta
constexpr std::uint64_t kSharedPool = 64;   ///< distinct shared contents

/// A tenant's view of one of its objects: chunk layout and per-chunk
/// content checksums, enough to compute deltas against the live version.
struct KeyState {
  std::uint64_t chunks{0};
  std::uint64_t tail{0};  ///< size of the last chunk
  std::vector<std::uint64_t> sums;
  std::uint64_t etag{0};
};

std::uint64_t object_size(const KeyState& k, std::uint64_t cs) {
  return (k.chunks - 1) * cs + k.tail;
}

/// Whole-object checksum of a synthetic layout; doubles as the payload
/// checksum on PUT (which the gateway adopts as the etag) and as the
/// client-computed new_etag on delta uploads.
std::uint64_t object_checksum(std::uint64_t size,
                              const std::vector<std::uint64_t>& sums) {
  std::uint64_t d = fnv1a_u64(size);
  for (std::uint64_t s : sums) d = hash_combine(d, s);
  return d;
}

blob::Payload synthetic_chunk(std::uint64_t size, std::uint64_t sum) {
  blob::Payload p;
  p.size = size;
  p.checksum = sum;
  return p;
}

struct PartSlot {
  bool ok{false};
  std::uint64_t etag{0};
  std::uint32_t deduped{0};
};

// One tenant's sequential op stream against the gateway.
// bslint: allow(coro-ref-param): see gateway_trace.hpp — harness-owned
// node/stats, joined by GatewayTrace::run before teardown
sim::Task<void> run_tenant(rpc::Node& node, NodeId gw,
                           GatewayTraceConfig cfg, std::uint32_t tenant,
                           GatewayTraceStats* stats,
                           std::uint64_t* digest_slot) {
  auto& cluster = node.cluster();
  auto& sim = cluster.sim();
  const ClientId user{kFirstTenantId + tenant};
  const std::string bucket = "t" + std::to_string(tenant);
  const std::uint64_t cs = cfg.chunk_size;
  Rng rng(hash_combine(cfg.rng_seed, tenant));
  std::uint64_t digest = fnv1a_u64(tenant);
  std::uint64_t uniq = 0;
  std::map<std::string, KeyState> objects;

  rpc::CallOptions opts;
  opts.client = user;
  opts.timeout = simtime::minutes(2);

  auto fold = [&digest](std::uint64_t v) { digest = hash_combine(digest, v); };
  auto fold_err = [&](Errc code) {
    ++stats->failures;
    fold(static_cast<std::uint64_t>(code));
  };
  auto content_sum = [&]() {
    if (rng.chance(cfg.shared_content_ratio)) {
      return fnv1a_u64(0x5A5Aull ^ rng.next_below(kSharedPool));
    }
    return fnv1a_u64((static_cast<std::uint64_t>(tenant) << 40) | ++uniq);
  };
  auto fresh_layout = [&]() {
    KeyState k;
    k.chunks = static_cast<std::uint64_t>(rng.uniform_int(
        static_cast<std::int64_t>(kMinObjectChunks),
        static_cast<std::int64_t>(cfg.max_object_chunks)));
    k.tail = rng.chance(0.3) ? 1 + rng.next_below(cs) : cs;
    k.sums.resize(k.chunks);
    for (auto& s : k.sums) s = content_sum();
    return k;
  };

  {
    S3CreateBucketReq mk;
    mk.bucket = bucket;
    auto r = co_await cluster.call<S3CreateBucketReq, S3CreateBucketResp>(
        node, gw, std::move(mk), opts);
    if (!r.ok() && r.code() != Errc::already_exists) fold_err(r.code());
  }

  for (std::uint32_t op = 0; op < cfg.ops_per_tenant; ++op) {
    const std::uint64_t rank = rng.zipf(cfg.keys_per_tenant, kHotKeySkew);
    const std::string key = "obj" + std::to_string(rank);
    fold(rank);
    auto it = objects.find(key);
    const bool exists = it != objects.end();
    const double roll = rng.next_double();

    if (roll < 0.55 || (roll < 0.85 && !exists)) {
      if (exists && rng.chance(kDeltaFraction)) {
        // Delta overwrite: same layout, a subset of chunks changed.
        KeyState next = it->second;
        const std::uint64_t changed = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(kDeltaChangeRatio *
                                          static_cast<double>(next.chunks)));
        S3PutDeltaReq req;
        req.bucket = bucket;
        req.key = key;
        req.base_etag = it->second.etag;
        std::uint64_t shipped_bytes = 0;
        for (std::uint64_t c = 0; c < changed; ++c) {
          const std::uint64_t i = rng.next_below(next.chunks);
          next.sums[i] = content_sum();
        }
        for (std::uint64_t i = 0; i < next.chunks; ++i) {
          if (next.sums[i] == it->second.sums[i]) continue;
          S3DeltaChunk dc;
          dc.index = i;
          const std::uint64_t slot =
              i + 1 == next.chunks ? next.tail : cs;
          dc.payload = synthetic_chunk(slot, next.sums[i]);
          shipped_bytes += slot;
          req.chunks.push_back(std::move(dc));
        }
        const std::uint64_t size = object_size(next, cs);
        req.new_size = size;
        req.new_etag = object_checksum(size, next.sums);
        next.etag = req.new_etag;
        auto r = co_await cluster.call<S3PutDeltaReq, S3PutDeltaResp>(
            node, gw, std::move(req), opts);
        if (r.ok()) {
          ++stats->delta_puts;
          stats->logical_bytes += size;
          stats->wire_bytes += shipped_bytes;
          it->second = std::move(next);
          fold(r.value().etag);
          fold(r.value().chunks_shared);
        } else {
          fold_err(r.code());
        }
      } else if (rng.chance(kMultipartFraction)) {
        // Multipart ingest: parts of the same object uploaded concurrently.
        KeyState next = fresh_layout();
        const std::uint32_t parts = std::max<std::uint32_t>(
            1, std::min<std::uint32_t>(
                   cfg.multipart_parts,
                   static_cast<std::uint32_t>(next.chunks)));
        S3CreateMultipartReq mk;
        mk.bucket = bucket;
        mk.key = key;
        auto created =
            co_await cluster.call<S3CreateMultipartReq,
                                  S3CreateMultipartResp>(node, gw,
                                                         std::move(mk), opts);
        if (!created.ok()) {
          fold_err(created.code());
        } else {
          const std::uint64_t upload_id = created.value().upload_id;
          std::vector<PartSlot> slots(parts);
          {
            sim::WaitGroup wg(sim);
            std::uint64_t chunk = 0;
            for (std::uint32_t p = 0; p < parts; ++p) {
              const std::uint64_t per = next.chunks / parts;
              const std::uint64_t extra =
                  p < next.chunks % parts ? 1 : 0;
              const std::uint64_t n_chunks = per + extra;
              S3UploadPartReq up;
              up.bucket = bucket;
              up.key = key;
              up.upload_id = upload_id;
              up.part_number = p + 1;
              std::uint64_t part_size = 0;
              for (std::uint64_t c = 0; c < n_chunks; ++c, ++chunk) {
                up.chunk_sums.push_back(next.sums[chunk]);
                part_size += chunk + 1 == next.chunks ? next.tail : cs;
              }
              up.payload.size = part_size;
              up.payload.checksum = object_checksum(
                  part_size,
                  {up.chunk_sums.begin(), up.chunk_sums.end()});
              wg.launch([](rpc::Node& n, NodeId target, S3UploadPartReq r,
                           rpc::CallOptions o,
                           PartSlot* slot) -> sim::Task<void> {
                auto resp =
                    co_await n.cluster()
                        .call<S3UploadPartReq, S3UploadPartResp>(
                            n, target, std::move(r), o);
                if (resp.ok()) {
                  slot->ok = true;
                  slot->etag = resp.value().etag;
                  slot->deduped = resp.value().chunks_deduped;
                }
              }(node, gw, std::move(up), opts, &slots[p]));
            }
            co_await wg.wait();
          }
          bool all_ok = true;
          for (const PartSlot& s : slots) {
            all_ok = all_ok && s.ok;
            fold(s.etag);
          }
          S3CompleteMultipartReq fin;
          fin.bucket = bucket;
          fin.key = key;
          fin.upload_id = upload_id;
          fin.part_count = parts;
          auto done = co_await cluster.call<S3CompleteMultipartReq,
                                            S3CompleteMultipartResp>(
              node, gw, std::move(fin), opts);
          if (all_ok && done.ok()) {
            ++stats->multipart_puts;
            const std::uint64_t size = object_size(next, cs);
            stats->logical_bytes += size;
            stats->wire_bytes += size;
            next.etag = done.value().etag;
            objects[key] = std::move(next);
            fold(done.value().etag);
          } else {
            fold_err(done.ok() ? Errc::internal : done.code());
          }
        }
      } else {
        KeyState next = fresh_layout();
        const std::uint64_t size = object_size(next, cs);
        S3PutObjectReq put;
        put.bucket = bucket;
        put.key = key;
        put.payload.size = size;
        put.payload.checksum = object_checksum(size, next.sums);
        put.chunk_sums = next.sums;
        next.etag = put.payload.checksum;
        auto r = co_await cluster.call<S3PutObjectReq, S3PutObjectResp>(
            node, gw, std::move(put), opts);
        if (r.ok()) {
          ++stats->puts;
          stats->logical_bytes += size;
          stats->wire_bytes += size;
          objects[key] = std::move(next);
          fold(r.value().etag);
          fold(r.value().chunks_deduped);
        } else {
          fold_err(r.code());
        }
      }
    } else if (roll < 0.85) {
      const std::uint64_t size = object_size(it->second, cs);
      S3GetObjectReq get;
      get.bucket = bucket;
      get.key = key;
      if (rng.chance(0.5)) {
        get.offset = rng.next_below(size);
        get.length = 1 + rng.next_below(size - get.offset);
      }
      auto r = co_await cluster.call<S3GetObjectReq, S3GetObjectResp>(
          node, gw, std::move(get), opts);
      if (r.ok()) {
        ++stats->gets;
        fold(r.value().etag);
        fold(r.value().payload.size);
      } else {
        fold_err(r.code());
      }
    } else if (roll < 0.95) {
      S3ListObjectsReq ls;
      ls.bucket = bucket;
      ls.prefix = "obj";
      ls.max_keys = 10;
      for (int page = 0; page < 2; ++page) {
        auto r = co_await cluster.call<S3ListObjectsReq, S3ListObjectsResp>(
            node, gw, std::move(ls), opts);
        if (!r.ok()) {
          fold_err(r.code());
          break;
        }
        ++stats->lists;
        fold(r.value().objects.size());
        for (const auto& o : r.value().objects) fold(o.etag);
        if (!r.value().truncated) break;
        ls = S3ListObjectsReq{};
        ls.bucket = bucket;
        ls.prefix = "obj";
        ls.max_keys = 10;
        ls.marker = r.value().next_marker;
      }
    } else if (exists) {
      S3DeleteObjectReq del;
      del.bucket = bucket;
      del.key = key;
      auto r = co_await cluster.call<S3DeleteObjectReq, S3DeleteObjectResp>(
          node, gw, std::move(del), opts);
      if (r.ok()) {
        ++stats->deletes;
        objects.erase(key);
        fold(1);
      } else {
        fold_err(r.code());
      }
    }
    co_await sim.delay(cfg.think_time);
  }
  *digest_slot = digest;
}

}  // namespace

// bslint: allow(coro-ref-param): see header — joined before teardown
sim::Task<void> GatewayTrace::run(rpc::Node& client_node, NodeId gateway,
                                  GatewayTraceConfig config,
                                  GatewayTraceStats* stats) {
  auto& sim = client_node.cluster().sim();
  std::vector<std::uint64_t> digests(config.tenants, 0);
  {
    sim::WaitGroup wg(sim);
    for (std::uint32_t t = 0; t < config.tenants; ++t) {
      wg.launch(run_tenant(client_node, gateway, config, t, stats,
                           &digests[t]));
    }
    co_await wg.wait();
  }
  // Tenant-order fold: independent of actor completion order.
  for (std::uint64_t d : digests) {
    stats->digest = hash_combine(stats->digest, d);
  }
}

}  // namespace bs::workload
