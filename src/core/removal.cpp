#include "core/removal.hpp"

#include <algorithm>
#include <map>

namespace bs::core {

namespace {
/// Under this much utilization, expired temporaries are the only
/// candidates; above it, cold temporary blobs are evicted LRU-style.
constexpr double kPressureThreshold = 0.85;
constexpr std::size_t kMaxRemovalsPerLoop = 8;
}  // namespace

// bslint: allow(coro-ref-param): see module.hpp lifetime contract
sim::Task<std::vector<AdaptAction>> RemovalModule::analyze(
    const KnowledgeBase& knowledge, AgentContext& ctx) {
  std::vector<AdaptAction> out;
  auto blobs = co_await ctx.client->node().cluster()
                   .call<blob::ListBlobsReq, blob::ListBlobsResp>(
                       ctx.client->node(),
                       ctx.deployment->endpoints().version_manager,
                       blob::ListBlobsReq{});
  if (!blobs.ok()) co_return out;
  const SimTime now = ctx.deployment->sim().now();
  const auto& snap = knowledge.current();

  std::map<std::uint64_t, double> activity;  // read+write rate per blob
  for (const auto& b : snap.blobs) {
    activity[b.blob.value] = b.read_rate + b.write_rate;
  }

  std::size_t removals = 0;
  auto can_remove = [&] { return removals < kMaxRemovalsPerLoop; };

  // 1. TTL expiry of temporary blobs.
  if (options_.ttl_enabled) {
    for (const auto& d : blobs.value().blobs) {
      if (!can_remove()) break;
      if (d.ttl > 0 && d.created_at + d.ttl <= now) {
        AdaptAction a;
        a.type = AdaptAction::Type::delete_blob;
        a.blob = d.id;
        a.reason = "ttl expired";
        out.push_back(std::move(a));
        ++removals;
      }
    }
  }

  // 2. Version-history trimming.
  if (options_.keep_versions > 0) {
    for (const auto& d : blobs.value().blobs) {
      if (!can_remove()) break;
      if (d.latest.version == 0) continue;
      auto versions = co_await ctx.client->versions(d.id);
      if (!versions.ok()) continue;
      const auto& vs = versions.value();
      if (vs.size() <= options_.keep_versions) continue;
      const blob::Version keep_from =
          vs[vs.size() - options_.keep_versions].version;
      AdaptAction a;
      a.type = AdaptAction::Type::trim_blob;
      a.blob = d.id;
      a.version = keep_from;
      a.reason = "version history over budget";
      out.push_back(std::move(a));
      ++removals;
    }
  }

  // 3. Storage pressure: evict the coldest temporary blob even before its
  // TTL when the system is nearly full.
  if (snap.utilization() > kPressureThreshold) {
    const blob::BlobDescriptor* coldest = nullptr;
    double coldest_rate = 0;
    for (const auto& d : blobs.value().blobs) {
      if (d.ttl == 0 || d.latest.size == 0) continue;  // only temporaries
      const double rate =
          activity.count(d.id.value) ? activity.at(d.id.value) : 0.0;
      if (coldest == nullptr || rate < coldest_rate) {
        coldest = &d;
        coldest_rate = rate;
      }
    }
    if (coldest != nullptr && can_remove()) {
      AdaptAction a;
      a.type = AdaptAction::Type::delete_blob;
      a.blob = coldest->id;
      a.reason = "storage pressure eviction";
      out.push_back(std::move(a));
    }
  }
  co_return out;
}

}  // namespace bs::core
