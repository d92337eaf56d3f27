#include "core/replication.hpp"

#include <algorithm>
#include <cmath>

namespace bs::core {

namespace {
constexpr std::size_t kMaxRepairsPerLoop = 64;
constexpr std::size_t kMaxBlobsPerLoop = 8;  ///< blobs health-scanned per loop
}  // namespace

std::uint32_t ReplicationModule::desired_replication(
    std::uint32_t base, double read_rate) const {
  const auto bonus = static_cast<std::uint32_t>(
      read_rate / options_.hot_read_rate);
  return std::min(options_.max_replication, base + bonus);
}

// bslint: allow(coro-ref-param): see module.hpp lifetime contract
sim::Task<std::vector<AdaptAction>> ReplicationModule::analyze(
    const KnowledgeBase& knowledge, AgentContext& ctx) {
  std::vector<AdaptAction> out;
  auto blobs = co_await ctx.client->node().cluster()
                   .call<blob::ListBlobsReq, blob::ListBlobsResp>(
                       ctx.client->node(),
                       ctx.deployment->endpoints().version_manager,
                       blob::ListBlobsReq{});
  if (!blobs.ok()) co_return out;
  const auto& list = blobs.value().blobs;
  if (list.empty()) co_return out;

  // Read-rate map from the introspection snapshot.
  std::map<std::uint64_t, double> read_rate;
  for (const auto& b : knowledge.current().blobs) {
    read_rate[b.blob.value] = b.read_rate;
  }

  blob::RemoteMetadataStore store(
      *ctx.node, ctx.deployment->endpoints().metadata_providers, ClientId{0},
      simtime::seconds(30));
  auto& cluster = ctx.node->cluster();

  std::size_t scanned = 0;
  std::size_t repairs = 0;
  for (std::size_t i = 0; i < list.size() && scanned < kMaxBlobsPerLoop;
       ++i) {
    const auto& d = list[(scan_cursor_ + i) % list.size()];
    if (d.latest.version == 0) continue;
    ++scanned;

    const double rate = read_rate.count(d.id.value)
                            ? read_rate.at(d.id.value)
                            : 0.0;
    // The creation-time replication is the floor; read heat adds to it and
    // the degree falls back when demand fades.
    const std::uint32_t desired =
        desired_replication(d.base_replication, rate);
    if (desired != d.replication) {
      AdaptAction a;
      a.type = AdaptAction::Type::set_replication;
      a.blob = d.id;
      a.replication = desired;
      a.reason = rate > 0 ? "read-hot blob" : "demand dropped";
      out.push_back(std::move(a));
    }

    // Health scan of the latest version's leaves.
    auto leaves = co_await blob::meta_ops::collect(
        cluster.sim(), store, d.id, d.latest.version, d.latest.root_chunks,
        0, d.latest.root_chunks);
    if (!leaves.ok()) continue;
    for (const auto& leaf : leaves.value()) {
      if (leaf.hole()) continue;
      std::size_t alive = 0;
      for (NodeId r : leaf.chunk->replicas) {
        rpc::Node* n = cluster.node(r);
        if (n != nullptr && n->up()) ++alive;
      }
      // Mismatch in either direction: under-replicated (failures or a
      // raised target) or over-replicated (demand faded).
      const bool mismatch = alive != desired ||
                            alive < leaf.chunk->replicas.size();
      if (mismatch && alive > 0 && repairs < kMaxRepairsPerLoop) {
        AdaptAction a;
        a.type = AdaptAction::Type::repair_chunk;
        a.chunk = leaf.chunk->key;
        a.replication = desired;
        a.reason = "under-replicated chunk";
        out.push_back(std::move(a));
        ++repairs;
      }
    }
  }
  scan_cursor_ = (scan_cursor_ + scanned) % std::max<std::size_t>(1, list.size());
  co_return out;
}

}  // namespace bs::core
