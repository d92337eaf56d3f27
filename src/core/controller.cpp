#include "core/controller.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bs::core {

namespace {

constexpr SimDuration kLoopInterval = simtime::seconds(5);
constexpr std::size_t kMaxActionsPerLoop = 32;

/// A leaf holding a new descriptor: `chunk` with `replicas`. A stored
/// descriptor is shared by every copy of its node, so a replica edit
/// installs a new one instead of editing it.
blob::TreeNode leaf_with(const blob::ChunkDescriptor& chunk,
                         std::vector<NodeId> replicas) {
  blob::TreeNode node;
  node.chunk = std::make_shared<const blob::ChunkDescriptor>(
      blob::ChunkDescriptor{chunk.key, chunk.size, chunk.checksum,
                            std::move(replicas)});
  return node;
}

}  // namespace

// ---------------------------------------------------------------- Executor

rpc::CallOptions Executor::opts() const {
  rpc::CallOptions o;
  o.timeout = simtime::seconds(60);
  o.client = ClientId{0};  // the autonomic manager's reserved identity
  return o;
}

sim::Task<Result<blob::TreeNode>> Executor::leaf_of(blob::ChunkKey key) {
  blob::RemoteMetadataStore store(
      *ctx_.node, ctx_.deployment->endpoints().metadata_providers,
      ClientId{0}, simtime::seconds(30));
  co_return co_await store.get(
      blob::NodeKey{key.blob, key.version, key.index, 1});
}

sim::Task<Result<void>> Executor::put_leaf(blob::ChunkKey key,
                                           blob::TreeNode node) {
  blob::RemoteMetadataStore store(
      *ctx_.node, ctx_.deployment->endpoints().metadata_providers,
      ClientId{0}, simtime::seconds(30));
  co_return co_await store.put(
      blob::NodeKey{key.blob, key.version, key.index, 1}, std::move(node));
}

sim::Task<Result<void>> Executor::execute(AdaptAction action) {
  Result<void> result = ok_result();
  switch (action.type) {
    case AdaptAction::Type::add_provider:
      result = co_await add_provider();
      break;
    case AdaptAction::Type::drain_provider:
      result = co_await drain_provider(action.provider);
      break;
    case AdaptAction::Type::repair_chunk:
      result = co_await repair_chunk(action.chunk, action.replication);
      break;
    case AdaptAction::Type::set_replication: {
      blob::SetReplicationReq req;
      req.blob = action.blob;
      req.replication = action.replication;
      auto r = co_await ctx_.node->cluster()
                   .call<blob::SetReplicationReq, blob::SetReplicationResp>(
                       *ctx_.node,
                       ctx_.deployment->endpoints().version_manager,
                       req, opts());
      result = r.ok() ? ok_result() : Result<void>{r.error()};
      break;
    }
    case AdaptAction::Type::trim_blob:
      result = co_await trim_blob(action.blob, action.version);
      break;
    case AdaptAction::Type::delete_blob:
      result = co_await delete_blob(action.blob);
      break;
    case AdaptAction::Type::set_scan_interval:
      if (ctx_.security != nullptr) {
        ctx_.security->engine().set_scan_interval(action.duration);
      }
      break;
  }
  if (result.ok()) {
    ++executed_;
    obs::count("mape.actions_executed");
  } else {
    ++failed_;
    obs::count("mape.actions_failed");
    BS_WARN("core", "action %s failed: %s", action.type_name(),
            result.error().to_string().c_str());
  }
  co_return result;
}

sim::Task<Result<void>> Executor::add_provider() {
  blob::DataProvider* p = ctx_.deployment->add_provider();
  if (provider_added_) provider_added_(*p);
  co_return ok_result();
}

sim::Task<Result<void>> Executor::migrate_chunk(blob::ChunkKey key,
                                                NodeId from) {
  auto leaf = co_await leaf_of(key);
  if (!leaf.ok()) co_return leaf.error();
  const std::shared_ptr<const blob::ChunkDescriptor> chunk =
      std::move(leaf).value().chunk;
  if (std::find(chunk->replicas.begin(), chunk->replicas.end(), from) ==
      chunk->replicas.end()) {
    co_return ok_result();  // this replica list no longer references `from`
  }
  auto& cluster = ctx_.node->cluster();

  // Pick a destination that does not already hold the chunk.
  blob::AllocateReq alloc;
  alloc.blob = key.blob;
  alloc.version = key.version;
  alloc.chunk_count = 1;
  alloc.chunk_size = chunk->size;
  alloc.replication = 1;
  alloc.exclude = chunk->replicas;
  auto placement =
      co_await cluster.call<blob::AllocateReq, blob::AllocateResp>(
          *ctx_.node, ctx_.deployment->endpoints().provider_manager,
          std::move(alloc), opts());
  if (!placement.ok()) co_return placement.error();
  const NodeId target = placement.value().placements[0][0];

  blob::ReplicateChunkReq rep;
  rep.key = key;
  rep.target = target;
  auto copied =
      co_await cluster.call<blob::ReplicateChunkReq, blob::ReplicateChunkResp>(
          *ctx_.node, from, rep, opts());
  if (!copied.ok()) co_return copied.error();

  std::vector<NodeId> moved = chunk->replicas;
  std::replace(moved.begin(), moved.end(), from, target);
  if (auto r = co_await put_leaf(key, leaf_with(*chunk, std::move(moved)));
      !r.ok()) {
    co_return r.error();
  }
  blob::RemoveChunkReq rm;
  rm.key = key;
  (void)co_await cluster.call<blob::RemoveChunkReq, blob::RemoveChunkResp>(
      *ctx_.node, from, rm, opts());
  co_return ok_result();
}

sim::Task<Result<void>> Executor::drain_provider(NodeId provider) {
  auto& cluster = ctx_.node->cluster();
  // 1. No new allocations.
  blob::SetDecommissionReq dec;
  dec.provider = provider;
  (void)co_await cluster
      .call<blob::SetDecommissionReq, blob::SetDecommissionResp>(
          *ctx_.node, ctx_.deployment->endpoints().provider_manager, dec,
          opts());
  // 2. Move every chunk elsewhere (updating the metadata leaves). A dead
  // provider has nothing reachable to migrate; the replication module
  // repairs its chunks from surviving replicas instead.
  auto chunks = co_await cluster.call<blob::ListChunksReq, blob::ListChunksResp>(
      *ctx_.node, provider, blob::ListChunksReq{}, opts());
  if (chunks.ok()) {
    for (const auto& key : chunks.value().keys) {
      if (auto r = co_await migrate_chunk(key, provider); !r.ok()) {
        BS_WARN("core", "drain: chunk migration failed: %s",
                r.error().to_string().c_str());
      }
    }
  } else if (chunks.code() != Errc::unavailable) {
    co_return chunks.error();
  }
  // 3. Retire.
  blob::DeregisterProviderReq dereg;
  dereg.provider = provider;
  (void)co_await cluster
      .call<blob::DeregisterProviderReq, blob::DeregisterProviderResp>(
          *ctx_.node, ctx_.deployment->endpoints().provider_manager, dereg,
          opts());
  ctx_.deployment->remove_provider(provider);
  co_return ok_result();
}

sim::Task<Result<void>> Executor::repair_chunk(blob::ChunkKey key,
                                               std::uint32_t replication,
                                               NodeId /*exclude*/) {
  auto leaf = co_await leaf_of(key);
  if (!leaf.ok()) co_return leaf.error();
  const std::shared_ptr<const blob::ChunkDescriptor> chunk =
      std::move(leaf).value().chunk;
  auto& cluster = ctx_.node->cluster();

  std::vector<NodeId> alive;
  for (NodeId r : chunk->replicas) {
    rpc::Node* n = cluster.node(r);
    if (n != nullptr && n->up()) alive.push_back(r);
  }
  if (alive.empty()) {
    co_return Error{Errc::unavailable, "no live replica to repair from"};
  }
  if (alive.size() > replication) {
    // Shrink: demand faded. Update the leaf first so readers stop being
    // directed at the dropped copies, then reclaim them.
    std::vector<NodeId> keep(alive.begin(),
                             alive.begin() + replication);
    std::vector<NodeId> drop(alive.begin() + replication, alive.end());
    if (auto r = co_await put_leaf(key, leaf_with(*chunk, std::move(keep)));
        !r.ok()) {
      co_return r.error();
    }
    for (NodeId victim : drop) {
      blob::RemoveChunkReq rm;
      rm.key = key;
      (void)co_await cluster.call<blob::RemoveChunkReq,
                                  blob::RemoveChunkResp>(*ctx_.node, victim,
                                                         rm, opts());
    }
    co_return ok_result();
  }
  if (alive.size() == replication) {
    if (alive.size() != chunk->replicas.size()) {
      // Shed dead entries.
      co_return co_await put_leaf(key, leaf_with(*chunk, std::move(alive)));
    }
    co_return ok_result();
  }

  const std::uint32_t needed =
      replication - static_cast<std::uint32_t>(alive.size());
  blob::AllocateReq alloc;
  alloc.blob = key.blob;
  alloc.version = key.version;
  alloc.chunk_count = 1;
  alloc.chunk_size = chunk->size;
  alloc.replication = needed;
  alloc.exclude = alive;
  auto placement =
      co_await cluster.call<blob::AllocateReq, blob::AllocateResp>(
          *ctx_.node, ctx_.deployment->endpoints().provider_manager,
          std::move(alloc), opts());
  if (!placement.ok()) co_return placement.error();

  std::vector<NodeId> fresh = alive;
  for (NodeId target : placement.value().placements[0]) {
    blob::ReplicateChunkReq rep;
    rep.key = key;
    rep.target = target;
    auto copied = co_await cluster.call<blob::ReplicateChunkReq,
                                        blob::ReplicateChunkResp>(
        *ctx_.node, alive[0], rep, opts());
    if (copied.ok()) fresh.push_back(target);
  }
  co_return co_await put_leaf(key, leaf_with(*chunk, std::move(fresh)));
}

sim::Task<Result<void>> Executor::trim_blob(BlobId blob,
                                            blob::Version keep_from) {
  auto trimmed = co_await ctx_.client->trim(blob, keep_from);
  if (!trimmed.ok()) co_return trimmed.error();
  auto& cluster = ctx_.node->cluster();
  for (const auto& key : trimmed.value().unreferenced) {
    auto leaf = co_await leaf_of(key);
    if (!leaf.ok()) continue;  // metadata already gone; nothing to free
    for (NodeId replica : leaf.value().chunk->replicas) {
      blob::RemoveChunkReq rm;
      rm.key = key;
      (void)co_await cluster
          .call<blob::RemoveChunkReq, blob::RemoveChunkResp>(
              *ctx_.node, replica, rm, opts());
    }
  }
  // Metadata GC: drop the tree nodes no kept snapshot can reach.
  blob::RemoteMetadataStore store(
      *ctx_.node, ctx_.deployment->endpoints().metadata_providers,
      ClientId{0}, simtime::seconds(30));
  for (const auto& node_key : trimmed.value().removable_nodes) {
    blob::MetaRemoveReq rm;
    rm.key = node_key;
    (void)co_await cluster.call<blob::MetaRemoveReq, blob::MetaRemoveResp>(
        *ctx_.node, store.provider_for(node_key), rm, opts());
  }
  co_return ok_result();
}

sim::Task<Result<void>> Executor::delete_blob(BlobId blob) {
  // Hoisted out of the leading if-condition: GCC 12 lays an if-condition
  // await temporary out before _Coro_resume_fn when it opens the frame
  // (coro-first-await-if; tools/frame_scan checks the compiled binaries).
  auto removed = co_await ctx_.client->remove(blob);
  if (!removed.ok()) {
    co_return removed.error();
  }
  auto& cluster = ctx_.node->cluster();
  for (auto& p : ctx_.deployment->providers()) {
    if (!p->node().up()) continue;
    blob::RemoveBlobChunksReq req;
    req.blob = blob;
    (void)co_await cluster
        .call<blob::RemoveBlobChunksReq, blob::RemoveBlobChunksResp>(
            *ctx_.node, p->id(), req, opts());
  }
  co_return ok_result();
}

// ------------------------------------------------------ AutonomicController

AutonomicController::AutonomicController(
    blob::Deployment& deployment, intro::IntrospectionService& introspection,
    sec::SecurityFramework* security)
    : dep_(deployment), executor_(ctx_) {
  ctx_.deployment = &deployment;
  ctx_.introspection = &introspection;
  ctx_.security = security;
  // The autonomic manager gets its own node + (reserved id 0) client.
  blob::ClientConfig cfg;
  ctx_.client = deployment.add_client(cfg);
  ctx_.node = &ctx_.client->node();
}

void AutonomicController::add_module(std::unique_ptr<SelfModule> module) {
  modules_.push_back(std::move(module));
}

void AutonomicController::start() {
  if (running_) return;
  running_ = true;
  dep_.sim().spawn(loop());
}

sim::Task<void> AutonomicController::loop() {
  while (running_) {
    co_await dep_.sim().delay(kLoopInterval);
    if (!running_) break;
    co_await iterate();
  }
}

sim::Task<void> AutonomicController::iterate() {
  ++iterations_;
  obs::count("mape.iterations");
  obs::TraceSink* ts = obs::sink();
  obs::Span iter_span;
  if (ts) {
    iter_span = ts->span("mape.iterate", "core", 0,
                         {"iteration", static_cast<std::int64_t>(iterations_)});
  }
  // Monitor. Enrich the monitoring snapshot with the provider manager's
  // health tally so analysis modules see failure-driven state too.
  auto snap = ctx_.introspection->snapshot();
  const auto health = dep_.provider_manager().health_counts();
  snap.providers_alive = health.alive;
  snap.providers_suspect = health.suspect;
  snap.providers_dead = health.dead;
  const SimTime now = dep_.sim().now();
  obs::gauge_set("core.providers_alive", static_cast<double>(health.alive),
                 now);
  obs::gauge_set("core.providers_suspect",
                 static_cast<double>(health.suspect), now);
  obs::gauge_set("core.providers_dead", static_cast<double>(health.dead),
                 now);
  knowledge_.update(std::move(snap));
  // Analyze + Plan.
  std::vector<AdaptAction> plan;
  for (auto& module : modules_) {
    auto actions = co_await module->analyze(knowledge_, ctx_);
    for (auto& a : actions) {
      if (plan.size() >= kMaxActionsPerLoop) break;
      plan.push_back(std::move(a));
    }
  }
  // Execute.
  for (const auto& action : plan) {
    auto r = co_await executor_.execute(action);
    log_.push_back(ExecutedAction{dep_.sim().now(), action, r.ok()});
    if (ts) {
      ts->instant("mape.action", "core", iter_span.id(), action.type_name(),
                  {"ok", r.ok() ? 1 : 0});
    }
    BS_INFO("core", "executed %s (%s): %s", action.type_name(),
            action.reason.c_str(), r.ok() ? "ok" : "failed");
  }
  iter_span.end("ok");
}

}  // namespace bs::core
