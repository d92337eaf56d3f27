#include "blob/provider_manager.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"

namespace bs::blob {

namespace {
/// Silence thresholds: a provider turns suspect after two missed heartbeats
/// (allocation avoids it while the pool allows) and is erased after three.
constexpr SimDuration kSuspectAfter = 2 * kHeartbeatInterval;
constexpr SimDuration kDeadAfter = 3 * kHeartbeatInterval;
/// Client transport failures against a provider before it is declared
/// dead outright — much faster than waiting out the heartbeat deadline.
constexpr std::uint32_t kFailureReportsDead = 3;
}  // namespace

ProviderManager::ProviderManager(rpc::Node& node, Options options)
    : node_(node), options_(std::move(options)),
      strategy_(make_strategy(options_.strategy)), rng_(options_.rng_seed) {
  assert(strategy_ != nullptr && "unknown allocation strategy");
  register_handlers();
  // The reaper dies with the node; a restart revives it. The registry
  // itself survives crashes (durable manager metadata).
  node_.add_restart_listener([this] {
    if (reaper_enabled_) start_reaper();
  });
}

std::size_t ProviderManager::alive_count() const {
  std::size_t n = 0;
  for (const auto& [id, e] : registry_) {
    if (!e.decommissioning && e.health != ProviderHealth::dead) ++n;
  }
  return n;
}

ProviderManager::HealthCounts ProviderManager::health_counts() const {
  HealthCounts c;
  for (const auto& [id, e] : registry_) {
    switch (e.health) {
      case ProviderHealth::alive: ++c.alive; break;
      case ProviderHealth::suspect: ++c.suspect; break;
      case ProviderHealth::dead: ++c.dead; break;
    }
  }
  return c;
}

std::vector<ProviderEntry> ProviderManager::snapshot() const {
  std::vector<ProviderEntry> out;
  out.reserve(registry_.size());
  for (const auto& [id, e] : registry_) out.push_back(e);
  return out;
}

net::SiteId ProviderManager::site_of(NodeId id) const {
  const rpc::Node* n = node_.cluster().node(id);
  return n != nullptr ? n->site() : node_.site();
}

std::vector<ProviderEntry*> ProviderManager::eligible(
    std::uint64_t chunk_size, const std::vector<NodeId>& exclude,
    std::size_t min_count, net::SiteId requester_site) {
  std::vector<ProviderEntry*> out;
  std::vector<ProviderEntry*> suspects;
  out.reserve(registry_.size());
  for (auto& [id, e] : registry_) {
    if (e.decommissioning) continue;
    if (e.health == ProviderHealth::dead) continue;
    if (e.free_space < chunk_size) continue;
    if (std::find(exclude.begin(), exclude.end(), e.node) != exclude.end()) {
      continue;
    }
    if (reachable_ && !reachable_(requester_site, site_of(e.node))) continue;
    if (e.health == ProviderHealth::suspect) {
      suspects.push_back(&e);
    } else {
      out.push_back(&e);
    }
  }
  // Suspects are a last resort: drafted only when the healthy pool cannot
  // satisfy the requested placement width.
  for (auto* s : suspects) {
    if (out.size() >= min_count) break;
    out.push_back(s);
  }
  return out;
}

void ProviderManager::register_handlers() {
  node_.serve<RegisterProviderReq, RegisterProviderResp>(
      [this](const RegisterProviderReq& req,
             const rpc::Envelope&) -> sim::Task<Result<RegisterProviderResp>> {
        ProviderEntry e;
        e.node = req.provider;
        e.capacity = req.capacity;
        // A provider restarting with an intact store reports what it kept;
        // a zeroed report means a fresh (or wiped) store.
        const bool fresh = req.free_space == 0 && req.chunks == 0;
        e.free_space = fresh ? req.capacity : req.free_space;
        e.chunks = req.chunks;
        e.last_heartbeat = node_.cluster().sim().now();
        // Re-registration (provider restart) resets the entry.
        registry_[req.provider.value] = e;
        BS_DEBUG("pm", "provider %llu registered (%s)",
                 (unsigned long long)req.provider.value,
                 units::format_bytes(req.capacity).c_str());
        co_return RegisterProviderResp{};
      });

  node_.serve<DeregisterProviderReq, DeregisterProviderResp>(
      [this](const DeregisterProviderReq& req, const rpc::Envelope&)
          -> sim::Task<Result<DeregisterProviderResp>> {
        registry_.erase(req.provider.value);
        co_return DeregisterProviderResp{};
      });

  node_.serve<HeartbeatReq, HeartbeatResp>(
      [this](const HeartbeatReq& req,
             const rpc::Envelope&) -> sim::Task<Result<HeartbeatResp>> {
        auto it = registry_.find(req.provider.value);
        if (it == registry_.end()) co_return HeartbeatResp{false};
        auto& e = it->second;
        e.free_space = req.free_space;
        e.chunks = req.chunks;
        e.store_rate = req.store_rate;
        e.last_heartbeat = node_.cluster().sim().now();
        // A fresh heartbeat supersedes optimistic pending-alloc accounting
        // and clears any suspicion: the provider is demonstrably serving.
        e.pending_allocs = 0;
        e.health = ProviderHealth::alive;
        e.reported_failures = 0;
        co_return HeartbeatResp{true};
      });

  node_.serve<ReportFailureReq, ReportFailureResp>(
      [this](const ReportFailureReq& req,
             const rpc::Envelope&) -> sim::Task<Result<ReportFailureResp>> {
        auto it = registry_.find(req.provider.value);
        if (it == registry_.end()) co_return ReportFailureResp{};
        auto& e = it->second;
        ++e.reported_failures;
        if (e.health == ProviderHealth::alive) {
          e.health = ProviderHealth::suspect;
        }
        if (e.reported_failures >= kFailureReportsDead &&
            e.health != ProviderHealth::dead) {
          e.health = ProviderHealth::dead;
          BS_INFO("pm", "provider %llu declared dead (%u failure reports)",
                  (unsigned long long)req.provider.value,
                  (unsigned)e.reported_failures);
        }
        co_return ReportFailureResp{};
      });

  node_.serve<AllocateReq, AllocateResp>(
      [this](const AllocateReq& req,
             const rpc::Envelope& env) -> sim::Task<Result<AllocateResp>> {
        if (req.chunk_count == 0) {
          co_return Error{Errc::invalid_argument, "zero chunks"};
        }
        AllocateResp resp;
        resp.placements.reserve(req.chunk_count);
        const std::uint64_t need = std::max<std::uint64_t>(1, req.chunk_size);
        const net::SiteId from = site_of(env.src_node);
        for (std::uint64_t i = 0; i < req.chunk_count; ++i) {
          auto pool = eligible(need, req.exclude, req.replication, from);
          auto placed =
              strategy_->place_chunk(pool, need, req.replication, rng_);
          if (placed.empty()) {
            co_return Error{Errc::out_of_space,
                            "no eligible data providers"};
          }
          resp.placements.push_back(std::move(placed));
        }
        co_return resp;
      });

  node_.serve<SetDecommissionReq, SetDecommissionResp>(
      [this](const SetDecommissionReq& req,
             const rpc::Envelope&) -> sim::Task<Result<SetDecommissionResp>> {
        auto it = registry_.find(req.provider.value);
        if (it == registry_.end()) {
          co_return Error{Errc::not_found, "unknown provider"};
        }
        it->second.decommissioning = req.decommission;
        co_return SetDecommissionResp{};
      });
}

void ProviderManager::start_reaper() {
  reaper_enabled_ = true;
  if (reaper_running_) return;
  reaper_running_ = true;
  node_.cluster().sim().spawn(reaper_loop());
}

sim::Task<void> ProviderManager::reaper_loop() {
  auto& sim = node_.cluster().sim();
  while (reaper_enabled_ && node_.up()) {
    co_await sim.delay(kHeartbeatInterval);
    if (!node_.up()) break;
    const SimTime now = sim.now();
    for (auto it = registry_.begin(); it != registry_.end();) {
      auto& e = it->second;
      const SimDuration silent = now - e.last_heartbeat;
      if (silent > kDeadAfter) {
        BS_INFO("pm", "provider %llu expired (no heartbeat)",
                (unsigned long long)e.node.value);
        it = registry_.erase(it);
        continue;
      }
      if (silent > kSuspectAfter && e.health == ProviderHealth::alive) {
        e.health = ProviderHealth::suspect;
      }
      ++it;
    }
  }
  reaper_running_ = false;
}

}  // namespace bs::blob
