#include "repl/plane.hpp"

#include <cstdint>

#include "common/hash.hpp"
#include "fault/fault_plane.hpp"
#include "obs/metrics.hpp"

namespace bs::repl {

ReplicationPlane::ReplicationPlane(rpc::Cluster& cluster,
                                   net::SiteId origin_site, ReplOptions opts)
    : cluster_(cluster), opts_(opts), origin_(origin_site) {
  // One egress node per site, created after every deployment node so the
  // deployment's node ids stay what seeded tests expect.
  const std::size_t sites = cluster_.topology().site_count();
  for (net::SiteId s = 0; s < sites; ++s) {
    PerSite ps;
    ps.node = cluster_.add_node(s);
    ps.egress = std::make_unique<SiteEgress>(*ps.node, s, opts_.egress);
    ps.egress->set_peer_resolver([this](net::SiteId site) {
      auto it = sites_.find(site);
      return it == sites_.end() ? NodeId{} : it->second.node->id();
    });
    if (s == origin_) {
      ps.egress->set_reprime_hook([this] { reprime_origin(); });
    } else {
      ps.egress->set_progress_hook([this, s] { note_progress(s); });
    }
    sites_.emplace(s, std::move(ps));
  }
  reconciler_ = std::make_unique<Reconciler>(*this, opts_.reconcile);
}

void ReplicationPlane::attach(blob::Deployment& dep) {
  attach_version_manager(dep.version_manager());
  attach_provider_manager(dep.provider_manager());
  for (auto& dp : dep.providers()) attach_data_provider(*dp);
}

void ReplicationPlane::attach_version_manager(blob::VersionManager& vm) {
  vm_ = &vm;
  blob::VersionManager::GeoHooks hooks;
  hooks.published = [this](BlobId blob, blob::Version v,
                           std::uint64_t size) {
    SiteEgress& o = egress(origin_);
    o.note_published(blob, v, size);
    for (auto& [s, ps] : sites_) {
      if (s != origin_) o.enqueue_publish(s, blob, v, size);
    }
  };
  hooks.trimmed = [this](BlobId blob, blob::Version v) {
    egress(origin_).retire_version(blob, v);
  };
  hooks.deleted = [this](BlobId blob) { egress(origin_).drop_blob(blob); };
  vm.set_geo_hooks(std::move(hooks));
}

void ReplicationPlane::attach_provider_manager(blob::ProviderManager& pm) {
  pm.set_reachability([this](net::SiteId from, net::SiteId to) {
    return !partitioned(from, to);
  });
}

void ReplicationPlane::attach_data_provider(blob::DataProvider& dp) {
  const net::SiteId from = dp.node().site();
  dp.set_replicate_router([this, from](const blob::ChunkKey& key,
                                       NodeId target,
                                       const blob::Payload& payload) {
    rpc::Node* tgt = cluster_.node(target);
    if (tgt == nullptr || tgt->site() == from) return false;
    egress(from).enqueue_chunk(tgt->site(), key, target, payload);
    ++chunks_routed_;
    obs::count("repl.chunks_routed");
    return true;
  });
}

void ReplicationPlane::attach_fault_plane(fault::FaultPlane& fp) {
  fp.set_link_listener(
      [this](net::SiteId a, net::SiteId b, bool is_partitioned) {
        on_link(a, b, is_partitioned);
      });
}

void ReplicationPlane::start() { reconciler_->start(); }

void ReplicationPlane::on_link(net::SiteId a, net::SiteId b,
                               bool is_partitioned) {
  if (is_partitioned) {
    partitioned_.insert(pair_key(a, b));
  } else {
    partitioned_.erase(pair_key(a, b));
  }
  auto notify = [this](net::SiteId at, net::SiteId towards, bool part) {
    auto it = sites_.find(at);
    if (it != sites_.end()) it->second.egress->set_link_state(towards, part);
  };
  notify(a, b, is_partitioned);
  notify(b, a, is_partitioned);
  if (!is_partitioned) note_heal(a, b);
}

void ReplicationPlane::note_heal(net::SiteId a, net::SiteId b) {
  ++heals_;
  // Lag is measured from heal to the first coherent progress point of the
  // remote site a partition against the origin had cut off.
  net::SiteId remote = net::SiteId(0);
  bool involves_origin = false;
  if (a == origin_) {
    remote = b;
    involves_origin = true;
  } else if (b == origin_) {
    remote = a;
    involves_origin = true;
  }
  if (involves_origin) {
    LagState& lag = lag_[remote];
    lag.pending = true;
    lag.healed_at = cluster_.sim().now();
    // Coherent already (nothing diverged during the partition)? Record a
    // zero-lag reconciliation immediately.
    note_progress(remote);
  }
  reconciler_->kick();
}

void ReplicationPlane::note_progress(net::SiteId site) {
  auto it = lag_.find(site);
  if (it == lag_.end() || !it->second.pending) return;
  if (!site_coherent(site)) return;
  it->second.pending = false;
  last_lag_ = cluster_.sim().now() - it->second.healed_at;
  obs::observe("repl.reconcile.lag_ms", simtime::to_millis(last_lag_), 0.0,
               1.0e7, 200);
}

void ReplicationPlane::reprime_origin() {
  if (vm_ == nullptr) return;
  SiteEgress& o = egress(origin_);
  for (const auto& pv : vm_->published_snapshot()) {
    o.note_published(pv.blob, pv.version, pv.size);
  }
  obs::count("repl.reprimes");
}

NodeId ReplicationPlane::origin_egress_node() const {
  return sites_.at(origin_).node->id();
}

SiteEgress& ReplicationPlane::egress(net::SiteId site) {
  return *sites_.at(site).egress;
}

const SiteEgress& ReplicationPlane::egress(net::SiteId site) const {
  return *sites_.at(site).egress;
}

std::vector<net::SiteId> ReplicationPlane::remote_sites() const {
  std::vector<net::SiteId> out;
  out.reserve(sites_.size() - 1);
  for (const auto& [s, ps] : sites_) {
    if (s != origin_) out.push_back(s);
  }
  return out;
}

bool ReplicationPlane::partitioned(net::SiteId a, net::SiteId b) const {
  return partitioned_.count(pair_key(a, b)) > 0;
}

bool ReplicationPlane::site_coherent(net::SiteId site) const {
  return egress(site).map().is_coherent_against(egress(origin_).map());
}

bool ReplicationPlane::coherent() const {
  for (const auto& [s, ps] : sites_) {
    if (s != origin_ && !site_coherent(s)) return false;
  }
  return true;
}

CustodyQueueStats ReplicationPlane::total_custody_stats() const {
  CustodyQueueStats total;
  for (const auto& [s, ps] : sites_) {
    const CustodyQueueStats e = ps.egress->total_stats();
    total.enqueued += e.enqueued;
    total.released += e.released;
    total.spilled += e.spilled;
    total.reforwards += e.reforwards;
    total.peak_depth = std::max(total.peak_depth, e.peak_depth);
  }
  return total;
}

std::uint64_t ReplicationPlane::digest() const {
  Digest d;
  d.mix(sites_.size());
  for (const auto& [s, ps] : sites_) {
    d.mix(s);
    d.mix(ps.egress->digest());
  }
  return d.value();
}

}  // namespace bs::repl
