#include "fault/fault_plane.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bs::fault {

const char* FaultEvent::kind_name() const {
  switch (kind) {
    case Kind::crash: return "crash";
    case Kind::restart: return "restart";
    case Kind::partition: return "partition";
    case Kind::heal: return "heal";
    case Kind::degrade: return "degrade";
    case Kind::restore_link: return "restore_link";
    case Kind::slow_disk: return "slow_disk";
    case Kind::restore_disk: return "restore_disk";
    case Kind::power_loss: return "power_loss";
    case Kind::power_restore: return "power_restore";
  }
  return "?";
}

FaultPlane::FaultPlane(rpc::Cluster& cluster, std::uint64_t seed)
    : cluster_(cluster), drop_rng_(seed) {
  cluster_.set_link_fault_fn(
      [this](net::SiteId from, net::SiteId to) { return eval(from, to); });
}

FaultPlane::~FaultPlane() { cluster_.set_link_fault_fn({}); }

rpc::Cluster::LinkFault FaultPlane::eval(net::SiteId from, net::SiteId to) {
  rpc::Cluster::LinkFault f;
  auto it = links_.find(pair_key(from, to));
  if (it == links_.end()) return f;
  const LinkRule& r = it->second;
  if (r.partitioned) {
    f.drop = true;
    return f;
  }
  if (r.drop_prob > 0 && drop_rng_.chance(r.drop_prob)) f.drop = true;
  f.extra_latency = r.extra_latency;
  return f;
}

void FaultPlane::crash(NodeId node, bool lose_storage, bool torn_tail) {
  if (rpc::Node* n = cluster_.node(node)) {
    ++faults_applied_;
    BS_INFO("fault", "crash node %llu%s%s",
            static_cast<unsigned long long>(node.value),
            lose_storage ? " (storage lost)" : "",
            torn_tail ? " (torn tail)" : "");
    n->crash(rpc::CrashOptions{.lose_storage = lose_storage,
                               .torn_tail = torn_tail});
  }
}

void FaultPlane::restart(NodeId node) {
  if (rpc::Node* n = cluster_.node(node)) {
    ++faults_applied_;
    BS_INFO("fault", "restart node %llu",
            static_cast<unsigned long long>(node.value));
    n->restart();
  }
}

void FaultPlane::power_loss(net::SiteId site) {
  BS_WARN("fault", "power loss at site %zu", site);
  // Node ids are dense; walking them in order keeps the crash sequence (and
  // hence every crash listener's side effects) deterministic.
  for (std::uint64_t i = 0; i < cluster_.node_count(); ++i) {
    rpc::Node* n = cluster_.node(NodeId{i});
    if (n != nullptr && n->up() && n->site() == site) {
      crash(NodeId{i}, /*lose_storage=*/false, /*torn_tail=*/true);
    }
  }
}

void FaultPlane::power_restore(net::SiteId site) {
  BS_INFO("fault", "power restored at site %zu", site);
  for (std::uint64_t i = 0; i < cluster_.node_count(); ++i) {
    rpc::Node* n = cluster_.node(NodeId{i});
    if (n != nullptr && !n->up() && n->site() == site) {
      restart(NodeId{i});
    }
  }
}

void FaultPlane::set_link_rule(net::SiteId a, net::SiteId b,
                               const LinkRule* rule) {
  const std::uint64_t key = pair_key(a, b);
  auto it = links_.find(key);
  const bool was = it != links_.end() && it->second.partitioned;
  const bool now = rule != nullptr && rule->partitioned;
  if (rule != nullptr) {
    links_[key] = *rule;
  } else if (it != links_.end()) {
    links_.erase(it);
  }
  if (was != now && link_listener_) link_listener_(a, b, now);
}

void FaultPlane::partition(net::SiteId a, net::SiteId b) {
  ++faults_applied_;
  BS_INFO("fault", "partition sites %zu <-> %zu", a, b);
  const LinkRule rule{.partitioned = true};
  set_link_rule(a, b, &rule);
}

void FaultPlane::heal(net::SiteId a, net::SiteId b) {
  ++faults_applied_;
  BS_INFO("fault", "heal sites %zu <-> %zu", a, b);
  set_link_rule(a, b, nullptr);
}

void FaultPlane::degrade(net::SiteId a, net::SiteId b, double drop_prob,
                         SimDuration extra_latency) {
  ++faults_applied_;
  BS_INFO("fault", "degrade sites %zu <-> %zu (drop %.2f, +%lld ns)", a, b,
          drop_prob, static_cast<long long>(extra_latency));
  const LinkRule rule{.drop_prob = drop_prob, .extra_latency = extra_latency};
  set_link_rule(a, b, &rule);
}

void FaultPlane::slow_disk(NodeId node, double factor) {
  rpc::Node* n = cluster_.node(node);
  if (n == nullptr || factor <= 0) return;
  ++faults_applied_;
  BS_INFO("fault", "slow disk on node %llu (x%.2f)",
          static_cast<unsigned long long>(node.value), factor);
  slowed_[node.value] = factor;
  cluster_.flows().set_capacity(n->disk(), n->spec().disk_bps * factor);
}

void FaultPlane::restore_disk(NodeId node) {
  rpc::Node* n = cluster_.node(node);
  if (n == nullptr) return;
  if (slowed_.erase(node.value) == 0) return;
  ++faults_applied_;
  cluster_.flows().set_capacity(n->disk(), n->spec().disk_bps);
}

void FaultPlane::clear() {
  if (link_listener_) {
    std::vector<std::uint64_t> parted;
    // bslint: allow(det-unordered-iter): snapshot is sorted before use
    for (const auto& [key, rule] : links_) {
      if (rule.partitioned) parted.push_back(key);
    }
    std::sort(parted.begin(), parted.end());
    for (std::uint64_t key : parted) {
      link_listener_(static_cast<net::SiteId>(key & 0xffffffffull),
                     static_cast<net::SiteId>(key >> 32), false);
    }
  }
  links_.clear();
  std::vector<std::uint64_t> ids;
  ids.reserve(slowed_.size());
  // bslint: allow(det-unordered-iter): snapshot is sorted before use
  for (const auto& [id, factor] : slowed_) ids.push_back(id);
  // Restore in id order: each restore is a FlowScheduler capacity change,
  // so the order is part of the deterministic event schedule.
  std::sort(ids.begin(), ids.end());
  for (std::uint64_t id : ids) restore_disk(NodeId{id});
}

void FaultPlane::apply_now(const FaultEvent& ev) {
  obs::count("fault.injected");
  if (auto* ts = obs::sink()) {
    ts->instant("fault.inject", "fault", 0, ev.kind_name(),
                {"node", static_cast<std::int64_t>(ev.node.value)},
                {"site_a", static_cast<std::int64_t>(ev.a)});
  }
  switch (ev.kind) {
    case FaultEvent::Kind::crash:
      crash(ev.node, ev.lose_storage, ev.torn_tail);
      break;
    case FaultEvent::Kind::restart: restart(ev.node); break;
    case FaultEvent::Kind::partition: partition(ev.a, ev.b); break;
    case FaultEvent::Kind::heal:
    case FaultEvent::Kind::restore_link: heal(ev.a, ev.b); break;
    case FaultEvent::Kind::degrade:
      degrade(ev.a, ev.b, ev.drop_prob, ev.extra_latency);
      break;
    case FaultEvent::Kind::slow_disk: slow_disk(ev.node, ev.disk_factor); break;
    case FaultEvent::Kind::restore_disk: restore_disk(ev.node); break;
    case FaultEvent::Kind::power_loss: power_loss(ev.a); break;
    case FaultEvent::Kind::power_restore: power_restore(ev.a); break;
  }
}

void FaultPlane::schedule(const FaultEvent& ev) {
  auto& sim = cluster_.sim();
  if (ev.at <= sim.now()) {
    apply_now(ev);
    return;
  }
  sim.schedule_at(ev.at, [this, ev] { apply_now(ev); });
}

void FaultPlane::schedule_all(const std::vector<FaultEvent>& schedule) {
  for (const auto& ev : schedule) this->schedule(ev);
}

std::vector<FaultEvent> random_schedule(std::uint64_t seed,
                                        const ScheduleOptions& opts) {
  // Bounds of the draws: crash downtimes, link faults (and disk slowdowns,
  // which share their windows) and site power outages.
  constexpr SimDuration kMinDowntime = simtime::seconds(5);
  constexpr SimDuration kMaxDowntime = simtime::seconds(40);
  constexpr double kMaxDropProb = 0.3;
  constexpr SimDuration kMaxExtraLatency = simtime::millis(200);
  constexpr SimDuration kMinLinkFault = simtime::seconds(5);
  constexpr SimDuration kMaxLinkFault = simtime::seconds(30);
  constexpr double kMinDiskFactor = 0.1;
  constexpr SimDuration kMinOutage = simtime::seconds(5);
  constexpr SimDuration kMaxOutage = simtime::seconds(30);
  Rng rng(seed);
  std::vector<FaultEvent> out;
  const SimTime span = opts.horizon - opts.start;
  // Faults (and their matching heals/restarts) all land inside the active
  // window so the run's tail is quiescent and published data is verifiable.
  // With journaled stores the last restart still has a replay ahead of it;
  // carving the worst-case replay bound out of the window keeps the tail
  // long enough for every store to become readable again.
  const SimTime active_end = std::max(
      opts.start,
      opts.start +
          static_cast<SimTime>(static_cast<double>(span) *
                               opts.quiesce_fraction) -
          opts.worst_case_recovery);
  auto time_in = [&](SimTime lo, SimTime hi) {
    return lo >= hi ? lo
                    : static_cast<SimTime>(rng.uniform_int(lo, hi - 1));
  };
  auto window = [&](SimDuration min_len, SimDuration max_len) {
    const SimTime t0 = time_in(opts.start, active_end - min_len);
    SimDuration len = static_cast<SimDuration>(
        rng.uniform_int(min_len, std::max(min_len, max_len)));
    const SimTime t1 = std::min<SimTime>(t0 + len, active_end);
    return std::pair<SimTime, SimTime>{t0, t1};
  };

  std::size_t wipes = 0;
  if (!opts.crashable.empty()) {
    for (std::size_t i = 0; i < opts.crashes; ++i) {
      const NodeId victim = opts.crashable[static_cast<std::size_t>(
          rng.next_below(opts.crashable.size()))];
      auto [t0, t1] = window(kMinDowntime, kMaxDowntime);
      FaultEvent crash;
      crash.at = t0;
      crash.kind = FaultEvent::Kind::crash;
      crash.node = victim;
      if (wipes < opts.max_wipe_crashes && rng.chance(0.5)) {
        crash.lose_storage = true;
        ++wipes;
      }
      // Gated draw: consumes RNG only when the knob is on, preserving the
      // bit-exact schedules of pre-existing seeds.
      if (opts.torn_tail_prob > 0 && !crash.lose_storage &&
          rng.chance(opts.torn_tail_prob)) {
        crash.torn_tail = true;
      }
      out.push_back(crash);
      FaultEvent restart;
      restart.at = t1;
      restart.kind = FaultEvent::Kind::restart;
      restart.node = victim;
      out.push_back(restart);
    }
  }

  auto pick_pair = [&](net::SiteId& a, net::SiteId& b) {
    a = static_cast<net::SiteId>(rng.next_below(opts.site_count));
    b = static_cast<net::SiteId>(rng.next_below(opts.site_count - 1));
    if (b >= a) ++b;
  };
  if (opts.site_count >= 2) {
    for (std::size_t i = 0; i < opts.partitions; ++i) {
      FaultEvent part;
      pick_pair(part.a, part.b);
      auto [t0, t1] = window(kMinLinkFault, kMaxLinkFault);
      part.at = t0;
      part.kind = FaultEvent::Kind::partition;
      out.push_back(part);
      FaultEvent h = part;
      h.at = t1;
      h.kind = FaultEvent::Kind::heal;
      out.push_back(h);
    }
    for (std::size_t i = 0; i < opts.degrades; ++i) {
      FaultEvent deg;
      pick_pair(deg.a, deg.b);
      auto [t0, t1] = window(kMinLinkFault, kMaxLinkFault);
      deg.at = t0;
      deg.kind = FaultEvent::Kind::degrade;
      deg.drop_prob = rng.uniform(0.02, kMaxDropProb);
      deg.extra_latency =
          static_cast<SimDuration>(rng.uniform_int(0, kMaxExtraLatency));
      out.push_back(deg);
      FaultEvent h = deg;
      h.at = t1;
      h.kind = FaultEvent::Kind::restore_link;
      out.push_back(h);
    }
  }

  if (!opts.crashable.empty()) {
    for (std::size_t i = 0; i < opts.disk_slowdowns; ++i) {
      const NodeId victim = opts.crashable[static_cast<std::size_t>(
          rng.next_below(opts.crashable.size()))];
      auto [t0, t1] = window(kMinLinkFault, kMaxLinkFault);
      FaultEvent slow;
      slow.at = t0;
      slow.kind = FaultEvent::Kind::slow_disk;
      slow.node = victim;
      slow.disk_factor = rng.uniform(kMinDiskFactor, 0.6);
      out.push_back(slow);
      FaultEvent rest = slow;
      rest.at = t1;
      rest.kind = FaultEvent::Kind::restore_disk;
      out.push_back(rest);
    }
  }

  if (opts.power_losses > 0 && !opts.power_loss_sites.empty()) {
    for (std::size_t i = 0; i < opts.power_losses; ++i) {
      const net::SiteId site = opts.power_loss_sites[static_cast<std::size_t>(
          rng.next_below(opts.power_loss_sites.size()))];
      auto [t0, t1] = window(kMinOutage, kMaxOutage);
      FaultEvent loss;
      loss.at = t0;
      loss.kind = FaultEvent::Kind::power_loss;
      loss.a = site;
      out.push_back(loss);
      FaultEvent restore = loss;
      restore.at = t1;
      restore.kind = FaultEvent::Kind::power_restore;
      out.push_back(restore);
    }
  }

  // Appended after every legacy block: new knobs must not perturb the RNG
  // stream of schedules generated before they existed.
  if (opts.long_partitions > 0 && opts.site_count >= 2) {
    for (std::size_t i = 0; i < opts.long_partitions; ++i) {
      FaultEvent part;
      if (opts.anchor_long_partitions) {
        part.a = opts.long_partition_anchor;
        part.b = static_cast<net::SiteId>(
            rng.next_below(opts.site_count - 1));
        if (part.b >= part.a) ++part.b;
      } else {
        pick_pair(part.a, part.b);
      }
      auto [t0, t1] =
          window(opts.min_long_partition, opts.max_long_partition);
      part.at = t0;
      part.kind = FaultEvent::Kind::partition;
      out.push_back(part);
      FaultEvent h = part;
      h.at = t1;
      h.kind = FaultEvent::Kind::heal;
      out.push_back(h);
    }
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at < y.at;
                   });
  return out;
}

}  // namespace bs::fault
