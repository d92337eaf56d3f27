#include "repl/reconciler.hpp"

#include "obs/metrics.hpp"
#include "repl/plane.hpp"

namespace bs::repl {

void Reconciler::start() {
  if (running_) return;
  running_ = true;
  auto& sim = plane_.cluster().sim();
  sim.spawn(loop(++generation_));
}

void Reconciler::stop() {
  running_ = false;
  ++generation_;
  if (wake_) wake_->set();
}

void Reconciler::kick() {
  if (wake_) wake_->set();
}

sim::Task<void> Reconciler::loop(std::uint64_t generation) {
  auto& sim = plane_.cluster().sim();
  while (running_ && generation == generation_) {
    // Sleep until the anti-entropy interval elapses or a heal kicks us.
    wake_ = std::make_shared<sim::Event>(sim);
    sim.spawn(arm_timer(wake_, opts_.interval));
    co_await wake_->wait();
    if (!running_ || generation != generation_) break;
    co_await round();
  }
}

sim::Task<void> Reconciler::arm_timer(std::shared_ptr<sim::Event> ev,
                                      SimDuration d) {
  co_await plane_.cluster().sim().delay(d);
  ev->set();
}

sim::Task<void> Reconciler::round() {
  // Remote sites in ascending order, one exchange at a time: the round is
  // deterministic and never floods the origin.
  const NodeId origin_node = plane_.origin_egress_node();
  for (net::SiteId site : plane_.remote_sites()) {
    SiteEgress& remote = plane_.egress(site);
    if (plane_.partitioned(site, plane_.origin_site())) continue;
    auto scheduled = co_await remote.reconcile_with(origin_node);
    if (scheduled.has_value()) {
      ++exchanges_;
      catch_up_ += *scheduled;
      plane_.note_progress(site);
    }
  }
  ++rounds_;
  obs::count("repl.reconcile.rounds");
}

}  // namespace bs::repl
