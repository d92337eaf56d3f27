#include "core/elasticity.hpp"

#include <algorithm>
#include <cmath>

namespace bs::core {

namespace {
/// Write-bandwidth budget per provider: grow when aggregate write rate
/// divided by the pool size exceeds it.
constexpr double kWriteRatePerProvider = 60e6;
constexpr std::size_t kMaxStep = 4;  ///< providers added per decision
}  // namespace

std::size_t ElasticityModule::desired_providers(
    const intro::SystemSnapshot& snap) const {
  const std::size_t current = snap.providers.size();
  if (current == 0) return options_.min_providers;
  const double per_provider_capacity =
      snap.total_capacity / static_cast<double>(current);

  // Capacity-driven target: keep utilization at the middle of the band.
  const double target_util = (options_.util_high + options_.util_low) / 2;
  std::size_t by_space = current;
  if (per_provider_capacity > 0) {
    by_space = static_cast<std::size_t>(std::ceil(
        snap.total_used / (per_provider_capacity * target_util)));
  }
  // Load-driven target: spread the aggregate write rate.
  const std::size_t by_load = static_cast<std::size_t>(
      std::ceil(snap.aggregate_write_rate / kWriteRatePerProvider));

  return std::clamp(std::max(by_space, by_load), options_.min_providers,
                    options_.max_providers);
}

// bslint: allow(coro-ref-param): see module.hpp lifetime contract
sim::Task<std::vector<AdaptAction>> ElasticityModule::analyze(
    const KnowledgeBase& knowledge, AgentContext& ctx) {
  std::vector<AdaptAction> out;
  const auto& snap = knowledge.current();
  if (snap.providers.empty()) co_return out;

  const SimTime now = snap.time;
  if (now - last_action_ < options_.cooldown) co_return out;

  const std::size_t current = snap.providers.size();
  const double util = snap.utilization();
  const double load_per_provider =
      snap.aggregate_write_rate / static_cast<double>(current);

  const bool grow = (util > options_.util_high ||
                     load_per_provider > kWriteRatePerProvider) &&
                    current < options_.max_providers;
  const bool shrink = util < options_.util_low &&
                      load_per_provider < 0.3 * kWriteRatePerProvider &&
                      current > options_.min_providers;

  grow_signals_ = grow ? grow_signals_ + 1 : 0;
  shrink_signals_ = shrink ? shrink_signals_ + 1 : 0;

  if (grow_signals_ >= options_.signals_required) {
    const std::size_t desired = desired_providers(snap);
    const std::size_t add =
        std::min(kMaxStep,
                 desired > current ? desired - current : std::size_t{1});
    for (std::size_t i = 0; i < add; ++i) {
      AdaptAction a;
      a.type = AdaptAction::Type::add_provider;
      a.reason = "utilization/load above band";
      out.push_back(std::move(a));
    }
    grow_signals_ = 0;
    last_action_ = now;
  } else if (shrink_signals_ >= options_.signals_required) {
    // Drain the emptiest provider that is still reporting (a stale entry
    // is a dead node — the reaper and snapshot pruning handle those).
    const intro::SystemSnapshot::ProviderInfo* emptiest = nullptr;
    for (const auto& p : snap.providers) {
      if (p.updated + simtime::seconds(30) < now) continue;
      if (emptiest == nullptr || p.used < emptiest->used) emptiest = &p;
    }
    if (emptiest != nullptr) {
      AdaptAction a;
      a.type = AdaptAction::Type::drain_provider;
      a.provider = emptiest->node;
      a.reason = "utilization below band";
      out.push_back(std::move(a));
      shrink_signals_ = 0;
      last_action_ = now;
    }
  }
  (void)ctx;
  co_return out;
}

}  // namespace bs::core
