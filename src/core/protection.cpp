#include "core/protection.hpp"

#include "sec/framework.hpp"

namespace bs::core {

namespace {
constexpr double kAttackRejectedRate = 5.0;  ///< rejections/s: an attack
constexpr SimDuration kFastScan = simtime::seconds(2);
}  // namespace

// bslint: allow(coro-ref-param): see module.hpp lifetime contract
sim::Task<std::vector<AdaptAction>> ProtectionModule::analyze(
    const KnowledgeBase& knowledge, AgentContext& ctx) {
  std::vector<AdaptAction> out;
  if (ctx.security == nullptr) co_return out;
  const double rejected = knowledge.current().rejected_rate;

  if (!relaxed_scan_ && rejected > kAttackRejectedRate) {
    relaxed_scan_ = ctx.security->engine().scan_interval();
    AdaptAction a;
    a.type = AdaptAction::Type::set_scan_interval;
    a.duration = kFastScan;
    a.reason = "rejection pressure: harden scanning";
    out.push_back(std::move(a));
  } else if (relaxed_scan_ && rejected < kAttackRejectedRate * 0.2) {
    AdaptAction a;
    a.type = AdaptAction::Type::set_scan_interval;
    a.duration = *relaxed_scan_;
    a.reason = "quiet: relax scanning";
    out.push_back(std::move(a));
    relaxed_scan_.reset();
  }
  co_return out;
}

}  // namespace bs::core
