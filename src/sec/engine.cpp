#include "sec/engine.hpp"

namespace bs::sec {

DetectionEngine::DetectionEngine(sim::Simulation& sim,
                                 const intro::UserActivityHistory& activity,
                                 TrustManager& trust,
                                 PolicyEnforcement& enforcement,
                                 DetectionOptions options)
    : sim_(sim), activity_(activity), trust_(trust),
      enforcement_(enforcement), options_(options) {}

void DetectionEngine::load(std::vector<Policy> policies) {
  policies_ = std::move(policies);
  last_fired_.clear();
}

Result<void> DetectionEngine::load_source(const std::string& source) {
  auto parsed = parse_policies(source);
  if (!parsed.ok()) return parsed.error();
  load(std::move(parsed).value());
  return ok_result();
}

void DetectionEngine::start() {
  if (running_) return;
  running_ = true;
  sim_.spawn(scan_loop());
}

sim::Task<void> DetectionEngine::scan_loop() {
  while (running_) {
    co_await sim_.delay(options_.scan_interval);
    if (!running_) break;
    auto found = scan();
    for (const Violation& v : found) enforcement_.handle(v);
  }
}

std::vector<Violation> DetectionEngine::scan() {
  // Clients quiet for longer than this are skipped.
  constexpr SimDuration kActivityHorizon = simtime::seconds(60);
  ++scans_;
  const SimTime now = sim_.now();
  std::vector<Violation> out;
  for (ClientId client : activity_.active_clients(kActivityHorizon, now)) {
    // A blocked client cannot act; skip to avoid double sanctions.
    if (enforcement_.is_blocked(client, now)) continue;
    bool violated_any = false;
    EvalContext ctx;
    ctx.activity = &activity_;
    ctx.client = client;
    ctx.now = now;
    ctx.trust = trust_.trust(client);
    ctx.threshold_scale = trust_.threshold_scale(client);
    for (std::size_t i = 0; i < policies_.size(); ++i) {
      const auto key = std::make_pair(client.value, i);
      auto fired = last_fired_.find(key);
      if (fired != last_fired_.end() &&
          now - fired->second < options_.refractory) {
        continue;
      }
      if (policies_[i].matches(ctx)) {
        last_fired_[key] = now;
        out.push_back(Violation{client, &policies_[i], now});
        ++violations_;
        violated_any = true;
      }
    }
    if (!violated_any) trust_.record_clean(client);
  }
  return out;
}

}  // namespace bs::sec
