#include "sec/enforcement.hpp"

#include "common/log.hpp"

namespace bs::sec {

PolicyEnforcement::PolicyEnforcement(sim::Simulation& sim,
                                     TrustManager& trust)
    : sim_(sim), trust_(trust) {}

void PolicyEnforcement::handle(const Violation& v) {
  trust_.record_violation(v.client, v.policy->severity);
  for (const Action& action : v.policy->actions) {
    apply(v, action);
  }
}

void PolicyEnforcement::apply(const Violation& v, const Action& action) {
  ActionLogEntry entry;
  entry.time = sim_.now();
  entry.client = v.client;
  entry.policy = v.policy->name;
  entry.severity = v.policy->severity;
  entry.action = action;

  switch (action.type) {
    case Action::Type::block: {
      // Block durations scale with (2 - trust): repeat offenders sit out
      // longer.
      const double scale = 2.0 - trust_.trust(v.client);
      const auto dur = static_cast<SimDuration>(
          static_cast<double>(action.duration) * scale);
      SimTime& until = blocked_[v.client.value];
      until = std::max(until, sim_.now() + dur);
      BS_INFO("sec", "client %llu blocked for %s by policy '%s'",
              (unsigned long long)v.client.value,
              simtime::to_string(dur).c_str(), v.policy->name.c_str());
      break;
    }
    case Action::Type::throttle: {
      Throttle t{TokenBucket(action.value, action.value),
                 action.duration > 0 ? sim_.now() + action.duration
                                     : simtime::kInfinite};
      throttles_.insert_or_assign(v.client.value, std::move(t));
      break;
    }
    case Action::Type::trust_delta:
      trust_.adjust(v.client, action.value);
      break;
    case Action::Type::alert:
      BS_WARN("sec", "ALERT policy '%s' violated by client %llu",
              v.policy->name.c_str(), (unsigned long long)v.client.value);
      break;
    case Action::Type::log:
      BS_INFO("sec", "policy '%s' violated by client %llu",
              v.policy->name.c_str(), (unsigned long long)v.client.value);
      break;
  }
  log_.push_back(entry);
  if (observer_) observer_(entry);
}

Result<void> PolicyEnforcement::admission_check(const rpc::Envelope& env,
                                                const char* /*req_name*/) {
  if (!env.client.valid()) return ok_result();  // internal traffic
  // Refusals carry their code and no text: under a flood they are the most
  // common RPC outcome, and a text past the 15-character small-string
  // buffer would cost each one a heap allocation.
  const SimTime now = sim_.now();
  if (is_blocked(env.client, now)) {
    ++rejections_;
    return Error{Errc::blocked, {}};
  }
  auto it = throttles_.find(env.client.value);
  if (it != throttles_.end()) {
    if (it->second.until <= now) {
      throttles_.erase(it);  // sanction served
    } else if (!it->second.bucket.try_consume(now)) {
      ++rejections_;
      return Error{Errc::throttled, {}};
    }
  }
  return ok_result();
}

void PolicyEnforcement::attach(rpc::Node& node) {
  node.set_admission([this](const rpc::Envelope& env, const char* name) {
    return admission_check(env, name);
  });
}

bool PolicyEnforcement::is_blocked(ClientId client, SimTime now) const {
  auto it = blocked_.find(client.value);
  return it != blocked_.end() && it->second > now;
}

void PolicyEnforcement::pardon(ClientId client) {
  blocked_.erase(client.value);
  throttles_.erase(client.value);
}

std::size_t PolicyEnforcement::blocked_count(SimTime now) const {
  std::size_t n = 0;
  for (const auto& [id, until] : blocked_) {
    if (until > now) ++n;
  }
  return n;
}

}  // namespace bs::sec
