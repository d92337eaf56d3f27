// BS_* knob parsing, driven through the components that read the knobs:
// every on/off switch takes exactly on|1|off|0, BS_FLOW_SCHED takes
// incremental|reference|global|0, BS_REPL_POLICY takes its policy names,
// every count takes decimal digits within its range, and any other value
// is a usage error — variable, value and accepted set on stderr, exit
// status 2.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>

#include "cloud/gateway.hpp"
#include "net/flow.hpp"
#include "repl/plane.hpp"

namespace bs {
namespace {

/// Sets one environment variable for the guard's lifetime.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// Whether the replication plane is enabled under BS_REPL=value, starting
/// from `fallback` so the switch has to act to change the answer.
bool repl_with(const char* value, bool fallback) {
  const ScopedEnv env("BS_REPL", value);
  repl::ReplOptions base;
  base.enabled = fallback;
  return repl::repl_options_from_env(base).enabled;
}

TEST(EnvKnobs, SwitchTakesOnOneOffZero) {
  EXPECT_TRUE(repl_with("on", false));
  EXPECT_TRUE(repl_with("1", false));
  EXPECT_FALSE(repl_with("off", true));
  EXPECT_FALSE(repl_with("0", true));
}

TEST(EnvKnobsDeathTest, UnknownSwitchValueExitsWithStatus2) {
  EXPECT_EXIT(repl_with("false", true), ::testing::ExitedWithCode(2),
              "BS_REPL=false: unknown value \\(accepted: on.1.off.0\\)");
}

TEST(EnvKnobs, FlowSchedTakesItsModeNames) {
  for (const char* v : {"incremental", "reference", "global", "0"}) {
    const ScopedEnv env("BS_FLOW_SCHED", v);
    EXPECT_EQ(net::FlowScheduler::Options::from_env().incremental,
              std::string_view(v) == "incremental")
        << v;
  }
}

TEST(EnvKnobsDeathTest, UnknownFlowSchedValueExitsWithStatus2) {
  const ScopedEnv env("BS_FLOW_SCHED", "typo");
  EXPECT_EXIT(net::FlowScheduler::Options::from_env(),
              ::testing::ExitedWithCode(2),
              "BS_FLOW_SCHED=typo: unknown value "
              "\\(accepted: incremental.reference.global.0\\)");
}

TEST(EnvKnobs, CountsAndReplPolicyTakeTheirValues) {
  {
    const repl::ReplOptions d = repl::repl_options_from_env();
    const repl::ReplOptions defaults;
    EXPECT_EQ(d.egress.queue_bound, defaults.egress.queue_bound);
    EXPECT_EQ(d.egress.overflow, defaults.egress.overflow);
    EXPECT_EQ(d.egress.custody_timeout, defaults.egress.custody_timeout);
    EXPECT_EQ(d.reconcile.interval, defaults.reconcile.interval);
  }
  {
    const ScopedEnv queue("BS_REPL_QUEUE", "7");
    const ScopedEnv policy("BS_REPL_POLICY", "drop_oldest");
    const ScopedEnv timeout("BS_REPL_TIMEOUT_MS", "250");
    const ScopedEnv reconcile("BS_REPL_RECONCILE_MS", "1500");
    const repl::ReplOptions o = repl::repl_options_from_env();
    EXPECT_EQ(o.egress.queue_bound, 7u);
    EXPECT_EQ(o.egress.overflow, repl::OverflowPolicy::drop_oldest);
    EXPECT_EQ(o.egress.custody_timeout, simtime::millis(250));
    EXPECT_EQ(o.reconcile.interval, simtime::millis(1500));
  }
  {
    const ScopedEnv chunk("BS_GW_CHUNK_KB", "64");
    const ScopedEnv clients("BS_GW_MAX_CLIENTS", "0");  // 0 = no bound
    cloud::GatewayOptions base;
    base.max_user_clients = 5;
    const cloud::GatewayOptions o = cloud::apply_gateway_env(base);
    EXPECT_EQ(o.object_chunk_size, 64 * units::KB);
    EXPECT_EQ(o.max_user_clients, 0u);
  }
}

TEST(EnvKnobsDeathTest, UnknownReplPolicyExitsWithStatus2) {
  const ScopedEnv env("BS_REPL_POLICY", "spil");
  EXPECT_EXIT((void)repl::repl_options_from_env(),
              ::testing::ExitedWithCode(2),
              "BS_REPL_POLICY=spil: unknown value "
              "\\(accepted: spill.drop_newest.drop_oldest\\)");
}

TEST(EnvKnobsDeathTest, MalformedOrOutOfRangeCountExitsWithStatus2) {
  // Read leniently, each of these would keep the default without a word
  // or, for BS_GW_MAX_CLIENTS=abc, read as 0 and turn the bound off.
  const auto gateway = [] { (void)cloud::apply_gateway_env({}); };
  const auto repl = [] { (void)repl::repl_options_from_env(); };
  EXPECT_EXIT(
      { const ScopedEnv e("BS_GW_MAX_CLIENTS", "abc"); gateway(); },
      ::testing::ExitedWithCode(2),
      "BS_GW_MAX_CLIENTS=abc: unknown value \\(accepted: decimal count");
  EXPECT_EXIT({ const ScopedEnv e("BS_GW_CHUNK_KB", "0"); gateway(); },
              ::testing::ExitedWithCode(2), "BS_GW_CHUNK_KB=0: ");
  EXPECT_EXIT({ const ScopedEnv e("BS_GW_CHUNK_KB", "64k"); gateway(); },
              ::testing::ExitedWithCode(2), "BS_GW_CHUNK_KB=64k: ");
  EXPECT_EXIT({ const ScopedEnv e("BS_REPL_QUEUE", "-5"); repl(); },
              ::testing::ExitedWithCode(2), "BS_REPL_QUEUE=-5: ");
  EXPECT_EXIT({ const ScopedEnv e("BS_REPL_QUEUE", ""); repl(); },
              ::testing::ExitedWithCode(2), "BS_REPL_QUEUE=: ");
  EXPECT_EXIT({ const ScopedEnv e("BS_REPL_TIMEOUT_MS", "5s"); repl(); },
              ::testing::ExitedWithCode(2), "BS_REPL_TIMEOUT_MS=5s: ");
  // Beyond the largest millisecond count a SimDuration can hold.
  EXPECT_EXIT(
      {
        const ScopedEnv e("BS_REPL_RECONCILE_MS", "99999999999999");
        repl();
      },
      ::testing::ExitedWithCode(2), "BS_REPL_RECONCILE_MS=99999999999999: ");
}

}  // namespace
}  // namespace bs
