// BS_* knob parsing, driven through the components that read the knobs:
// every on/off switch takes exactly on|1|off|0, BS_FLOW_SCHED takes
// incremental|reference|global|0, every count takes decimal digits within
// its range, and any other value is a usage error — variable, value and
// accepted set on stderr, exit status 2.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>

#include "cloud/gateway.hpp"
#include "net/flow.hpp"

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

/// Whether gateway dedup is on under BS_GW_DEDUP=value, starting from
/// `fallback` so the switch has to act to change the answer.
bool dedup_with(const char* value, bool fallback) {
  const ScopedEnv env("BS_GW_DEDUP", value);
  cloud::GatewayOptions base;
  base.dedup = fallback;
  return cloud::apply_gateway_env(base).dedup;
}

TEST(EnvKnobs, SwitchTakesOnOneOffZero) {
  EXPECT_TRUE(dedup_with("on", false));
  EXPECT_TRUE(dedup_with("1", false));
  EXPECT_FALSE(dedup_with("off", true));
  EXPECT_FALSE(dedup_with("0", true));
}

TEST(EnvKnobsDeathTest, UnknownSwitchValueExitsWithStatus2) {
  EXPECT_EXIT(dedup_with("false", true), ::testing::ExitedWithCode(2),
              "BS_GW_DEDUP=false: unknown value \\(accepted: on.1.off.0\\)");
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

TEST(EnvKnobs, CountsTakeTheirValues) {
  {
    const cloud::GatewayOptions d = cloud::apply_gateway_env({});
    const cloud::GatewayOptions defaults;
    EXPECT_EQ(d.object_chunk_size, defaults.object_chunk_size);
    EXPECT_EQ(d.max_user_clients, defaults.max_user_clients);
  }
  {
    const ScopedEnv chunk("BS_GW_CHUNK_KB", "64");
    const ScopedEnv clients("BS_GW_MAX_CLIENTS", "7");
    const cloud::GatewayOptions o = cloud::apply_gateway_env({});
    EXPECT_EQ(o.object_chunk_size, 64 * units::KB);
    EXPECT_EQ(o.max_user_clients, 7u);
  }
  {
    // The largest chunk count whose byte size still fits in 64 bits.
    const ScopedEnv chunk("BS_GW_CHUNK_KB", "18446744073709551");
    const ScopedEnv clients("BS_GW_MAX_CLIENTS", "0");  // 0 = no bound
    cloud::GatewayOptions base;
    base.max_user_clients = 5;
    const cloud::GatewayOptions o = cloud::apply_gateway_env(base);
    EXPECT_EQ(o.object_chunk_size, 18446744073709551ull * units::KB);
    EXPECT_EQ(o.max_user_clients, 0u);
  }
}

TEST(EnvKnobsDeathTest, MalformedOrOutOfRangeCountExitsWithStatus2) {
  // Read leniently, each of these would keep the default without a word
  // or, for BS_GW_MAX_CLIENTS=abc, read as 0 and turn the bound off.
  const auto gateway = [] { (void)cloud::apply_gateway_env({}); };
  EXPECT_EXIT(
      { const ScopedEnv e("BS_GW_MAX_CLIENTS", "abc"); gateway(); },
      ::testing::ExitedWithCode(2),
      "BS_GW_MAX_CLIENTS=abc: unknown value \\(accepted: decimal count");
  EXPECT_EXIT({ const ScopedEnv e("BS_GW_MAX_CLIENTS", "-5"); gateway(); },
              ::testing::ExitedWithCode(2), "BS_GW_MAX_CLIENTS=-5: ");
  EXPECT_EXIT({ const ScopedEnv e("BS_GW_MAX_CLIENTS", ""); gateway(); },
              ::testing::ExitedWithCode(2), "BS_GW_MAX_CLIENTS=: ");
  EXPECT_EXIT({ const ScopedEnv e("BS_GW_CHUNK_KB", "0"); gateway(); },
              ::testing::ExitedWithCode(2), "BS_GW_CHUNK_KB=0: ");
  EXPECT_EXIT({ const ScopedEnv e("BS_GW_CHUNK_KB", "64k"); gateway(); },
              ::testing::ExitedWithCode(2), "BS_GW_CHUNK_KB=64k: ");
  // Beyond the largest chunk count whose byte size fits in 64 bits.
  EXPECT_EXIT(
      {
        const ScopedEnv e("BS_GW_CHUNK_KB", "18446744073709552");
        gateway();
      },
      ::testing::ExitedWithCode(2), "BS_GW_CHUNK_KB=18446744073709552: ");
}

}  // namespace
}  // namespace bs
