// BS_* knob parsing: every on/off switch takes exactly on|1|off|0,
// BS_FLOW_SCHED takes incremental|reference|global|0, and any other value
// is a usage error — variable, value and accepted set on stderr, exit
// status 2. A knob only sets a default: an option the caller sets
// explicitly is never overridden by a stray variable.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>

#include "blob/deployment.hpp"
#include "common/env.hpp"
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

/// The frame pool's switch under BS_FRAME_POOL=value, starting from
/// `fallback` so the switch has to act to change the answer.
bool frame_pool_with(const char* value, bool fallback) {
  const ScopedEnv env("BS_FRAME_POOL", value);
  return env_switch("BS_FRAME_POOL", fallback);
}

TEST(EnvKnobs, SwitchTakesOnOneOffZero) {
  EXPECT_TRUE(frame_pool_with("on", false));
  EXPECT_TRUE(frame_pool_with("1", false));
  EXPECT_FALSE(frame_pool_with("off", true));
  EXPECT_FALSE(frame_pool_with("0", true));
}

TEST(EnvKnobsDeathTest, UnknownSwitchValueExitsWithStatus2) {
  EXPECT_EXIT(frame_pool_with("false", true), ::testing::ExitedWithCode(2),
              "BS_FRAME_POOL=false: unknown value \\(accepted: on.1.off.0\\)");
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

TEST(EnvKnobs, StrayJournalVariableLeavesTheExplicitOptionAlone) {
  const ScopedEnv env("BS_JOURNAL", "off");
  sim::Simulation sim;
  blob::DeploymentConfig config;
  config.journal.enabled = true;
  const blob::Deployment dep(sim, config);
  EXPECT_TRUE(dep.config().journal.enabled);
  EXPECT_TRUE(dep.config().vm_options.journal.enabled);
}

}  // namespace
}  // namespace bs
