// BS_* knob parsing, driven through the components that read the knobs:
// every on/off switch takes exactly on|1|off|0, BS_FLOW_SCHED takes
// incremental|reference|global|0, and any other value is a usage error —
// variable, value and accepted set on stderr, exit status 2.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>

#include "net/flow.hpp"
#include "net/topology.hpp"
#include "rpc/rpc.hpp"
#include "sim/simulation.hpp"

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

/// Site lanes a 3-site cluster configures under BS_SIM_LANES=value.
std::size_t lanes_with(const char* value) {
  const ScopedEnv env("BS_SIM_LANES", value);
  sim::Simulation sim;
  rpc::Cluster cluster(sim, net::Topology::grid5000(3), 1);
  return sim.site_lane_count();
}

TEST(EnvKnobs, SwitchTakesOnOneOffZero) {
  EXPECT_EQ(lanes_with("on"), 3u);
  EXPECT_EQ(lanes_with("1"), 3u);
  EXPECT_EQ(lanes_with("off"), 0u);
  EXPECT_EQ(lanes_with("0"), 0u);
}

TEST(EnvKnobsDeathTest, UnknownSwitchValueExitsWithStatus2) {
  EXPECT_EXIT(lanes_with("false"), ::testing::ExitedWithCode(2),
              "BS_SIM_LANES=false: unknown value \\(accepted: on.1.off.0\\)");
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

}  // namespace
}  // namespace bs
