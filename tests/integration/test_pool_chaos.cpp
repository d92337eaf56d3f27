// Whole-stack oracles under chaos (ctest labels: chaos, kernel): a seeded
// faulted run must be bit-identical with frame pooling on and off, and
// with the flow scheduler's incremental and reference paths. Recycling
// only moves coroutine frames and RPC bodies between addresses and no
// address may be observable, frame reuse after crashes abort coroutines
// mid-suspend included; the two scheduling paths share their settle
// discipline, completion grouping and stored ETAs. Each oracle replays
// four scenarios: a small append run and the journaled, gateway and repl
// scenarios of their own suites.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "integration/chaos_runner.hpp"

namespace bs::test {
namespace {

/// 2 sites, 6 providers, 9 appends, a 2-minute schedule, no read-back.
ChaosScenario small_appends() {
  ChaosScenario sc;
  sc.deployment.sites = 2;
  sc.deployment.data_providers = 6;
  sc.deployment.provider_capacity = 2ull * units::GB;
  sc.schedule.horizon = simtime::minutes(2);
  sc.schedule.crashes = 2;
  sc.schedule.degrades = 1;
  sc.workload = Appends{.clients = 3, .ops_per_client = 3, .window_ms = 70000,
                        .size_steps = 2, .size_unit = 2 * units::MB};
  sc.read_sweep = false;
  sc.horizon = simtime::minutes(3);
  return sc;
}

std::vector<std::pair<const char*, ChaosScenario>> scenarios() {
  return {{"appends", small_appends()},
          {"journaled", journaled_scenario()},
          {"gateway", gateway_scenario()},
          {"repl", repl_scenario()}};
}

std::uint64_t digest_in(StackMode mode, std::uint64_t seed,
                        ChaosScenario sc) {
  sc.mode = mode;
  return run_chaos(seed, sc).digest;
}

class PoolChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoolChaosSeeds, PoolingNeverChangesFaultedOutcomes) {
  const std::uint64_t seed = GetParam();
  for (const auto& [name, sc] : scenarios()) {
    SCOPED_TRACE(name);
    const std::uint64_t pooled = digest_in(StackMode::standard, seed, sc);
    EXPECT_EQ(pooled, digest_in(StackMode::pool_off, seed, sc))
        << "seed " << seed;
    // And pooling itself replays bit-identically.
    EXPECT_EQ(pooled, digest_in(StackMode::standard, seed, sc))
        << "seed " << seed;
  }
}

class FlowChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowChaosSeeds, ReferenceSchedulerNeverChangesFaultedOutcomes) {
  const std::uint64_t seed = GetParam();
  for (const auto& [name, sc] : scenarios()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(digest_in(StackMode::standard, seed, sc),
              digest_in(StackMode::reference_flows, seed, sc))
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(FramePoolAblation, PoolChaosSeeds,
                         ::testing::Values(1ull, 7ull, 23ull));
INSTANTIATE_TEST_SUITE_P(FlowSchedAblation, FlowChaosSeeds,
                         ::testing::Values(1ull, 7ull, 23ull));

}  // namespace
}  // namespace bs::test
