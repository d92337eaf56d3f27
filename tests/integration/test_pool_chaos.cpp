// Frame-pool ablation under chaos (ctest label: chaos): a seeded faulted
// run must be bit-identical with frame pooling on and off. Recycling only
// moves coroutine frames between addresses and no address may be
// observable, frame reuse after crashes abort coroutines mid-suspend
// included.
#include <gtest/gtest.h>

#include "integration/chaos_runner.hpp"
#include "sim/frame_pool.hpp"

namespace bs::test {
namespace {

std::uint64_t run_faulted_workload(std::uint64_t seed, bool pool_enabled) {
  auto& pool = sim::FramePool::instance();
  const bool prev = pool.enabled();
  pool.set_enabled(pool_enabled);
  pool.trim();

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
  const std::uint64_t digest = run_chaos(seed, sc).digest;

  pool.set_enabled(prev);
  pool.trim();
  return digest;
}

class PoolChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoolChaosSeeds, PoolingNeverChangesFaultedOutcomes) {
  const std::uint64_t seed = GetParam();
  const std::uint64_t pooled = run_faulted_workload(seed, true);
  const std::uint64_t unpooled = run_faulted_workload(seed, false);
  EXPECT_EQ(pooled, unpooled) << "seed " << seed;

  // And pooling itself replays bit-identically.
  EXPECT_EQ(pooled, run_faulted_workload(seed, true)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(FramePoolAblation, PoolChaosSeeds,
                         ::testing::Values(1ull, 7ull, 23ull));

}  // namespace
}  // namespace bs::test
