// Regression lock on `fault::random_schedule`: the long-partition knobs
// added for the disruption-tolerance suites must not perturb the schedules
// legacy seeds produce when the knobs are off — seeded chaos suites
// elsewhere in the tree depend on those schedules bit-for-bit. The golden
// digest below was captured from the pre-knob generator.
#include <gtest/gtest.h>

#include <cstring>

#include "common/hash.hpp"
#include "fault/fault_plane.hpp"
#include "test_util.hpp"

namespace bs {
namespace {

fault::ScheduleOptions legacy_options() {
  fault::ScheduleOptions so;
  so.horizon = simtime::minutes(4);
  for (std::uint64_t n = 2; n < 10; ++n) so.crashable.push_back(NodeId{n});
  so.crashes = 3;
  so.max_wipe_crashes = 1;
  so.site_count = 3;
  so.partitions = 2;
  so.degrades = 2;
  so.disk_slowdowns = 1;
  return so;
}

std::uint64_t schedule_digest(const std::vector<fault::FaultEvent>& sched,
                              Digest& dg) {
  dg.mix(sched.size());
  for (const fault::FaultEvent& e : sched) {
    dg.mix(static_cast<std::uint64_t>(e.at));
    dg.mix(static_cast<std::uint64_t>(e.kind));
    dg.mix(e.node.value);
    dg.mix(e.lose_storage ? 1 : 0);
    dg.mix(e.torn_tail ? 1 : 0);
    dg.mix(e.a);
    dg.mix(e.b);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &e.drop_prob, sizeof bits);
    dg.mix(bits);
    dg.mix(static_cast<std::uint64_t>(e.extra_latency));
    std::memcpy(&bits, &e.disk_factor, sizeof bits);
    dg.mix(bits);
  }
  return dg.value();
}

TEST(ScheduleKnobs, LegacySeedsProduceUnchangedSchedules) {
  Digest dg;
  for (std::uint64_t seed : {7ull, 23ull, 104729ull}) {
    schedule_digest(fault::random_schedule(seed, legacy_options()), dg);
  }
  // Captured before the long-partition knobs landed. If this moves, every
  // seeded chaos suite in the tree silently runs a different scenario.
  EXPECT_EQ(dg.value(), 0x4e26296a156a7c6dull);
}

TEST(ScheduleKnobs, LongPartitionsAddHealedPairsInsideTheWindow) {
  fault::ScheduleOptions so = legacy_options();
  so.partitions = 0;
  so.degrades = 0;
  so.crashes = 0;
  so.disk_slowdowns = 0;
  so.long_partitions = 2;
  so.min_long_partition = simtime::seconds(45);
  so.max_long_partition = simtime::seconds(90);
  const auto sched = fault::random_schedule(42, so);

  std::size_t cuts = 0;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    if (sched[i].kind != fault::FaultEvent::Kind::partition) continue;
    ++cuts;
    // Every long partition heals, and the outage lasts the configured
    // window — not the (much shorter) legacy partition duration.
    bool healed = false;
    for (std::size_t j = i + 1; j < sched.size(); ++j) {
      if (sched[j].kind == fault::FaultEvent::Kind::heal &&
          sched[j].a == sched[i].a && sched[j].b == sched[i].b) {
        const SimDuration held = sched[j].at - sched[i].at;
        EXPECT_GE(held, simtime::seconds(45));
        EXPECT_LE(held, simtime::seconds(90));
        healed = true;
        break;
      }
    }
    EXPECT_TRUE(healed);
  }
  EXPECT_EQ(cuts, 2u);
}

TEST(ScheduleKnobs, AnchoredLongPartitionsAlwaysCutTheAnchorSite) {
  fault::ScheduleOptions so = legacy_options();
  so.partitions = 0;
  so.degrades = 0;
  so.crashes = 0;
  so.disk_slowdowns = 0;
  so.long_partitions = 4;
  so.anchor_long_partitions = true;
  so.long_partition_anchor = 1;
  for (std::uint64_t seed : {3ull, 9ull, 27ull}) {
    for (const auto& e : fault::random_schedule(seed, so)) {
      if (e.kind != fault::FaultEvent::Kind::partition &&
          e.kind != fault::FaultEvent::Kind::heal) {
        continue;
      }
      EXPECT_TRUE(e.a == 1 || e.b == 1) << "seed " << seed;
      EXPECT_NE(e.a, e.b);
    }
  }
}

TEST(ScheduleKnobs, KnobbedSchedulesStayDeterministic) {
  fault::ScheduleOptions so = legacy_options();
  so.long_partitions = 1;
  Digest a;
  Digest b;
  schedule_digest(fault::random_schedule(11, so), a);
  schedule_digest(fault::random_schedule(11, so), b);
  EXPECT_EQ(a.value(), b.value());
  // ... and the knob actually changes the scenario.
  Digest legacy;
  schedule_digest(fault::random_schedule(11, legacy_options()), legacy);
  EXPECT_NE(a.value(), legacy.value());
}

}  // namespace
}  // namespace bs
