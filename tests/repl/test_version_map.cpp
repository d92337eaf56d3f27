// Unit coverage of the divergence-tracking primitives the geo-replication
// plane is built from: VersionMap / VersionRange (RethinkDB-shaped
// version_map_t) and the bounded CustodyQueue, which spills beyond its
// bound. Pure logic — no simulation.
#include <gtest/gtest.h>

#include "repl/custody.hpp"
#include "repl/version_map.hpp"

namespace bs::repl {
namespace {

constexpr BlobId kBlob{7};

TEST(VersionRange, CoherenceIsEarliestEqualsLatest) {
  EXPECT_TRUE((VersionRange{0, 0}).is_coherent());
  EXPECT_TRUE((VersionRange{5, 5}).is_coherent());
  EXPECT_FALSE((VersionRange{3, 5}).is_coherent());
}

TEST(VersionMap, NoteAppliedDedupsByVersion) {
  VersionMap m;
  EXPECT_TRUE(m.note_applied(kBlob, 1));
  EXPECT_TRUE(m.note_applied(kBlob, 2));
  // The exactly-once primitive: a re-forwarded custody bundle lands here
  // a second time and must be recognised.
  EXPECT_FALSE(m.note_applied(kBlob, 1));
  EXPECT_FALSE(m.note_applied(kBlob, 2));
  EXPECT_EQ(m.applied_count(), 2u);
  EXPECT_TRUE(m.has_applied(kBlob, 1));
  EXPECT_FALSE(m.has_applied(kBlob, 3));
}

TEST(VersionMap, NoteAppliedAdvancesLatestKnown) {
  VersionMap m;
  m.note_applied(kBlob, 4);
  EXPECT_EQ(m.latest_known(kBlob), 4u);
  m.note_published(kBlob, 9);
  EXPECT_EQ(m.latest_known(kBlob), 9u);
  // Monotonic: stale publication notices never move the frontier back.
  m.note_published(kBlob, 2);
  EXPECT_EQ(m.latest_known(kBlob), 9u);
}

TEST(VersionMap, RangeAgainstTracksCoherentFrontier) {
  // Origin published 1, 2, 3, 5 (4 aborted — gaps are normal).
  VersionMap origin;
  for (blob::Version v : {1, 2, 3, 5}) origin.note_applied(kBlob, v);

  VersionMap remote;
  remote.note_applied(kBlob, 1);
  remote.note_applied(kBlob, 2);
  remote.note_published(kBlob, 5);  // heard of it, not applied

  VersionRange r = remote.range_against(origin, kBlob);
  EXPECT_EQ(r.earliest, 2u);  // caught up through 2; 3 is the first hole
  EXPECT_EQ(r.latest, 5u);
  EXPECT_FALSE(r.is_coherent());

  remote.note_applied(kBlob, 3);
  remote.note_applied(kBlob, 5);
  r = remote.range_against(origin, kBlob);
  EXPECT_EQ(r.earliest, r.latest);
  EXPECT_TRUE(r.is_coherent());
  EXPECT_TRUE(remote.is_coherent_against(origin));
}

TEST(VersionMap, RetiredVersionsExcuseBothSides) {
  // Origin trims v2 away before the remote catches up: the remote is no
  // longer owed it, from either side's bookkeeping.
  VersionMap origin;
  for (blob::Version v : {1, 2, 3}) origin.note_applied(kBlob, v);
  origin.retire(kBlob, 2);

  VersionMap remote;
  remote.note_applied(kBlob, 1);
  remote.note_applied(kBlob, 3);
  EXPECT_TRUE(remote.is_coherent_against(origin));

  // Mirror case: the origin still lists v2 applied, but the remote has
  // already retired it locally (heard the trim before the data).
  VersionMap origin2;
  for (blob::Version v : {1, 2, 3}) origin2.note_applied(kBlob, v);
  VersionMap remote2;
  remote2.note_applied(kBlob, 1);
  remote2.note_applied(kBlob, 3);
  EXPECT_FALSE(remote2.is_coherent_against(origin2));
  remote2.retire(kBlob, 2);
  EXPECT_TRUE(remote2.is_coherent_against(origin2));
}

TEST(VersionMap, MissingFromCoalescesRuns) {
  VersionMap origin;
  for (blob::Version v : {1, 2, 3, 5, 6, 9}) origin.note_applied(kBlob, v);
  VersionMap remote;
  remote.note_applied(kBlob, 2);
  remote.note_applied(kBlob, 5);

  const auto missing = remote.missing_from(origin);
  ASSERT_EQ(missing.size(), 3u);
  EXPECT_EQ(missing[0], (MissingRange{kBlob.value, 1, 1, 1}));
  EXPECT_EQ(missing[1], (MissingRange{kBlob.value, 3, 3, 1}));
  // 6 and 9 are consecutive *published* versions: one range, count 2.
  EXPECT_EQ(missing[2], (MissingRange{kBlob.value, 6, 9, 2}));

  // A coherent map owes nothing.
  remote.note_applied(kBlob, 1);
  remote.note_applied(kBlob, 3);
  remote.note_applied(kBlob, 6);
  remote.note_applied(kBlob, 9);
  EXPECT_TRUE(remote.missing_from(origin).empty());
}

TEST(VersionMap, EmptyRemoteOwesEverything) {
  VersionMap origin;
  for (blob::Version v = 1; v <= 4; ++v) origin.note_applied(kBlob, v);
  VersionMap remote;
  const auto missing = remote.missing_from(origin);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], (MissingRange{kBlob.value, 1, 4, 4}));
  // ... but a region the origin never published into is vacuously coherent
  // (is_coherent_against skips empty origin regions).
  VersionMap empty_origin;
  empty_origin.note_published(kBlob, 3);  // latest known, nothing applied
  EXPECT_TRUE(remote.is_coherent_against(empty_origin));
}

TEST(VersionMap, DropRegionForgetsTheBlob) {
  VersionMap origin;
  origin.note_applied(kBlob, 1);
  origin.note_applied(BlobId{8}, 1);
  VersionMap remote;
  remote.note_applied(BlobId{8}, 1);
  EXPECT_FALSE(remote.is_coherent_against(origin));
  origin.drop_region(kBlob);
  EXPECT_TRUE(remote.is_coherent_against(origin));
  EXPECT_EQ(origin.region_count(), 1u);
}

TEST(VersionMap, MergeLatestFoldsFrontierOnly) {
  VersionMap origin;
  origin.note_applied(kBlob, 6);
  VersionMap remote;
  remote.note_applied(kBlob, 2);
  remote.merge_latest(origin);
  EXPECT_EQ(remote.latest_known(kBlob), 6u);
  // Merging teaches the frontier, never fabricates applies.
  EXPECT_FALSE(remote.has_applied(kBlob, 6));
  EXPECT_EQ(remote.applied_count(), 1u);
}

TEST(VersionMap, WireRoundTripPreservesEverything) {
  VersionMap m;
  for (blob::Version v : {1, 2, 5}) m.note_applied(kBlob, v);
  m.retire(kBlob, 2);
  m.note_published(kBlob, 9);
  m.note_applied(BlobId{11}, 3);

  const auto wire = m.encode_wire();
  ASSERT_EQ(wire.size(), 2u);
  // Regions come out in blob order, versions ascending — the wire form is
  // part of the deterministic replay contract.
  EXPECT_EQ(wire[0].blob, kBlob.value);
  EXPECT_EQ(wire[0].latest_known, 9u);
  EXPECT_EQ(wire[0].applied, (std::vector<blob::Version>{1, 5}));
  EXPECT_EQ(wire[0].retired, (std::vector<blob::Version>{2}));

  const VersionMap back = VersionMap::decode_wire(wire);
  EXPECT_EQ(back.digest(), m.digest());
  EXPECT_TRUE(back.has_applied(kBlob, 5));
  EXPECT_FALSE(back.has_applied(kBlob, 2));
  EXPECT_EQ(back.latest_known(kBlob), 9u);
}

TEST(VersionMap, DigestIsContentSensitive) {
  VersionMap a;
  VersionMap b;
  a.note_applied(kBlob, 1);
  b.note_applied(kBlob, 1);
  EXPECT_EQ(a.digest(), b.digest());
  b.note_published(kBlob, 2);
  EXPECT_NE(a.digest(), b.digest());
}

// ---------------------------------------------------------------- custody

CustodyBundle publish_bundle(std::uint64_t id, blob::Version v,
                             std::uint64_t bytes = 100) {
  CustodyBundle b;
  b.id = id;
  b.kind = BundleKind::publish;
  b.blob = kBlob;
  b.version = v;
  b.bytes = bytes;
  return b;
}

TEST(CustodyQueue, SpillKeepsEverythingBeyondTheBound) {
  CustodyQueue q(2);
  q.push(publish_bundle(1, 1));
  q.push(publish_bundle(2, 2));
  EXPECT_EQ(q.push(publish_bundle(3, 3)), EnqueueOutcome::spilled);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_FALSE(q.bundles()[1].spilled);
  EXPECT_TRUE(q.bundles()[2].spilled);
  EXPECT_EQ(q.stats().spilled, 1u);
  EXPECT_EQ(q.stats().peak_depth, 3u);
  EXPECT_TRUE(q.holds_publish(kBlob, 3));
}

TEST(CustodyQueue, ReleaseFrontIsFifoAndForgets) {
  CustodyQueue q(8);
  for (std::uint64_t i = 1; i <= 3; ++i) q.push(publish_bundle(i, i));
  const CustodyBundle b = q.release_front();
  EXPECT_EQ(b.version, 1u);
  EXPECT_FALSE(q.holds_publish(kBlob, 1));
  EXPECT_TRUE(q.holds_publish(kBlob, 2));
  EXPECT_EQ(q.stats().released, 1u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.queued_bytes(), 200u);
}

}  // namespace
}  // namespace bs::repl
