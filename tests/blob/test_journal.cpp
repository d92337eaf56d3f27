// Unit tests for the write-ahead journal model (blob/journal.hpp): durable
// prefix semantics (append/seal group commit), crash flavours (volatile tail
// drop, torn last record, store wipe), checkpoint policy and the
// checkpoint-then-tail replay order.
#include <gtest/gtest.h>

#include <vector>

#include "blob/journal.hpp"

namespace bs::blob {
namespace {

struct Rec {
  int v{0};
};

JournalOptions enabled_opts(std::uint64_t cp_bytes = 1ull << 40,
                            std::uint64_t cp_records = 1ull << 40) {
  JournalOptions o;
  o.enabled = true;
  o.checkpoint_bytes = cp_bytes;
  o.checkpoint_records = cp_records;
  return o;
}

std::vector<int> replayed(const Journal<Rec>& j) {
  std::vector<int> out;
  j.replay([&](const Rec& r) { out.push_back(r.v); });
  return out;
}

TEST(Journal, SealMakesPrefixDurableAndCrashDropsTheRest) {
  Journal<Rec> j(enabled_opts());
  const auto s1 = j.append({1}, 10);
  const auto s2 = j.append({2}, 10);
  j.append({3}, 10);  // never sealed
  EXPECT_LT(s1, s2);
  j.seal(s2);
  EXPECT_EQ(j.durable_records(), 2u);

  j.crash(/*lose_storage=*/false, /*torn_tail=*/false);
  EXPECT_EQ(j.tail_records(), 2u);
  EXPECT_EQ(replayed(j), (std::vector<int>{1, 2}));
  EXPECT_EQ(j.torn_bytes(), 0u);
  EXPECT_FALSE(j.wiped());
}

TEST(Journal, GroupCommitOneSealCoversEveryEarlierAppend) {
  Journal<Rec> j(enabled_opts());
  j.append({1}, 8);
  j.append({2}, 8);
  const auto s3 = j.append({3}, 8);
  j.seal(s3);  // one fsync barrier, three records durable
  EXPECT_EQ(j.durable_records(), 3u);
  j.crash(false, false);
  EXPECT_EQ(replayed(j), (std::vector<int>{1, 2, 3}));
}

TEST(Journal, TornTailHalfOfFirstVolatileRecordLingers) {
  Journal<Rec> j(enabled_opts());
  const auto s1 = j.append({1}, 100);
  j.seal(s1);
  j.append({2}, 101);  // volatile; will be the torn record

  j.crash(/*lose_storage=*/false, /*torn_tail=*/true);
  EXPECT_EQ(j.tail_records(), 1u);
  EXPECT_EQ(j.torn_bytes(), 51u);  // (101 + 1) / 2, scanned then truncated

  const ReplayPlan plan = j.replay_plan();
  EXPECT_EQ(plan.tail_bytes, 100u);
  EXPECT_EQ(plan.torn_bytes, 51u);
  EXPECT_EQ(plan.total_bytes(), 151u);
  EXPECT_EQ(plan.total_records(), 1u);  // the torn record is NOT applied

  const auto outcome = j.finish_recovery();
  EXPECT_EQ(outcome.torn_bytes, 51u);
  EXPECT_EQ(j.torn_bytes(), 0u);  // truncated
}

TEST(Journal, TornCrashWithFullyDurableTailTearsNothing) {
  Journal<Rec> j(enabled_opts());
  const auto s = j.append({1}, 64);
  j.seal(s);
  j.crash(false, /*torn_tail=*/true);
  EXPECT_EQ(j.torn_bytes(), 0u);
  EXPECT_EQ(j.tail_records(), 1u);
}

TEST(Journal, StoreLossWipesCheckpointAndJournal) {
  Journal<Rec> j(enabled_opts());
  const auto s = j.append({1}, 64);
  j.seal(s);
  ASSERT_TRUE(j.install_checkpoint({{Rec{1}, 16}}));
  const auto s2 = j.append({2}, 64);
  j.seal(s2);

  j.crash(/*lose_storage=*/true, /*torn_tail=*/false);
  EXPECT_TRUE(j.wiped());
  EXPECT_EQ(j.replay_plan().total_bytes(), 0u);
  EXPECT_EQ(j.replay_plan().total_records(), 0u);
  EXPECT_TRUE(replayed(j).empty());
  const auto outcome = j.finish_recovery();
  EXPECT_TRUE(outcome.wiped);
  EXPECT_FALSE(j.wiped());
}

TEST(Journal, CheckpointTruncatesJournalAndReplaysFirst) {
  Journal<Rec> j(enabled_opts());
  const auto s = j.append({1}, 32);
  j.seal(s);
  ASSERT_TRUE(j.install_checkpoint({{Rec{10}, 16}, {Rec{11}, 16}}));
  EXPECT_EQ(j.tail_records(), 0u);
  EXPECT_EQ(j.checkpoint_records(), 2u);
  EXPECT_EQ(j.checkpoint_bytes(), 32u);

  const auto s2 = j.append({2}, 32);
  j.seal(s2);
  // Checkpoint image first, then the surviving tail, in append order.
  EXPECT_EQ(replayed(j), (std::vector<int>{10, 11, 2}));

  const ReplayPlan plan = j.replay_plan();
  EXPECT_EQ(plan.checkpoint_bytes, 32u);
  EXPECT_EQ(plan.checkpoint_records, 2u);
  EXPECT_EQ(plan.tail_bytes, 32u);
  EXPECT_EQ(plan.tail_records, 1u);
}

TEST(Journal, CheckpointRefusedWhileTailIsVolatile) {
  Journal<Rec> j(enabled_opts());
  j.append({1}, 32);  // never sealed
  EXPECT_FALSE(j.install_checkpoint({}));
  EXPECT_EQ(j.tail_records(), 1u);
}

TEST(Journal, StaleSealAfterCheckpointIsANoOp) {
  Journal<Rec> j(enabled_opts());
  const auto s1 = j.append({1}, 32);
  j.seal(s1);
  ASSERT_TRUE(j.install_checkpoint({}));
  j.append({2}, 32);
  j.seal(s1);  // sequence predates the checkpoint truncation
  EXPECT_EQ(j.durable_records(), 0u);
}

TEST(Journal, CheckpointDueHonoursBothThresholds) {
  Journal<Rec> j(enabled_opts(/*cp_bytes=*/100, /*cp_records=*/3));
  EXPECT_FALSE(j.checkpoint_due());  // empty
  auto s = j.append({1}, 40);
  j.seal(s);
  EXPECT_FALSE(j.checkpoint_due());
  s = j.append({2}, 70);
  EXPECT_FALSE(j.checkpoint_due());  // volatile tail blocks checkpoints
  j.seal(s);
  EXPECT_TRUE(j.checkpoint_due());  // 110 bytes >= 100

  Journal<Rec> k(enabled_opts(/*cp_bytes=*/1ull << 40, /*cp_records=*/2));
  s = k.append({1}, 1);
  k.seal(s);
  EXPECT_FALSE(k.checkpoint_due());
  s = k.append({2}, 1);
  k.seal(s);
  EXPECT_TRUE(k.checkpoint_due());  // 2 records >= 2

  Journal<Rec> off{JournalOptions{}};
  s = off.append({1}, 1ull << 50);
  off.seal(s);
  EXPECT_FALSE(off.checkpoint_due());  // disabled journal never checkpoints
}

TEST(Journal, TailByteTotalFollowsCrashAndCheckpoint) {
  Journal<Rec> j(enabled_opts(/*cp_bytes=*/100));
  auto s = j.append({1}, 40);
  j.seal(s);
  j.append({2}, 70);  // volatile: dropped by the crash below
  j.crash(/*lose_storage=*/false, /*torn_tail=*/false);
  EXPECT_EQ(j.replay_plan().tail_bytes, 40u);
  s = j.append({3}, 50);
  j.seal(s);
  EXPECT_FALSE(j.checkpoint_due());  // 90 bytes; the dropped 70 count no more
  s = j.append({4}, 10);
  j.seal(s);
  EXPECT_TRUE(j.checkpoint_due());  // 100 bytes >= 100

  ASSERT_TRUE(j.install_checkpoint({{Rec{9}, 16}}));
  EXPECT_EQ(j.replay_plan().tail_bytes, 0u);
  s = j.append({5}, 60);
  j.seal(s);
  EXPECT_FALSE(j.checkpoint_due());  // the checkpoint reset the total
  EXPECT_EQ(j.replay_plan().tail_bytes, 60u);
  s = j.append({6}, 40);
  j.seal(s);
  EXPECT_TRUE(j.checkpoint_due());

  j.append({7}, 30);  // volatile, then torn by the crash
  j.crash(false, /*torn_tail=*/true);
  EXPECT_EQ(j.replay_plan().tail_bytes, 100u);
  EXPECT_EQ(j.replay_plan().torn_bytes, 15u);

  j.crash(/*lose_storage=*/true, false);
  EXPECT_EQ(j.replay_plan().tail_bytes, 0u);
  s = j.append({8}, 99);
  j.seal(s);
  EXPECT_FALSE(j.checkpoint_due());  // the wipe reset the total
}

TEST(Journal, CheckpointFoldsTheTailIntoThePreviousImage) {
  Journal<Rec> j(enabled_opts());
  ASSERT_TRUE(j.install_checkpoint({{Rec{1}, 16}, {Rec{2}, 16}}));
  auto s = j.append({3}, 8);
  j.seal(s);
  s = j.append({4}, 8);
  j.seal(s);

  const void* buffer = nullptr;
  ASSERT_TRUE(j.checkpoint([&](std::vector<Journal<Rec>::Entry> previous,
                               const std::vector<Journal<Rec>::Entry>& tail) {
    EXPECT_EQ(previous.size(), 2u);
    EXPECT_EQ(tail.size(), 2u);
    previous.insert(previous.end(), tail.begin(), tail.end());
    buffer = previous.data();
    return previous;
  }));
  // The encoder's result is the image, in its buffer; the tail is gone.
  EXPECT_EQ(replayed(j), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(j.checkpoint_bytes(), 48u);
  EXPECT_EQ(j.tail_records(), 0u);
  EXPECT_EQ(j.replay_plan().tail_bytes, 0u);

  s = j.append({5}, 8);  // volatile: no checkpoint, the encoder never runs
  bool ran = false;
  const auto keep = [&](std::vector<Journal<Rec>::Entry> previous,
                        const std::vector<Journal<Rec>::Entry>&) {
    ran = true;
    // The image reaches the next encoder in the buffer it was returned in.
    EXPECT_EQ(static_cast<const void*>(previous.data()), buffer);
    return previous;
  };
  EXPECT_FALSE(j.checkpoint(keep));
  EXPECT_FALSE(ran);
  EXPECT_EQ(j.checkpoint_records(), 4u);
  j.seal(s);
  EXPECT_TRUE(j.checkpoint(keep));
  EXPECT_TRUE(ran);
}

TEST(Journal, DisabledJournalStillTracksButReportsDisabled) {
  Journal<Rec> j{JournalOptions{}};
  EXPECT_FALSE(j.enabled());
  const auto s = j.append({1}, 8);
  j.seal(s);
  EXPECT_EQ(j.durable_records(), 1u);
}

}  // namespace
}  // namespace bs::blob
