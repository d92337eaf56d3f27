// RPC retry/backoff hardening: exponential, jittered, deterministic-per-seed
// backoff; retries stop at the attempt cap; only transport-level failures
// retry; and the cluster's attempt/timeout counters stay consistent when one
// logical call expands into several attempts.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "rpc/rpc.hpp"
#include "test_util.hpp"

namespace bs::rpc {
namespace {

struct PingReq {
  static constexpr const char* kName = "test.ping";
  std::uint64_t wire_size() const { return 16; }
};
struct PingResp {
  std::uint64_t wire_size() const { return 16; }
};

RetryPolicy no_jitter(std::uint32_t attempts) {
  RetryPolicy p;
  p.max_attempts = attempts;
  p.base_backoff = simtime::millis(100);
  p.multiplier = 2.0;
  p.max_backoff = simtime::millis(400);
  p.jitter = 0.0;
  return p;
}

TEST(RetryPolicy_, BackoffIsExponentialAndCapped) {
  Rng rng(1);
  const RetryPolicy p = no_jitter(10);
  EXPECT_EQ(p.backoff(1, rng), simtime::millis(100));
  EXPECT_EQ(p.backoff(2, rng), simtime::millis(200));
  EXPECT_EQ(p.backoff(3, rng), simtime::millis(400));
  EXPECT_EQ(p.backoff(4, rng), simtime::millis(400));  // capped
  EXPECT_EQ(p.backoff(9, rng), simtime::millis(400));
}

TEST(RetryPolicy_, JitterIsBoundedAndDeterministicPerSeed) {
  RetryPolicy p = no_jitter(10);
  p.jitter = 0.5;
  // Same seed -> identical jittered schedule, bit for bit.
  Rng a(42), b(42);
  for (std::uint32_t k = 1; k <= 8; ++k) {
    const SimDuration da = p.backoff(k, a);
    const SimDuration db = p.backoff(k, b);
    EXPECT_EQ(da, db) << "retry " << k;
    // Bounded: within [d * (1 - jitter), d].
    const SimDuration full = no_jitter(10).backoff(k, a);
    EXPECT_GE(da, full / 2);
    EXPECT_LE(da, full);
  }
  // Different seeds diverge (with overwhelming probability over 8 draws).
  Rng c(43);
  bool differs = false;
  Rng a2(42);
  for (std::uint32_t k = 1; k <= 8; ++k) {
    if (p.backoff(k, a2) != p.backoff(k, c)) differs = true;
  }
  EXPECT_TRUE(differs);
}

class RetryRpcTest : public ::testing::Test {
 protected:
  RetryRpcTest() : cluster_(sim_, net::Topology::grid5000(), /*seed=*/7) {
    server_ = cluster_.add_node(0);
    client_ = cluster_.add_node(1);
    server_->serve<PingReq, PingResp>(
        [this](const PingReq&,
               const Envelope&) -> sim::Task<Result<PingResp>> {
          ++handled_;
          if (handled_ <= fail_first_) {
            co_return Error{fail_code_, "induced failure"};
          }
          co_return PingResp{};
        });
  }

  Result<PingResp> call(CallOptions opts) {
    return test::run_task(sim_, cluster_.call<PingReq, PingResp>(
                                    *client_, server_->id(), PingReq{}, opts));
  }

  sim::Simulation sim_;
  Cluster cluster_;
  Node* server_;
  Node* client_;
  int handled_{0};
  int fail_first_{0};
  Errc fail_code_{Errc::unavailable};
};

TEST_F(RetryRpcTest, RetriesStopAtAttemptCap) {
  fail_first_ = 1000;  // always fail
  CallOptions opts;
  opts.retry = no_jitter(4);
  auto r = call(opts);
  EXPECT_EQ(r.code(), Errc::unavailable);
  EXPECT_EQ(handled_, 4);
  EXPECT_EQ(cluster_.calls_started(), 4u);
  EXPECT_EQ(cluster_.calls_retried(), 3u);
}

TEST_F(RetryRpcTest, FirstSuccessStopsRetrying) {
  fail_first_ = 2;
  CallOptions opts;
  opts.retry = no_jitter(5);
  auto r = call(opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(handled_, 3);
  EXPECT_EQ(cluster_.calls_retried(), 2u);
}

TEST_F(RetryRpcTest, ApplicationErrorsAreNotRetried) {
  fail_first_ = 1000;
  fail_code_ = Errc::not_found;
  CallOptions opts;
  opts.retry = no_jitter(5);
  auto r = call(opts);
  EXPECT_EQ(r.code(), Errc::not_found);
  EXPECT_EQ(handled_, 1);
  EXPECT_EQ(cluster_.calls_retried(), 0u);
}

TEST_F(RetryRpcTest, DisabledPolicyMakesSingleAttempt) {
  fail_first_ = 1000;
  CallOptions opts;  // the default policy makes one attempt
  EXPECT_FALSE(opts.retry.enabled());
  auto r = call(opts);
  EXPECT_EQ(r.code(), Errc::unavailable);
  EXPECT_EQ(handled_, 1);
  EXPECT_EQ(cluster_.calls_retried(), 0u);
}

TEST_F(RetryRpcTest, TimeoutAccountingCountsEveryAttempt) {
  // Black-hole the network: every request message is dropped, so each
  // attempt ends in a timeout and the counters reflect attempts, not calls.
  cluster_.set_link_fault_fn([](net::SiteId, net::SiteId) {
    return Cluster::LinkFault{.drop = true};
  });
  CallOptions opts;
  opts.timeout = simtime::seconds(1);
  opts.retry = no_jitter(3);
  auto r = call(opts);
  EXPECT_EQ(r.code(), Errc::timeout);
  EXPECT_EQ(handled_, 0);
  EXPECT_EQ(cluster_.calls_started(), 3u);
  EXPECT_EQ(cluster_.calls_timed_out(), 3u);
  EXPECT_EQ(cluster_.calls_retried(), 2u);
  EXPECT_EQ(cluster_.messages_dropped(), 3u);
  // Zero jitter makes the whole schedule analytic:
  // 3 x 1 s timeouts + 100 ms + 200 ms of backoff.
  EXPECT_EQ(sim_.now(), simtime::seconds(3) + simtime::millis(300));
}

TEST(RetryDeterminism, JitteredScheduleIsIdenticalAcrossIdenticalRuns) {
  auto run_once = [](std::uint64_t fault_seed) {
    sim::Simulation sim;
    Cluster cluster(sim, net::Topology::grid5000(), fault_seed);
    Node* server = cluster.add_node(0);
    Node* client = cluster.add_node(1);
    server->serve<PingReq, PingResp>(
        [](const PingReq&, const Envelope&) -> sim::Task<Result<PingResp>> {
          co_return PingResp{};
        });
    cluster.set_link_fault_fn([](net::SiteId, net::SiteId) {
      return Cluster::LinkFault{.drop = true};
    });
    CallOptions opts;
    opts.timeout = simtime::millis(500);
    RetryPolicy p;
    p.max_attempts = 5;
    p.jitter = 0.5;
    opts.retry = p;
    (void)test::run_task(sim, cluster.call<PingReq, PingResp>(
                                  *client, server->id(), PingReq{}, opts));
    return sim.now();
  };
  const SimTime a = run_once(1234);
  const SimTime b = run_once(1234);
  const SimTime c = run_once(9999);
  EXPECT_EQ(a, b);   // same seed: bit-identical backoff schedule
  EXPECT_NE(a, c);   // different seed: different jitter draws
}

}  // namespace
}  // namespace bs::rpc
