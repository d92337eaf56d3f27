// Deterministic cost guard for the RPC round trip. With the frame pool
// warm, a served small-message call makes no global allocation: frames,
// request, response and call state all come from the pool, and the
// caller's one wait sits in its event's inline slot. A call the admission
// hook refuses makes exactly one, the hook's own error text, which then
// moves to the caller uncopied; the sec engine's own hook gives its
// refusals no text, so they make none. Calls that outlive their caller (a timeout
// while the handler still runs, a destination crash mid-service) give every
// pooled body back once the call body ends.
//
// alloc_probe.hpp replaces the global operator new, so this must stay the
// only translation unit of its binary that includes it.
#include <gtest/gtest.h>

#include <string>

#include "alloc_probe.hpp"
#include "rpc/rpc.hpp"
#include "sec/enforcement.hpp"
#include "sim/frame_pool.hpp"
#include "test_util.hpp"

namespace bs::rpc {
namespace {

struct PingReq {
  static constexpr const char* kName = "cost.ping";
  int value{0};
  std::uint64_t wire_size() const { return 32; }
};
struct PingResp {
  int value{0};
  std::uint64_t wire_size() const { return 32; }
};

struct SlowReq {
  static constexpr const char* kName = "cost.slow";
  std::uint64_t wire_size() const { return 16; }
};
struct SlowResp {
  std::uint64_t wire_size() const { return 16; }
};

constexpr ClientId kBanned{666};
// Longer than the 15-character small-string buffer, so building the
// refusal's Error allocates once and any copy of it would allocate again.
constexpr const char* kBlockedText = "client is blocked by the security policy";
constexpr SimDuration kHandlerTime = simtime::seconds(10);

class RpcCost : public ::testing::Test {
 protected:
  RpcCost() : cluster_(sim_, net::Topology::single_site()) {
    server_ = cluster_.add_node(0);
    client_ = cluster_.add_node(0);
    server_->serve<PingReq, PingResp>(
        [](const PingReq& req,
           const Envelope&) -> sim::Task<Result<PingResp>> {
          co_return PingResp{req.value + 1};
        });
    server_->serve<SlowReq, SlowResp>(
        [this](const SlowReq&,
               const Envelope&) -> sim::Task<Result<SlowResp>> {
          co_await sim_.delay(kHandlerTime);
          co_return SlowResp{};
        });
    server_->set_admission(
        [](const Envelope& env, const char*) -> Result<void> {
          if (env.client == kBanned) return Error{Errc::blocked, kBlockedText};
          return ok_result();
        });
  }

  void SetUp() override {
    pool_was_enabled_ = pool().enabled();
    pool().set_enabled(true);
    // Warm the pool: every frame and body size the calls below touch.
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(ping(i).ok());
      ASSERT_EQ(ping(i, kBanned).code(), Errc::blocked);
    }
  }
  void TearDown() override { pool().set_enabled(pool_was_enabled_); }

  static sim::FramePool& pool() { return sim::FramePool::instance(); }

  Result<PingResp> ping(int value, ClientId client = ClientId{1}) {
    CallOptions opts;
    opts.client = client;
    return test::run_task(
        sim_, cluster_.call<PingReq, PingResp>(*client_, server_->id(),
                                               PingReq{value}, opts));
  }

  Result<SlowResp> slow(CallOptions opts) {
    return test::run_task(
        sim_, cluster_.call<SlowReq, SlowResp>(*client_, server_->id(),
                                               SlowReq{}, opts));
  }

  sim::Simulation sim_;
  Cluster cluster_;
  Node* server_;
  Node* client_;
  bool pool_was_enabled_{true};
};

TEST_F(RpcCost, ServedCallMakesNoAllocation) {
  constexpr int kCalls = 100;
  int failures = 0;
  int wrong = 0;
  const std::uint64_t before = bench::alloc_probe::allocations();
  for (int i = 0; i < kCalls; ++i) {
    auto r = ping(i);
    if (!r.ok()) {
      ++failures;
    } else if (r.value().value != i + 1) {
      ++wrong;
    }
  }
  const std::uint64_t allocs = bench::alloc_probe::allocations() - before;
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(allocs, 0u) << static_cast<double>(allocs) / kCalls
                        << " allocations per served call";
}

TEST_F(RpcCost, RefusedCallAllocatesOnlyItsErrorText) {
  constexpr int kCalls = 100;
  int intact = 0;
  const std::uint64_t served_before = server_->requests_served();
  const std::uint64_t before = bench::alloc_probe::allocations();
  for (int i = 0; i < kCalls; ++i) {
    auto r = ping(i, kBanned);
    if (r.code() == Errc::blocked && r.error().message == kBlockedText) {
      ++intact;
    }
  }
  const std::uint64_t allocs = bench::alloc_probe::allocations() - before;
  EXPECT_EQ(intact, kCalls);
  EXPECT_EQ(server_->requests_served(), served_before);
  EXPECT_EQ(allocs, static_cast<std::uint64_t>(kCalls))
      << static_cast<double>(allocs) / kCalls
      << " allocations per refused call";
}

TEST_F(RpcCost, SecRefusalMakesNoAllocation) {
  // The hook the flood experiments install: one client blocked, another
  // throttled to a single token (spent by its first warm-up call).
  constexpr ClientId kThrottled{667};
  sec::TrustManager trust;
  sec::PolicyEnforcement enforcement(sim_, trust);
  auto policies = sec::parse_policies(R"(
    policy b { when trust() < 2; then block(1h); }
    policy t { when trust() < 2; then throttle(1); }
  )");
  ASSERT_TRUE(policies.ok());
  enforcement.handle({kBanned, &policies.value()[0], sim_.now()});
  enforcement.handle({kThrottled, &policies.value()[1], sim_.now()});
  enforcement.attach(*server_);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(ping(i, kBanned).code(), Errc::blocked);
    (void)ping(i, kThrottled);
  }

  constexpr int kCalls = 100;
  int blocked = 0;
  int throttled = 0;
  const std::uint64_t served_before = server_->requests_served();
  const std::uint64_t before = bench::alloc_probe::allocations();
  for (int i = 0; i < kCalls; ++i) {
    if (ping(i, kBanned).code() == Errc::blocked) ++blocked;
    if (ping(i, kThrottled).code() == Errc::throttled) ++throttled;
  }
  const std::uint64_t allocs = bench::alloc_probe::allocations() - before;
  EXPECT_EQ(blocked, kCalls);
  EXPECT_EQ(throttled, kCalls);
  EXPECT_EQ(server_->requests_served(), served_before);
  EXPECT_EQ(allocs, 0u) << static_cast<double>(allocs) / (2 * kCalls)
                        << " allocations per refused call";
}

TEST_F(RpcCost, TimedOutCallReturnsItsBodiesWhenTheHandlerEnds) {
  const std::uint64_t live = pool().stats().live();
  const std::uint64_t served = server_->requests_served();
  CallOptions opts;
  opts.timeout = simtime::seconds(1);
  auto r = slow(opts);
  EXPECT_EQ(r.code(), Errc::timeout);
  // The body still serves: its frames, request and call state are out.
  EXPECT_GT(pool().stats().live(), live);
  sim_.run();
  EXPECT_EQ(server_->requests_served(), served + 1);  // the handler ended
  EXPECT_EQ(pool().stats().live(), live);
}

TEST_F(RpcCost, CallIntoACrashedDestinationReturnsItsBodies) {
  const std::uint64_t live = pool().stats().live();
  sim_.schedule_in(kHandlerTime / 2, [this] { server_->crash(); });
  auto r = slow(CallOptions{});
  EXPECT_EQ(r.code(), Errc::unavailable);
  EXPECT_EQ(r.error().message, "destination crashed");
  sim_.run();
  EXPECT_EQ(pool().stats().live(), live);
}

}  // namespace
}  // namespace bs::rpc
