#include "rpc/rpc.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "test_util.hpp"

namespace bs::rpc {
namespace {

struct EchoReq {
  static constexpr const char* kName = "test.echo";
  int value{0};
  std::uint64_t wire_size() const { return 32; }
};
struct EchoResp {
  int value{0};
  std::uint64_t wire_size() const { return 32; }
};

struct BigPutReq {
  static constexpr const char* kName = "test.big_put";
  static constexpr bool kPayloadToDisk = true;
  std::uint64_t bytes{0};
  std::uint64_t wire_size() const { return 64 + bytes; }
};
struct BigPutResp {
  std::uint64_t wire_size() const { return 16; }
};

struct SlowReq {
  static constexpr const char* kName = "test.slow";
  std::uint64_t wire_size() const { return 16; }
};
struct SlowResp {
  std::uint64_t wire_size() const { return 16; }
};

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : cluster_(sim_, net::Topology::grid5000()) {
    server_ = cluster_.add_node(0);
    client_ = cluster_.add_node(1);
    server_->serve<EchoReq, EchoResp>(
        [](const EchoReq& req,
           const Envelope&) -> sim::Task<Result<EchoResp>> {
          co_return EchoResp{req.value * 2};
        });
    server_->serve<BigPutReq, BigPutResp>(
        [](const BigPutReq&,
           const Envelope&) -> sim::Task<Result<BigPutResp>> {
          co_return BigPutResp{};
        });
    server_->serve<SlowReq, SlowResp>(
        [this](const SlowReq&,
               const Envelope&) -> sim::Task<Result<SlowResp>> {
          co_await sim_.delay(simtime::seconds(60));
          co_return SlowResp{};
        });
  }

  sim::Simulation sim_;
  Cluster cluster_;
  Node* server_;
  Node* client_;
};

TEST_F(RpcTest, EchoRoundTrip) {
  auto r = test::run_task(
      sim_, cluster_.call<EchoReq, EchoResp>(*client_, server_->id(),
                                             EchoReq{21}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().value, 42);
  // Crossed two WAN hops + service overhead: at least 8 ms, under 100 ms.
  EXPECT_GT(sim_.now(), simtime::millis(8));
  EXPECT_LT(sim_.now(), simtime::millis(100));
}

struct NoHandlerReq {
  static constexpr const char* kName = "test.nohandler";
  std::uint64_t wire_size() const { return 16; }
};

TEST_F(RpcTest, UnknownServiceFails) {
  EXPECT_TRUE(server_->serves<EchoReq>());
  EXPECT_FALSE(server_->serves<NoHandlerReq>());
  EXPECT_FALSE(client_->serves<EchoReq>());
  auto r = test::run_task(
      sim_, cluster_.call<NoHandlerReq, EchoResp>(*client_, server_->id(),
                                                  NoHandlerReq{}));
  EXPECT_EQ(r.code(), Errc::unavailable);
}

TEST_F(RpcTest, DownNodeUnavailable) {
  server_->set_up(false);
  auto r = test::run_task(
      sim_, cluster_.call<EchoReq, EchoResp>(*client_, server_->id(),
                                             EchoReq{1}));
  EXPECT_EQ(r.code(), Errc::unavailable);
}

TEST_F(RpcTest, UnknownDestinationUnavailable) {
  auto r = test::run_task(
      sim_, cluster_.call<EchoReq, EchoResp>(*client_, NodeId{999},
                                             EchoReq{1}));
  EXPECT_EQ(r.code(), Errc::unavailable);
}

TEST_F(RpcTest, LargePayloadPaysBandwidth) {
  // 125 MB over a 1 Gb/s NIC ~ 1 s (+ disk is faster, + latency).
  auto r = test::run_task(
      sim_, cluster_.call<BigPutReq, BigPutResp>(*client_, server_->id(),
                                                 BigPutReq{125'000'000}));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(sim_.now(), simtime::seconds(0.9));
  EXPECT_LT(sim_.now(), simtime::seconds(1.5));
}

TEST_F(RpcTest, TimeoutFires) {
  CallOptions opts;
  opts.timeout = simtime::seconds(5);
  auto r = test::run_task(
      sim_, cluster_.call<SlowReq, SlowResp>(*client_, server_->id(),
                                             SlowReq{}, opts));
  EXPECT_EQ(r.code(), Errc::timeout);
  EXPECT_EQ(cluster_.calls_timed_out(), 1u);
  // The caller observed the timeout at exactly 5 s.
  EXPECT_EQ(sim_.now(), simtime::seconds(5));
}

TEST_F(RpcTest, SettledCallsLeaveNoTimeoutWatcherQueued) {
  // Each call arms a 30 s timeout watcher (the default) and disarms it
  // when the call settles, so nothing stays queued behind a finished call
  // and the clock is not dragged to the dead watchers' deadlines.
  for (int i = 0; i < 3; ++i) {
    auto r = test::run_task(
        sim_, cluster_.call<EchoReq, EchoResp>(*client_, server_->id(),
                                               EchoReq{i}));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(sim_.pending(), 0u) << "call " << i;
  }
  const SimTime settled = sim_.now();
  sim_.run();
  EXPECT_EQ(sim_.now(), settled);
  EXPECT_EQ(cluster_.calls_started(), 3u);
  EXPECT_EQ(cluster_.calls_timed_out(), 0u);
}

TEST_F(RpcTest, AdmissionHookRejectsCheaply) {
  server_->set_admission(
      [](const Envelope& env, const char*) -> Result<void> {
        if (env.client == ClientId{666}) {
          return Error{Errc::blocked, "banned"};
        }
        return ok_result();
      });
  CallOptions banned;
  banned.client = ClientId{666};
  auto r1 = test::run_task(
      sim_, cluster_.call<EchoReq, EchoResp>(*client_, server_->id(),
                                             EchoReq{1}, banned));
  EXPECT_EQ(r1.code(), Errc::blocked);
  // The hook's message reaches the caller intact, and the refused request
  // never reached the service.
  EXPECT_EQ(r1.error().message, "banned");
  EXPECT_EQ(server_->requests_served(), 0u);

  CallOptions fine;
  fine.client = ClientId{7};
  auto r2 = test::run_task(
      sim_, cluster_.call<EchoReq, EchoResp>(*client_, server_->id(),
                                             EchoReq{1}, fine));
  EXPECT_TRUE(r2.ok());
  EXPECT_EQ(server_->requests_served(), 1u);
}

TEST_F(RpcTest, RequestObserverSeesTraffic) {
  std::vector<RequestInfo> seen;
  server_->set_request_observer(
      [&seen](const RequestInfo& info) { seen.push_back(info); });
  CallOptions opts;
  opts.client = ClientId{5};
  (void)test::run_task(
      sim_, cluster_.call<EchoReq, EchoResp>(*client_, server_->id(),
                                             EchoReq{1}, opts));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_STREQ(seen[0].name, "test.echo");
  EXPECT_EQ(seen[0].client, ClientId{5});
  EXPECT_EQ(seen[0].outcome, Errc::ok);
  EXPECT_EQ(seen[0].request_bytes, 32u);
}

TEST_F(RpcTest, ServiceQueueSerializesBeyondConcurrency) {
  // The default spec allows 4 concurrent requests with 300 us overhead;
  // 8 echo calls therefore need two service "waves".
  sim::WaitGroup wg(sim_);
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    wg.launch([](Cluster& c, Node& from, NodeId to,
                 int& d) -> sim::Task<void> {
      (void)co_await c.call<EchoReq, EchoResp>(from, to, EchoReq{1});
      ++d;
    }(cluster_, *client_, server_->id(), done));
  }
  sim_.run();
  EXPECT_EQ(done, 8);
  EXPECT_GT(server_->requests_served(), 0u);
}

template <int N>
struct FillerReq {
  static constexpr const char* kName = "test.filler";
  std::uint64_t wire_size() const { return 16; }
};

template <int... N>
void serve_fillers(Node& node, std::integer_sequence<int, N...>) {
  (node.serve<FillerReq<N>, EchoResp>(
       [](const FillerReq<N>&,
          const Envelope&) -> sim::Task<Result<EchoResp>> {
         co_return EchoResp{N};
       }),
   ...);
}

TEST_F(RpcTest, HandlerSurvivesRegistrationsWhileSuspended) {
  // A handler coroutine reads its lambda's captures after it resumes. New
  // message types registered meanwhile grow the node's handler table, and
  // must not move the stored handler out from under it (ASan reports the
  // use after free if they do).
  int calls = 0;
  server_->serve<SlowReq, SlowResp>(
      [this, &calls](const SlowReq&,
                     const Envelope&) -> sim::Task<Result<SlowResp>> {
        co_await sim_.delay(simtime::seconds(1));
        ++calls;
        co_return SlowResp{};
      });
  sim_.schedule_in(simtime::millis(500), [this] {
    serve_fillers(*server_, std::make_integer_sequence<int, 64>{});
  });
  auto r = test::run_task(
      sim_, cluster_.call<SlowReq, SlowResp>(*client_, server_->id(),
                                             SlowReq{}));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(server_->serves<FillerReq<63>>());
  auto filler = test::run_task(
      sim_, cluster_.call<FillerReq<63>, EchoResp>(*client_, server_->id(),
                                                   FillerReq<63>{}));
  ASSERT_TRUE(filler.ok());
  EXPECT_EQ(filler.value().value, 63);
}

TEST(RpcClusterTest, RetireNodeMakesItUnavailable) {
  sim::Simulation sim;
  Cluster cluster(sim, net::Topology::single_site());
  Node* a = cluster.add_node(0);
  Node* b = cluster.add_node(0);
  b->serve<EchoReq, EchoResp>(
      [](const EchoReq& req, const Envelope&) -> sim::Task<Result<EchoResp>> {
        co_return EchoResp{req.value};
      });
  cluster.retire_node(b->id());
  auto r = test::run_task(
      sim, cluster.call<EchoReq, EchoResp>(*a, b->id(), EchoReq{1}));
  EXPECT_EQ(r.code(), Errc::unavailable);
}

}  // namespace
}  // namespace bs::rpc
