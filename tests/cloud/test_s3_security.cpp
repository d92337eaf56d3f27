// Gateway + self-protection integration: traffic through the S3 gateway is
// attributed to the END USER (not the gateway), so a user abusing the
// gateway gets detected and blocked by the security framework while other
// tenants keep working.
#include "cloud/gateway_stack.hpp"
#include "mon/layer.hpp"
#include "sec/framework.hpp"

namespace bs::cloud {
namespace {

class S3SecurityTest : public GatewayStack {
 protected:
  S3SecurityTest()
      : GatewayStack(
            {.sites = 2, .data_providers = 6, .metadata_providers = 2}) {
    intro_node_ = dep_->cluster().add_node(0);
    intro_ = std::make_unique<intro::IntrospectionService>(*intro_node_);
    intro_->start();
    mon::MonitoringConfig mcfg;
    mcfg.sinks = {intro_node_->id()};
    monitoring_ = std::make_unique<mon::MonitoringLayer>(*dep_, mcfg);
    monitoring_->start();

    sec::SecurityConfig scfg;
    scfg.detection.scan_interval = simtime::seconds(2);
    scfg.policy_source =
        "policy gw_flood { severity high; when rate(write_ops, 10s) > 8; "
        "then block(120s), trust(-0.4); }";
    security_ = std::make_unique<sec::SecurityFramework>(
        sim_, intro_->activity(), scfg);
    security_->attach_deployment(*dep_);
    security_->start();

    add_gateway({.object_chunk_size = kChunk}, {1});
  }

  template <class Req, class Resp>
  Result<Resp> as(ClientId user, Req req) {
    return GatewayStack::as<Req, Resp>(*users_[0], user, std::move(req),
                                       {.timeout = simtime::minutes(2)});
  }

  rpc::Node* intro_node_;
  std::unique_ptr<intro::IntrospectionService> intro_;
  std::unique_ptr<mon::MonitoringLayer> monitoring_;
  std::unique_ptr<sec::SecurityFramework> security_;
};

TEST_F(S3SecurityTest, AbusiveGatewayUserIsBlockedOthersUnaffected) {
  const ClientId abuser{301}, tenant{302};
  for (ClientId user : {abuser, tenant}) {
    S3CreateBucketReq mk;
    mk.bucket = "b" + std::to_string(user.value);
    ASSERT_TRUE((as<S3CreateBucketReq, S3CreateBucketResp>(user, mk)).ok());
  }

  // The abuser hammers object puts through the gateway (each put is
  // several chunk writes attributed to the abuser's identity).
  bool abuser_started_failing = false;
  sim_.spawn([](sim::Simulation& s, rpc::Cluster& c, rpc::Node& n,
                NodeId gw, ClientId user, bool& failing) -> sim::Task<void> {
    rpc::CallOptions opts;
    opts.client = user;
    for (int i = 0; i < 300 && !failing; ++i) {
      S3PutObjectReq put;
      put.bucket = "b301";
      put.key = "obj" + std::to_string(i);
      put.payload = blob::Payload::synthetic(4 * units::MB, i);
      auto r = co_await c.call<S3PutObjectReq, S3PutObjectResp>(
          n, gw, std::move(put), opts);
      if (!r.ok()) failing = true;
      co_await s.delay(simtime::millis(100));
    }
  }(sim_, dep_->cluster(), *users_[0], gw_node_->id(), abuser,
    abuser_started_failing));

  sim_.run_until(simtime::seconds(60));

  // The abuser's BlobSeer traffic got them blocked...
  EXPECT_TRUE(
      security_->enforcement().is_blocked(abuser, sim_.now()));
  EXPECT_TRUE(abuser_started_failing);
  EXPECT_LT(security_->trust().trust(abuser), 0.5);
  // ...and NOT the gateway machine or the other tenant.
  EXPECT_FALSE(
      security_->enforcement().is_blocked(tenant, sim_.now()));

  // The honest tenant still works through the same gateway.
  S3PutObjectReq put;
  put.bucket = "b302";
  put.key = "mine";
  put.payload = blob::Payload::synthetic(2 * units::MB, 1);
  auto ok = as<S3PutObjectReq, S3PutObjectResp>(tenant, put);
  EXPECT_TRUE(ok.ok()) << ok.error().to_string();

  // And the abuser's gateway requests now die at BlobSeer admission. The
  // content must be fresh: a dedup-resident chunk would be served from the
  // gateway's index without ever reaching a provider.
  S3PutObjectReq denied;
  denied.bucket = "b301";
  denied.key = "nope";
  denied.payload = blob::Payload::synthetic(units::MB, 999);
  auto blocked = as<S3PutObjectReq, S3PutObjectResp>(abuser, denied);
  EXPECT_FALSE(blocked.ok());
}

}  // namespace
}  // namespace bs::cloud
