// The gateway tests' stack: a deployment, an S3 gateway on its own node at
// site 0, and the user nodes that call it, added in that order so node ids
// stay fixed. A fixture that wires more services adds their nodes between
// the deployment and the gateway (test_s3_security's introspection node).
#pragma once

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "blob/deployment.hpp"
#include "cloud/gateway.hpp"
#include "test_util.hpp"

namespace bs::cloud {

inline constexpr std::uint64_t kChunk = 1 * units::MB;

/// Two sites, four data providers and two metadata providers.
inline blob::DeploymentConfig two_site_deployment() {
  return {.sites = 2, .data_providers = 4, .metadata_providers = 2};
}

class GatewayStack : public ::testing::Test {
 protected:
  GatewayStack(const blob::DeploymentConfig& cfg, const GatewayOptions& opts,
               std::initializer_list<net::SiteId> user_sites)
      : GatewayStack(cfg) {
    add_gateway(opts, user_sites);
  }
  /// The deployment alone: the fixture wires its services, then calls
  /// add_gateway.
  explicit GatewayStack(const blob::DeploymentConfig& cfg)
      : dep_(std::make_unique<blob::Deployment>(sim_, cfg)) {}

  /// Adds the gateway's node (site 0) and the gateway, then one user node
  /// per entry of `user_sites`.
  void add_gateway(const GatewayOptions& opts,
                   std::initializer_list<net::SiteId> user_sites) {
    gw_node_ = dep_->cluster().add_node(0);
    gateway_ = std::make_unique<S3Gateway>(*gw_node_, dep_->endpoints(),
                                           opts);
    for (net::SiteId s : user_sites) {
      users_.push_back(dep_->cluster().add_node(s));
    }
  }

  /// One request from `from` to the gateway as `user`, run to completion.
  template <class Req, class Resp>
  Result<Resp> as(rpc::Node& from, ClientId user, Req req,
                  rpc::CallOptions opts = {}) {
    opts.client = user;
    return test::run_task(
        sim_, dep_->cluster().call<Req, Resp>(from, gw_node_->id(),
                                              std::move(req), opts));
  }
  /// The same from the first user node.
  template <class Req, class Resp>
  Result<Resp> as(ClientId user, Req req) {
    return as<Req, Resp>(*users_.front(), user, std::move(req));
  }

  sim::Simulation sim_;
  std::unique_ptr<blob::Deployment> dep_;
  rpc::Node* gw_node_{nullptr};
  std::unique_ptr<S3Gateway> gateway_;
  std::vector<rpc::Node*> users_;
  const ClientId alice_{101};
  const ClientId bob_{102};
};

}  // namespace bs::cloud
