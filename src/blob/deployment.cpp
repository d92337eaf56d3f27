#include "blob/deployment.hpp"

#include <algorithm>

#include "common/env.hpp"

namespace bs::blob {

Deployment::Deployment(sim::Simulation& sim, DeploymentConfig config)
    : sim_(sim), config_(config) {
  config_.journal.enabled = env_switch("BS_JOURNAL", config_.journal.enabled);
  config_.vm_options.journal = config_.journal;
  cluster_ = std::make_unique<rpc::Cluster>(
      sim,
      config_.sites <= 1 ? net::Topology::single_site()
                         : net::Topology::grid5000(config_.sites),
      config_.fault_seed);

  // Manager actors are lightweight control-plane services. The version
  // manager's commit handler legitimately *waits* (ordered publication)
  // while holding a service slot, so its concurrency must exceed the
  // number of concurrent writers or commits deadlock behind each other.
  rpc::NodeSpec manager_spec = config_.node_spec;
  manager_spec.service_concurrency =
      std::max<std::size_t>(manager_spec.service_concurrency, 1024);
  vm_node_ = cluster_->add_node(next_site(), manager_spec);
  vm_ = std::make_unique<VersionManager>(*vm_node_, config_.vm_options);
  if (config_.start_lease_sweeper) vm_->start_lease_sweeper();
  pm_node_ = cluster_->add_node(next_site(), manager_spec);
  pm_ = std::make_unique<ProviderManager>(*pm_node_, config_.pm_options);
  if (config_.start_reaper) pm_->start_reaper();

  for (std::size_t i = 0; i < config_.metadata_providers; ++i) {
    rpc::Node* n = cluster_->add_node(next_site(), config_.node_spec);
    MetadataProvider::Options mopts;
    mopts.journal = config_.journal;
    meta_providers_.push_back(std::make_unique<MetadataProvider>(*n, mopts));
  }
  for (std::size_t i = 0; i < config_.data_providers; ++i) {
    add_provider();
  }
}

DataProvider* Deployment::provider_by_node(NodeId id) {
  for (auto& p : providers_) {
    if (p->id() == id) return p.get();
  }
  return nullptr;
}

BlobClient::Endpoints Deployment::endpoints() const {
  BlobClient::Endpoints e;
  e.version_manager = vm_node_->id();
  e.provider_manager = pm_node_->id();
  for (const auto& mp : meta_providers_) {
    e.metadata_providers.push_back(mp->id());
  }
  return e;
}

BlobClient* Deployment::add_client(ClientConfig config) {
  rpc::Node* n = cluster_->add_node(next_site(), config_.client_spec);
  const ClientId id{next_client_id_++};
  clients_.push_back(std::make_unique<BlobClient>(
      *n, id, endpoints(), config, /*rng_seed=*/0xC11E47 + id.value));
  return clients_.back().get();
}

DataProvider* Deployment::add_provider() {
  rpc::Node* n = cluster_->add_node(next_site(), config_.node_spec);
  DataProvider::Options opts;
  opts.capacity = config_.provider_capacity;
  opts.journal = config_.journal;
  providers_.push_back(std::make_unique<DataProvider>(*n, opts));
  if (config_.start_heartbeats) {
    providers_.back()->start_heartbeats(pm_node_->id());
  }
  return providers_.back().get();
}

void Deployment::remove_provider(NodeId id) {
  if (DataProvider* p = provider_by_node(id)) {
    p->stop_heartbeats();
  }
  cluster_->retire_node(id);
}

}  // namespace bs::blob
