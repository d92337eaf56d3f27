#include "mon/layer.hpp"

#include <cstring>

namespace bs::mon {

MonitoringLayer::MonitoringLayer(blob::Deployment& deployment,
                                 MonitoringConfig config)
    : dep_(deployment), config_(std::move(config)) {
  auto& cluster = dep_.cluster();

  // Storage servers first (services need their addresses).
  std::vector<NodeId> storage_ids;
  for (std::size_t i = 0; i < config_.storage_servers; ++i) {
    rpc::Node* n = cluster.add_node(dep_.next_site());
    storage_.push_back(std::make_unique<MonStorageServer>(*n));
    storage_ids.push_back(n->id());
  }

  for (std::size_t i = 0; i < config_.services; ++i) {
    rpc::Node* n = cluster.add_node(dep_.next_site());
    MonitoringServiceOptions opts;
    opts.flush_interval = config_.service_flush_interval;
    opts.storage_servers = storage_ids;
    opts.sinks = config_.sinks;
    services_.push_back(std::make_unique<MonitoringService>(*n, opts));
  }

  // Instrument every BlobSeer actor.
  for (auto& provider : dep_.providers()) attach_provider(*provider);

  // Version manager: request + publish instrumentation.
  {
    rpc::Node& vm_node = dep_.version_manager_node();
    Instrument& inst = make_instrument(vm_node);
    vm_node.set_request_observer([&inst](const rpc::RequestInfo& info) {
      if (auto ev = event_from_request(info)) inst.emit(*ev);
    });
    dep_.version_manager().set_publish_observer(
        [&inst](const blob::VersionManager::PublishEvent& ev) {
          MetricEvent m;
          m.kind = MetricKind::version_publish;
          m.client = ev.writer;
          m.blob = ev.blob;
          m.value = static_cast<double>(ev.written_bytes);
          inst.emit(m);
        });
    attach_node_gauges(vm_node, inst);
  }

  // Provider manager: request instrumentation.
  {
    rpc::Node& pm_node = dep_.provider_manager_node();
    Instrument& inst = make_instrument(pm_node);
    pm_node.set_request_observer([&inst](const rpc::RequestInfo& info) {
      if (auto ev = event_from_request(info)) inst.emit(*ev);
    });
  }

  // Metadata providers.
  for (auto& mp : dep_.metadata_providers()) {
    rpc::Node* n = cluster.node(mp->id());
    Instrument& inst = make_instrument(*n);
    n->set_request_observer([&inst](const rpc::RequestInfo& info) {
      if (auto ev = event_from_request(info)) inst.emit(*ev);
    });
  }
}

NodeId MonitoringLayer::service_for(NodeId node) const {
  return services_[node.value % services_.size()]->id();
}

Instrument& MonitoringLayer::make_instrument(rpc::Node& node) {
  auto inst = std::make_unique<Instrument>(node, service_for(node.id()),
                                           config_.instrument);
  Instrument& ref = *inst;
  instruments_[node.id().value] = std::move(inst);
  return ref;
}

std::optional<MetricEvent> MonitoringLayer::event_from_request(
    const rpc::RequestInfo& info) {
  MetricEvent ev;
  ev.client = info.client;
  ev.duration = info.service_time;
  if (info.outcome == Errc::blocked || info.outcome == Errc::throttled) {
    ev.kind = MetricKind::rejected_request;
    ev.value = 1;
    return ev;
  }
  const bool failed = info.outcome != Errc::ok;
  if (std::strcmp(info.name, "blob.put_chunk") == 0 ||
      std::strcmp(info.name, "blob.get_chunk") == 0) {
    // Served chunk traffic is reported through the provider's access
    // observer (which knows the chunk key -> blob); only failures are
    // reported here.
    if (!failed) return std::nullopt;
    ev.kind = MetricKind::failed_request;
    ev.value = static_cast<double>(info.request_bytes);
  } else if (std::strncmp(info.name, "blob.meta_", 10) == 0) {
    ev.kind = failed ? MetricKind::failed_request : MetricKind::meta_op;
    ev.value = 1;
  } else {
    ev.kind = failed ? MetricKind::failed_request : MetricKind::control_op;
    ev.value = 1;
  }
  return ev;
}

void MonitoringLayer::attach_provider(blob::DataProvider& provider) {
  rpc::Node& node = provider.node();
  Instrument& inst = make_instrument(node);

  node.set_request_observer([&inst](const rpc::RequestInfo& info) {
    if (auto ev = event_from_request(info)) inst.emit(*ev);
  });
  provider.set_access_observer(
      [&inst](const blob::DataProvider::AccessEvent& ev) {
        MetricEvent m;
        m.kind = ev.write ? MetricKind::chunk_write : MetricKind::chunk_read;
        m.client = ev.client;
        m.blob = ev.key.blob;
        m.value = static_cast<double>(ev.bytes);
        inst.emit(m);
      });
  provider.set_storage_observer(
      [&inst, &provider](const blob::DataProvider::StorageEvent& ev) {
        MetricEvent m;
        m.kind = MetricKind::provider_storage;
        m.value = static_cast<double>(ev.used);
        m.aux = static_cast<std::uint32_t>(ev.capacity / units::MB);
        inst.emit(m);
        MetricEvent c;
        c.kind = MetricKind::provider_chunks;
        c.value = static_cast<double>(ev.chunks);
        inst.emit(c);
      });

  // Periodic storage gauges even when idle (viz needs flat lines too).
  inst.add_gauge(
      MetricKind::provider_storage,
      [&provider](SimTime) { return static_cast<double>(provider.used()); },
      [&provider](SimTime) {
        return static_cast<double>(provider.capacity() / units::MB);
      });
  inst.add_gauge(MetricKind::provider_chunks, [&provider](SimTime) {
    return static_cast<double>(provider.chunk_count());
  });
  attach_node_gauges(node, inst);
  if (started_) inst.start();
}

void MonitoringLayer::attach_node_gauges(rpc::Node& node, Instrument& inst) {
  // Synthetic physical parameters: CPU load follows recent service
  // activity; memory follows storage pressure where applicable.
  auto noise_rng = std::make_shared<Rng>(rng_.split());
  blob::DataProvider* provider = dep_.provider_by_node(node.id());
  const double disk_bps = node.spec().disk_bps;
  inst.add_gauge(MetricKind::cpu_load,
                 [noise_rng, provider, disk_bps](SimTime now) {
                   double act = 0.0;
                   if (provider != nullptr) {
                     act = provider->store_rate(now) / disk_bps;
                   }
                   const double cpu =
                       0.05 + 0.75 * act + noise_rng->uniform(0.0, 0.05);
                   return std::min(1.0, cpu);
                 });
  inst.add_gauge(MetricKind::mem_used, [noise_rng, provider](SimTime) {
    double frac = 0.15;
    if (provider != nullptr && provider->capacity() > 0) {
      frac += 0.6 * static_cast<double>(provider->used()) /
              static_cast<double>(provider->capacity());
    }
    return std::min(1.0, frac + noise_rng->uniform(0.0, 0.03));
  });
}

void MonitoringLayer::attach_client(blob::BlobClient& client) {
  Instrument& inst = make_instrument(client.node());
  client.set_op_observer([&inst](const blob::ClientOpInfo& info) {
    MetricEvent ev;
    ev.kind = MetricKind::client_op;
    ev.client = info.client;
    ev.blob = info.blob;
    ev.value = static_cast<double>(info.bytes);
    ev.duration = info.duration;
    ev.aux = static_cast<std::uint32_t>(info.op);
    inst.emit(ev);
  });
  if (started_) inst.start();
}

void MonitoringLayer::start() {
  if (started_) return;
  started_ = true;
  for (auto& s : storage_) s->start();
  for (auto& s : services_) s->start();
  for (auto& [id, inst] : instruments_) inst->start();
}

Instrument* MonitoringLayer::instrument_for(NodeId node) {
  auto it = instruments_.find(node.value);
  return it == instruments_.end() ? nullptr : it->second.get();
}

const TimeSeries* MonitoringLayer::query(const RecordKey& key) const {
  const std::size_t idx = key.hash() % storage_.size();
  return storage_[idx]->series(key);
}

std::vector<RecordKey> MonitoringLayer::all_keys() const {
  std::vector<RecordKey> out;
  for (const auto& s : storage_) {
    auto keys = s->keys();
    out.insert(out.end(), keys.begin(), keys.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t MonitoringLayer::total_events() const {
  std::uint64_t n = 0;
  for (const auto& s : services_) n += s->events_received();
  return n;
}

std::uint64_t MonitoringLayer::total_records() const {
  std::uint64_t n = 0;
  for (const auto& s : services_) n += s->records_emitted();
  return n;
}

std::uint64_t MonitoringLayer::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& s : storage_) n += s->records_dropped();
  return n;
}

std::size_t MonitoringLayer::distinct_series() const {
  std::size_t n = 0;
  for (const auto& s : storage_) n += s->keys().size();
  return n;
}

}  // namespace bs::mon
