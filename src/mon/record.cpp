#include "mon/record.hpp"

#include "mon/event.hpp"

namespace bs::mon {

const char* domain_name(Domain d) {
  switch (d) {
    case Domain::client: return "client";
    case Domain::provider: return "provider";
    case Domain::blob: return "blob";
    case Domain::node: return "node";
    case Domain::system: return "system";
  }
  return "?";
}

const char* metric_name(Metric m) {
  switch (m) {
    case Metric::write_ops: return "write_ops";
    case Metric::read_ops: return "read_ops";
    case Metric::write_bytes: return "write_bytes";
    case Metric::read_bytes: return "read_bytes";
    case Metric::rejected_ops: return "rejected_ops";
    case Metric::failed_ops: return "failed_ops";
    case Metric::meta_ops: return "meta_ops";
    case Metric::control_ops: return "control_ops";
    case Metric::op_latency: return "op_latency";
    case Metric::used_bytes: return "used_bytes";
    case Metric::capacity_bytes: return "capacity_bytes";
    case Metric::chunk_count: return "chunk_count";
    case Metric::store_rate: return "store_rate";
    case Metric::cpu_load: return "cpu_load";
    case Metric::mem_used: return "mem_used";
    case Metric::blob_read_bytes: return "blob_read_bytes";
    case Metric::blob_write_bytes: return "blob_write_bytes";
    case Metric::blob_versions: return "blob_versions";
    case Metric::total_used_bytes: return "total_used_bytes";
    case Metric::total_capacity_bytes: return "total_capacity_bytes";
    case Metric::publish_count: return "publish_count";
    case Metric::active_clients: return "active_clients";
  }
  return "?";
}

std::string RecordKey::series_name() const {
  std::string out = domain_name(domain);
  if (domain != Domain::system) {
    out += '.';
    out += std::to_string(id);
  }
  out += '.';
  out += metric_name(metric);
  return out;
}

}  // namespace bs::mon
