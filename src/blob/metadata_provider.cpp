#include "blob/metadata_provider.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"

namespace bs::blob {

MetadataProvider::MetadataProvider(rpc::Node& node, Options options)
    : node_(node), options_(options),
      durable_(node, options.journal, *this, "metadata store recovering") {
  node_.add_crash_listener([this](const rpc::CrashOptions& c) {
    if (!durable_.crash(c) && c.lose_storage) wipe();
  });
  node_.add_restart_listener([this] { durable_.restart(); });
  durable_.serve<MetaPutReq, MetaPutResp>(
      [this](const MetaPutReq& req,
             const rpc::Envelope&) -> sim::Task<Result<MetaPutResp>> {
        auto [it, inserted] = nodes_.insert_or_assign(req.key, req.node);
        if (inserted) bytes_ += req.node.wire_size();
        JournalRecord rec;
        rec.kind = JournalRecord::Kind::put;
        rec.key = req.key;
        rec.node = req.node;
        auto sealed = co_await durable_.commit(std::move(rec));
        if (!sealed.ok()) co_return sealed.error();
        co_return MetaPutResp{};
      });
  durable_.serve<MetaRemoveReq, MetaRemoveResp>(
      [this](const MetaRemoveReq& req,
             const rpc::Envelope&) -> sim::Task<Result<MetaRemoveResp>> {
        auto it = nodes_.find(req.key);
        if (it == nodes_.end()) co_return MetaRemoveResp{false};
        bytes_ -= it->second.wire_size();
        nodes_.erase(it);
        JournalRecord rec;
        rec.kind = JournalRecord::Kind::remove;
        rec.key = req.key;
        auto sealed = co_await durable_.commit(std::move(rec));
        if (!sealed.ok()) co_return sealed.error();
        co_return MetaRemoveResp{true};
      });

  durable_.serve<MetaGetReq, MetaGetResp>(
      [this](const MetaGetReq& req,
             const rpc::Envelope&) -> sim::Task<Result<MetaGetResp>> {
        auto it = nodes_.find(req.key);
        if (it == nodes_.end()) {
          co_return Error{Errc::not_found, "tree node not stored here"};
        }
        co_return MetaGetResp{it->second};
      });
}

std::uint64_t MetadataProvider::record_bytes(const JournalRecord& rec) {
  return rec.kind == JournalRecord::Kind::put
             ? NodeKey{}.wire_size() + rec.node.wire_size()
             : NodeKey{}.wire_size();
}

void MetadataProvider::apply_record(const JournalRecord& rec) {
  if (rec.kind == JournalRecord::Kind::put) {
    auto [it, inserted] = nodes_.insert_or_assign(rec.key, rec.node);
    if (inserted) bytes_ += rec.node.wire_size();
  } else if (auto it = nodes_.find(rec.key); it != nodes_.end()) {
    bytes_ -= it->second.wire_size();
    nodes_.erase(it);
  }
}

std::vector<Journal<MetadataProvider::JournalRecord>::Entry>
MetadataProvider::encode_checkpoint() const {
  // Encoded over a sorted key snapshot so the image is deterministic
  // regardless of unordered_map layout.
  std::vector<NodeKey> keys;
  keys.reserve(nodes_.size());
  // bslint: allow(det-unordered-iter): snapshot is sorted before encoding
  // bslint: allow(det-journal-encode): keys sorted below; values looked up
  for (const auto& [k, v] : nodes_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  std::vector<Journal<JournalRecord>::Entry> image;
  image.reserve(keys.size());
  for (const NodeKey& key : keys) {
    JournalRecord rec;
    rec.kind = JournalRecord::Kind::put;
    rec.key = key;
    rec.node = nodes_.at(key);
    const std::uint64_t bytes = record_bytes(rec);
    image.push_back({std::move(rec), bytes});
  }
  return image;
}

RemoteMetadataStore::RemoteMetadataStore(rpc::Node& self,
                                         std::vector<NodeId> providers,
                                         ClientId as_client,
                                         SimDuration timeout,
                                         rpc::RetryPolicy retry)
    : self_(self), providers_(std::move(providers)) {
  assert(!providers_.empty());
  opts_.client = as_client;
  opts_.timeout = timeout;
  opts_.retry = retry;
}

NodeId RemoteMetadataStore::provider_for(const NodeKey& key) const {
  return providers_[key.hash() % providers_.size()];
}

sim::Task<Result<TreeNode>> RemoteMetadataStore::get(NodeKey key) {
  return get(key, obs::SpanId{0});
}

sim::Task<Result<void>> RemoteMetadataStore::put(NodeKey key,
                                                 TreeNode node) {
  return put(key, std::move(node), obs::SpanId{0});
}

sim::Task<Result<TreeNode>> RemoteMetadataStore::get(NodeKey key,
                                                     obs::SpanId parent) {
  MetaGetReq req;
  req.key = key;
  rpc::CallOptions o = opts_;
  o.parent_span = parent;
  auto r = co_await self_.cluster().call<MetaGetReq, MetaGetResp>(
      self_, provider_for(key), req, o);
  if (!r.ok()) co_return r.error();
  co_return std::move(r.value().node);
}

sim::Task<Result<void>> RemoteMetadataStore::put(NodeKey key,
                                                 TreeNode node,
                                                 obs::SpanId parent) {
  MetaPutReq req;
  req.key = key;
  req.node = std::move(node);
  rpc::CallOptions o = opts_;
  o.parent_span = parent;
  auto r = co_await self_.cluster().call<MetaPutReq, MetaPutResp>(
      self_, provider_for(key), std::move(req), o);
  if (!r.ok()) co_return r.error();
  co_return ok_result();
}

}  // namespace bs::blob
