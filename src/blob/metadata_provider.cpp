#include "blob/metadata_provider.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "obs/trace.hpp"

namespace bs::blob {

MetadataProvider::MetadataProvider(rpc::Node& node, Options options)
    : node_(node), options_(options),
      durable_(node, options.journal, *this, "metadata store recovering",
               image_is_store) {
  node_.add_crash_listener([this](const rpc::CrashOptions& c) {
    if (!durable_.crash(c) && c.lose_storage) wipe();
  });
  node_.add_restart_listener([this] { durable_.restart(); });
  durable_.serve<MetaPutReq, MetaPutResp>(
      [this](const MetaPutReq& req,
             const rpc::Envelope&) -> sim::Task<Result<MetaPutResp>> {
        store(req.key, req.node);
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
        if (!erase(req.key)) co_return MetaRemoveResp{false};
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
        const TreeNode* node = find(req.key);
        if (node == nullptr) {
          co_return Error{Errc::not_found, "tree node not stored here"};
        }
        co_return MetaGetResp{*node};
      });
}

std::uint64_t MetadataProvider::record_bytes(const JournalRecord& rec) {
  return rec.kind == JournalRecord::Kind::put
             ? NodeKey{}.wire_size() + rec.node.wire_size()
             : NodeKey{}.wire_size();
}

const TreeNode* MetadataProvider::find(const NodeKey& key) const {
  const auto it = recent_.find(key);
  return it != recent_.end() ? &it->second : find_in_image(key);
}

const TreeNode* MetadataProvider::find_in_image(const NodeKey& key) const {
  const std::vector<Entry>& image = durable_.image();
  const auto it = std::lower_bound(
      image.begin(), image.end(), key,
      [](const Entry& e, const NodeKey& k) { return e.rec.key < k; });
  if (it == image.end() || it->rec.key != key || removed_.contains(key)) {
    return nullptr;
  }
  return &it->rec.node;
}

void MetadataProvider::store(const NodeKey& key, const TreeNode& node) {
  auto [it, inserted] = recent_.try_emplace(key, node);
  if (!inserted) {
    bytes_ -= it->second.wire_size();
    it->second = node;
  } else if (const TreeNode* old = find_in_image(key)) {
    bytes_ -= old->wire_size();  // the recent put shadows the image's
  } else {
    ++count_;
  }
  bytes_ += node.wire_size();
}

bool MetadataProvider::erase(const NodeKey& key) {
  const TreeNode* node = find(key);
  if (node == nullptr) return false;
  bytes_ -= node->wire_size();
  --count_;
  if (find_in_image(key) != nullptr) removed_.insert(key);
  recent_.erase(key);
  return true;
}

void MetadataProvider::apply_record(const JournalRecord& rec) {
  if (rec.kind == JournalRecord::Kind::put) {
    store(rec.key, rec.node);
  } else {
    erase(rec.key);
  }
}

void MetadataProvider::adopt_image(const std::vector<Entry>& image) {
  assert(recent_.empty() && removed_.empty());
  count_ = image.size();
  bytes_ = 0;
  for (const Entry& e : image) bytes_ += e.rec.node.wire_size();
}

std::vector<MetadataProvider::Entry> MetadataProvider::encode_checkpoint(
    std::vector<Entry> image, const std::vector<Entry>& tail) {
  // The previous image, sorted by key, with the durable tail folded in
  // place: the newest tail record per key wins, and entries it does not
  // touch are neither copied nor reallocated. Every write adds tree nodes
  // (only metadata GC removes any), so re-encoding the live store would
  // make each checkpoint cost the whole store instead of its tail. The
  // tail is exactly what recent_ and removed_ hold, so the new image
  // absorbs them.
  const auto key_below = [](const Entry& e, const NodeKey& k) {
    return e.rec.key < k;
  };
  // Tail positions ordered by (key, position); the last of each key's run
  // is that key's newest record.
  std::vector<std::size_t> order(tail.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&tail](std::size_t a, std::size_t b) {
    const NodeKey& ka = tail[a].rec.key;
    const NodeKey& kb = tail[b].rec.key;
    return ka != kb ? ka < kb : a < b;
  });
  std::vector<const Entry*> added;  // puts of keys the image lacks, by key
  bool removed = false;
  auto at = image.begin();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Entry& e = tail[order[i]];
    if (i + 1 < order.size() && tail[order[i + 1]].rec.key == e.rec.key) {
      continue;  // a newer record for this key follows
    }
    at = std::lower_bound(at, image.end(), e.rec.key, key_below);
    const bool found = at != image.end() && at->rec.key == e.rec.key;
    if (e.rec.kind == JournalRecord::Kind::remove) {
      // The image holds only puts, so a remove kind marks the entry.
      if (found) at->rec.kind = JournalRecord::Kind::remove;
      removed = removed || found;
    } else if (found) {
      *at = e;
    } else {
      added.push_back(&e);
    }
  }
  if (removed) {
    std::erase_if(image, [](const Entry& e) {
      return e.rec.kind == JournalRecord::Kind::remove;
    });
  }
  // Merge the new keys in from the back, moving each old entry at most once.
  std::size_t old_end = image.size();
  image.resize(old_end + added.size());
  std::size_t out = image.size();
  for (std::size_t a = added.size(); a > 0;) {
    if (old_end > 0 && added[a - 1]->rec.key < image[old_end - 1].rec.key) {
      image[--out] = std::move(image[--old_end]);
    } else {
      image[--out] = *added[--a];
    }
  }
  recent_.clear();
  removed_.clear();
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
