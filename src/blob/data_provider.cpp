#include "blob/data_provider.hpp"

#include <algorithm>

namespace bs::blob {

DataProvider::DataProvider(rpc::Node& node, Options options)
    : node_(node), options_(options),
      durable_(node, options.journal, *this, "store recovering") {
  register_handlers();
  node_.add_crash_listener([this](const rpc::CrashOptions& c) {
    stop_heartbeats();
    if (!durable_.crash(c) && c.lose_storage) wipe();
  });
  node_.add_restart_listener([this] {
    // Journaled, on_readable() re-registers once the replay is done.
    // Otherwise re-register with the last known manager at once; the
    // registration carries the surviving store (or a zeroed one after a
    // wipe).
    if (!durable_.restart() && pm_node_.valid()) start_heartbeats(pm_node_);
  });
}

std::uint64_t DataProvider::record_bytes(const JournalRecord& rec) {
  // Put records carry the data pages (WAL write amplification); removes
  // are a key tombstone.
  return rec.kind == JournalRecord::Kind::put ? 48 + rec.payload.size : 40;
}

void DataProvider::apply_record(const JournalRecord& rec) {
  if (rec.kind == JournalRecord::Kind::put) {
    auto [it, inserted] = chunks_.emplace(rec.key, rec.payload);
    if (inserted) used_ += rec.payload.size;
  } else if (auto it = chunks_.find(rec.key); it != chunks_.end()) {
    used_ -= it->second.size;
    chunks_.erase(it);
  }
}

std::vector<Journal<DataProvider::JournalRecord>::Entry>
DataProvider::encode_checkpoint(
    std::vector<Journal<JournalRecord>::Entry> image,
    const std::vector<Journal<JournalRecord>::Entry>&) const {
  // Checkpoints are the chunk *index* (48 bytes per chunk): reopening a
  // checkpointed store scans the index, not the data pages. Encoded over
  // the sorted key snapshot so the image is deterministic, in the previous
  // image's buffer.
  image.clear();
  image.reserve(chunks_.size());
  for (const ChunkKey& key : chunk_keys()) {
    JournalRecord rec;
    rec.kind = JournalRecord::Kind::put;
    rec.key = key;
    rec.payload = chunks_.at(key);
    image.push_back({std::move(rec), 48});
  }
  return image;
}

void DataProvider::on_readable(const RecoveryOutcome&) {
  if (used_ > 0) notify_storage(static_cast<std::int64_t>(used_));
  if (pm_node_.valid()) start_heartbeats(pm_node_);
}

void DataProvider::register_handlers() {
  durable_.serve<PutChunkReq, PutChunkResp>(
      [this](const PutChunkReq& req, const rpc::Envelope& env) {
        return handle_put(req, env.client);
      });
  durable_.serve<GetChunkReq, GetChunkResp>(
      [this](const GetChunkReq& req, const rpc::Envelope& env) {
        return handle_get(req, env.client);
      });
  durable_.serve<RemoveChunkReq, RemoveChunkResp>(
      [this](const RemoveChunkReq& req, const rpc::Envelope&) {
        return handle_remove(req);
      });
  durable_.serve<HasChunkReq, HasChunkResp>(
      [this](const HasChunkReq& req,
             const rpc::Envelope&) -> sim::Task<Result<HasChunkResp>> {
        HasChunkResp resp;
        auto it = chunks_.find(req.key);
        if (it != chunks_.end()) {
          resp.present = true;
          resp.size = it->second.size;
        }
        co_return resp;
      });
  durable_.serve<ReplicateChunkReq, ReplicateChunkResp>(
      [this](const ReplicateChunkReq& req, const rpc::Envelope&) {
        return handle_replicate(req);
      });
  durable_.serve<RemoveBlobChunksReq, RemoveBlobChunksResp>(
      [this](const RemoveBlobChunksReq& req, const rpc::Envelope&)
          -> sim::Task<Result<RemoveBlobChunksResp>> {
        RemoveBlobChunksResp resp;
        std::vector<ChunkKey> removed;
        // bslint: allow(det-unordered-iter): erase sweep accumulating
        // order-insensitive sums; the removed-key set is sorted before use
        for (auto it = chunks_.begin(); it != chunks_.end();) {
          if (it->first.blob == req.blob) {
            resp.bytes_freed += it->second.size;
            ++resp.chunks_removed;
            used_ -= it->second.size;
            removed.push_back(it->first);
            it = chunks_.erase(it);
          } else {
            ++it;
          }
        }
        std::sort(removed.begin(), removed.end());
        std::vector<JournalRecord> recs(removed.size());
        for (std::size_t i = 0; i < removed.size(); ++i) {
          recs[i].kind = JournalRecord::Kind::remove;
          recs[i].key = removed[i];
        }
        auto sealed = co_await durable_.commit(std::move(recs));
        if (!sealed.ok()) co_return sealed.error();
        if (resp.bytes_freed > 0) {
          notify_storage(-static_cast<std::int64_t>(resp.bytes_freed));
        }
        co_return resp;
      });

  durable_.serve<ProviderStatusReq, ProviderStatusResp>(
      [this](const ProviderStatusReq&,
             const rpc::Envelope&) -> sim::Task<Result<ProviderStatusResp>> {
        ProviderStatusResp resp;
        resp.capacity = options_.capacity;
        resp.used = used_;
        resp.chunks = chunks_.size();
        co_return resp;
      });
  durable_.serve<ListChunksReq, ListChunksResp>(
      [this](const ListChunksReq&,
             const rpc::Envelope&) -> sim::Task<Result<ListChunksResp>> {
        ListChunksResp resp;
        resp.keys = chunk_keys();
        co_return resp;
      });
}

std::vector<ChunkKey> DataProvider::chunk_keys() const {
  std::vector<ChunkKey> keys;
  keys.reserve(chunks_.size());
  // bslint: allow(det-unordered-iter): snapshot is sorted before returning
  for (const auto& [k, v] : chunks_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void DataProvider::notify_storage(std::int64_t delta) {
  if (!storage_observer_) return;
  StorageEvent ev;
  ev.node = node_.id();
  ev.used = used_;
  ev.capacity = options_.capacity;
  ev.chunks = chunks_.size();
  ev.delta = delta;
  storage_observer_(ev);
}

void DataProvider::notify_access(const ChunkKey& key, std::uint64_t bytes,
                                 bool write, ClientId client) {
  if (!access_observer_) return;
  AccessEvent ev;
  ev.key = key;
  ev.bytes = bytes;
  ev.write = write;
  ev.client = client;
  access_observer_(ev);
}

sim::Task<Result<PutChunkResp>> DataProvider::handle_put(PutChunkReq req,
                                                         ClientId client) {
  auto it = chunks_.find(req.key);
  if (it != chunks_.end()) {
    // Chunks are immutable: a re-put (retry, abort-repair) is idempotent.
    co_return PutChunkResp{};
  }
  if (used_ + req.payload.size > options_.capacity) {
    co_return Error{Errc::out_of_space, "provider full"};
  }
  used_ += req.payload.size;
  stores_.add(node_.cluster().sim().now(),
              static_cast<double>(req.payload.size));
  chunks_.emplace(req.key, req.payload);
  JournalRecord rec;
  rec.kind = JournalRecord::Kind::put;
  rec.key = req.key;
  rec.payload = req.payload;
  // A crash before the commit barrier leaves the put never durable, and
  // the crash already rolled the in-memory image back.
  auto sealed = co_await durable_.commit(std::move(rec));
  if (!sealed.ok()) co_return sealed.error();
  notify_storage(static_cast<std::int64_t>(req.payload.size));
  notify_access(req.key, req.payload.size, /*write=*/true, client);
  co_return PutChunkResp{};
}

sim::Task<Result<GetChunkResp>> DataProvider::handle_get(GetChunkReq req,
                                                         ClientId client) {
  auto it = chunks_.find(req.key);
  if (it == chunks_.end()) {
    co_return Error{Errc::not_found, "chunk not stored here"};
  }
  const Payload& stored = it->second;
  if (req.offset >= stored.size && stored.size > 0) {
    co_return Error{Errc::invalid_argument, "chunk read past end"};
  }
  const std::uint64_t len =
      std::min(req.length, stored.size - req.offset);
  notify_access(req.key, len, /*write=*/false, client);
  GetChunkResp resp;
  if (req.offset == 0 && len == stored.size) {
    resp.payload = stored;
  } else {
    resp.payload.size = len;
    resp.payload.checksum = stored.checksum;  // whole-chunk checksum
    if (stored.bytes) {
      auto slice = std::make_shared<std::vector<std::uint8_t>>(
          stored.bytes->begin() + static_cast<std::ptrdiff_t>(req.offset),
          stored.bytes->begin() + static_cast<std::ptrdiff_t>(req.offset + len));
      resp.payload.checksum = Payload::checksum_of(*slice);
      resp.payload.bytes = std::move(slice);
    }
  }
  co_return resp;
}

sim::Task<Result<RemoveChunkResp>> DataProvider::handle_remove(
    RemoveChunkReq req) {
  auto it = chunks_.find(req.key);
  if (it == chunks_.end()) co_return RemoveChunkResp{false};
  used_ -= it->second.size;
  const auto delta = -static_cast<std::int64_t>(it->second.size);
  chunks_.erase(it);
  JournalRecord rec;
  rec.kind = JournalRecord::Kind::remove;
  rec.key = req.key;
  auto sealed = co_await durable_.commit(std::move(rec));
  if (!sealed.ok()) co_return sealed.error();
  notify_storage(delta);
  co_return RemoveChunkResp{true};
}

sim::Task<Result<ReplicateChunkResp>> DataProvider::handle_replicate(
    ReplicateChunkReq req) {
  auto it = chunks_.find(req.key);
  if (it == chunks_.end()) {
    co_return Error{Errc::not_found, "chunk not stored here"};
  }
  if (router_ && router_(req.key, req.target, it->second)) {
    // Custody taken: the replication plane owns delivery from here.
    co_return ReplicateChunkResp{};
  }
  PutChunkReq put;
  put.key = req.key;
  put.payload = it->second;
  auto result = co_await node_.cluster().call<PutChunkReq, PutChunkResp>(
      node_, req.target, std::move(put));
  if (!result.ok()) co_return result.error();
  co_return ReplicateChunkResp{};
}

void DataProvider::start_heartbeats(NodeId provider_manager) {
  pm_node_ = provider_manager;
  heartbeats_on_ = true;
  // Bumping the generation stales any previous loop, so a crash→restart
  // before the old loop noticed never doubles the heartbeat stream.
  node_.cluster().sim().spawn(heartbeat_loop(provider_manager,
                                             ++hb_generation_));
}

sim::Task<void> DataProvider::heartbeat_loop(NodeId provider_manager,
                                             std::uint64_t generation) {
  auto& cluster = node_.cluster();
  auto& sim = cluster.sim();
  auto live = [&] {
    return heartbeats_on_ && generation == hb_generation_ && node_.up();
  };
  auto make_register = [&] {
    RegisterProviderReq reg;
    reg.provider = node_.id();
    reg.capacity = options_.capacity;
    reg.free_space = free_space();
    reg.chunks = chunks_.size();
    return reg;
  };
  // Register (retrying until the manager is reachable).
  while (live()) {
    auto r = co_await cluster.call<RegisterProviderReq, RegisterProviderResp>(
        node_, provider_manager, make_register());
    if (r.ok()) break;
    co_await sim.delay(options_.heartbeat_interval);
  }
  while (live()) {
    co_await sim.delay(options_.heartbeat_interval);
    if (!live()) break;
    HeartbeatReq hb;
    hb.provider = node_.id();
    hb.free_space = free_space();
    hb.chunks = chunks_.size();
    hb.store_rate = store_rate(sim.now());
    auto r = co_await cluster.call<HeartbeatReq, HeartbeatResp>(
        node_, provider_manager, hb);
    if (r.ok() && !r.value().known) {
      (void)co_await cluster.call<RegisterProviderReq, RegisterProviderResp>(
          node_, provider_manager, make_register());
    }
  }
  // Mark stopped so a revived provider can call start_heartbeats() again;
  // a newer generation's loop keeps the flag untouched.
  if (generation == hb_generation_) heartbeats_on_ = false;
}

void DataProvider::wipe() {
  if (used_ > 0) notify_storage(-static_cast<std::int64_t>(used_));
  chunks_.clear();
  used_ = 0;
}

}  // namespace bs::blob
