#include "repl/egress.hpp"

#include <algorithm>
#include <cassert>

#include "blob/messages.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bs::repl {

SiteEgress::SiteEgress(rpc::Node& node, net::SiteId site,
                       EgressOptions options)
    : node_(node),
      site_(site),
      options_(options),
      durable_(node, options.journal, *this, "egress recovering"),
      depth_gauge_name_("repl.custody.depth.s" + std::to_string(site)) {
  register_handlers();
  node_.add_crash_listener([this](const rpc::CrashOptions& c) {
    // Stale every drain loop; the partitioned flags stay (they describe the
    // link, not this node) but parked resume events die with the process.
    ++generation_;
    for (auto& [dst, st] : dsts_) {
      st.draining = false;
      st.resume.reset();
    }
    if (!durable_.crash(c) && c.lose_storage) wipe();
  });
  node_.add_restart_listener([this] {
    if (durable_.restart()) return;  // on_readable() resumes the drains
    for (auto& [dst, st] : dsts_) ensure_drain(dst);
  });
}

void SiteEgress::wipe() {
  map_.clear();
  sizes_.clear();
  applied_chunks_.clear();
  for (auto& [dst, st] : dsts_) st.queue.clear();
  // next_bundle_id_ is deliberately kept: ids stay monotonic across the
  // outage so bundles enqueued while the node is down never collide with
  // replayed ones. Recovery still restores the high-water mark from the
  // journal (bundle_hwm checkpoint record + release-record ids).
  update_depth_gauge();
}

// ---------------------------------------------------------------- journaling

std::uint64_t SiteEgress::record_bytes(const EgressRecord& rec) {
  switch (rec.kind) {
    case EgressRecord::Kind::enqueue:
      // The WAL holds the bundle under custody, payload included — that is
      // what "custody survives a crash" costs.
      return 64 + (rec.bundle.kind == BundleKind::chunk
                       ? rec.bundle.payload.size
                       : rec.bundle.bytes);
    case EgressRecord::Kind::apply:
    case EgressRecord::Kind::apply_chunk:
      return 48;
    case EgressRecord::Kind::publish:
      return 48;
    default:
      // release / retire / drop_blob / frontier / bundle_hwm: key-sized
      return 40;
  }
}

void SiteEgress::apply_record(const EgressRecord& rec) {
  switch (rec.kind) {
    case EgressRecord::Kind::enqueue: {
      // Replaying the push re-runs the overflow policy with the same bound,
      // so drops and spills recur exactly as they did before the crash.
      next_bundle_id_ = std::max(next_bundle_id_, rec.bundle.id);
      dst_state(rec.dst).queue.push(rec.bundle);
      break;
    }
    case EgressRecord::Kind::release: {
      // Released ids also advance the high-water mark: a released bundle's
      // enqueue record may already be compacted out of the checkpoint, and
      // its id must never be re-issued.
      next_bundle_id_ = std::max(next_bundle_id_, rec.bundle_id);
      CustodyQueue& q = dst_state(rec.dst).queue;
      if (!q.empty() && q.front().id == rec.bundle_id) q.release_front();
      break;
    }
    case EgressRecord::Kind::apply:
      map_.note_applied(rec.blob, rec.version);
      break;
    case EgressRecord::Kind::apply_chunk:
      applied_chunks_.insert({rec.chunk, rec.target});
      break;
    case EgressRecord::Kind::frontier:
      map_.note_published(rec.blob, rec.version);
      break;
    case EgressRecord::Kind::bundle_hwm:
      next_bundle_id_ = std::max(next_bundle_id_, rec.bundle_id);
      break;
    case EgressRecord::Kind::publish:
      map_.note_applied(rec.blob, rec.version);
      sizes_[rec.blob.value][rec.version] = rec.bytes;
      break;
    case EgressRecord::Kind::retire:
      map_.retire(rec.blob, rec.version);
      if (auto it = sizes_.find(rec.blob.value); it != sizes_.end()) {
        it->second.erase(rec.version);
        if (it->second.empty()) sizes_.erase(it);
      }
      break;
    case EgressRecord::Kind::drop_blob:
      map_.drop_region(rec.blob);
      sizes_.erase(rec.blob.value);
      break;
  }
}

std::vector<blob::Journal<SiteEgress::EgressRecord>::Entry>
SiteEgress::encode_checkpoint(
    std::vector<blob::Journal<EgressRecord>::Entry> image,
    const std::vector<blob::Journal<EgressRecord>::Entry>&) const {
  // The image re-creates the exact state apply_record() would rebuild:
  // the bundle-id high-water mark first, then origin bookkeeping
  // (frontier/publish/retire), then remote applies, then the chunk-dedup
  // set, then the parked bundles in queue order. All source containers
  // are ordered, so the image is deterministic. It is built in the
  // previous image's buffer.
  image.clear();
  {
    // Without this, released bundles compacted out of the checkpoint would
    // let recovery restart ids below ids already seen on the wire.
    EgressRecord rec;
    rec.kind = EgressRecord::Kind::bundle_hwm;
    rec.bundle_id = next_bundle_id_;
    image.push_back({rec, record_bytes(rec)});
  }
  for (const auto& [blob, region] : map_.regions()) {
    if (region.latest_known != 0) {
      // latest_known can run ahead of the applied set (merge_latest from a
      // map exchange); image it so a recovered remote does not under-report
      // its known frontier until the next exchange.
      EgressRecord rec;
      rec.kind = EgressRecord::Kind::frontier;
      rec.blob = BlobId{blob};
      rec.version = region.latest_known;
      image.push_back({rec, record_bytes(rec)});
    }
    for (blob::Version v : region.applied) {
      EgressRecord rec;
      rec.blob = BlobId{blob};
      rec.version = v;
      auto sit = sizes_.find(blob);
      const std::uint64_t* size =
          sit != sizes_.end() && sit->second.count(v) > 0
              ? &sit->second.at(v)
              : nullptr;
      if (size != nullptr) {
        rec.kind = EgressRecord::Kind::publish;
        rec.bytes = *size;
      } else {
        rec.kind = EgressRecord::Kind::apply;
      }
      image.push_back({rec, record_bytes(rec)});
    }
    for (blob::Version v : region.retired) {
      EgressRecord rec;
      rec.kind = EgressRecord::Kind::retire;
      rec.blob = BlobId{blob};
      rec.version = v;
      image.push_back({rec, record_bytes(rec)});
    }
  }
  for (const auto& [key, target] : applied_chunks_) {
    EgressRecord rec;
    rec.kind = EgressRecord::Kind::apply_chunk;
    rec.chunk = key;
    rec.target = target;
    image.push_back({rec, record_bytes(rec)});
  }
  for (const auto& [dst, st] : dsts_) {
    for (const CustodyBundle& b : st.queue.bundles()) {
      EgressRecord rec;
      rec.kind = EgressRecord::Kind::enqueue;
      rec.dst = dst;
      rec.bundle = b;
      image.push_back({rec, record_bytes(rec)});
    }
  }
  return image;
}

void SiteEgress::on_readable(const blob::RecoveryOutcome& outcome) {
  update_depth_gauge();
  if (outcome.wiped && reprime_) {
    // The custody store is gone; the plane re-primes the authoritative
    // state from the version manager and the dedup at the remotes absorbs
    // whatever gets re-sent.
    reprime_();
  }
  for (auto& [dst, st] : dsts_) ensure_drain(dst);
}

// ---------------------------------------------------------------- origin API

void SiteEgress::note_published(BlobId blob, blob::Version v,
                                std::uint64_t bytes) {
  map_.note_applied(blob, v);
  sizes_[blob.value][v] = bytes;
  EgressRecord rec;
  rec.kind = EgressRecord::Kind::publish;
  rec.blob = blob;
  rec.version = v;
  rec.bytes = bytes;
  durable_.commit_detached(std::move(rec));
}

EnqueueOutcome SiteEgress::enqueue_publish(net::SiteId dst, BlobId blob,
                                           blob::Version v,
                                           std::uint64_t bytes,
                                           bool catch_up) {
  CustodyBundle b;
  b.id = ++next_bundle_id_;
  b.kind = BundleKind::publish;
  b.src_site = site_;
  b.dst_site = dst;
  b.blob = blob;
  b.version = v;
  b.bytes = bytes;
  b.enqueued_at = node_.cluster().sim().now();
  b.catch_up = catch_up;
  return enqueue(std::move(b));
}

EnqueueOutcome SiteEgress::enqueue_chunk(net::SiteId dst,
                                         const blob::ChunkKey& key,
                                         NodeId target,
                                         blob::Payload payload) {
  CustodyBundle b;
  b.id = ++next_bundle_id_;
  b.kind = BundleKind::chunk;
  b.src_site = site_;
  b.dst_site = dst;
  b.blob = key.blob;
  b.version = key.version;
  b.bytes = payload.size;
  b.chunk = key;
  b.target = target;
  b.payload = std::move(payload);
  b.enqueued_at = node_.cluster().sim().now();
  return enqueue(std::move(b));
}

EnqueueOutcome SiteEgress::enqueue(CustodyBundle b) {
  const net::SiteId dst = b.dst_site;
  const std::uint64_t held = rec_bundle_bytes(b);
  EgressRecord rec;
  rec.kind = EgressRecord::Kind::enqueue;
  rec.dst = dst;
  rec.bundle = b;
  const EnqueueOutcome outcome = dst_state(dst).queue.push(std::move(b));
  // Journaled regardless of the outcome: the replay re-runs the same push
  // against the same bound, so the same drop/spill decision recurs.
  durable_.commit_detached(std::move(rec));
  switch (outcome) {
    case EnqueueOutcome::ok:
      obs::count("repl.enqueued");
      break;
    case EnqueueOutcome::spilled:
      obs::count("repl.enqueued");
      obs::count("repl.spilled");
      blob::charge_disk_write(node_, held);
      break;
    case EnqueueOutcome::dropped_new:
      obs::count("repl.enqueued");
      obs::count("repl.dropped");
      break;
  }
  ensure_drain(dst);
  update_depth_gauge();
  return outcome;
}

void SiteEgress::retire_version(BlobId blob, blob::Version v) {
  map_.retire(blob, v);
  if (auto it = sizes_.find(blob.value); it != sizes_.end()) {
    it->second.erase(v);
    if (it->second.empty()) sizes_.erase(it);
  }
  EgressRecord rec;
  rec.kind = EgressRecord::Kind::retire;
  rec.blob = blob;
  rec.version = v;
  durable_.commit_detached(std::move(rec));
}

void SiteEgress::drop_blob(BlobId blob) {
  map_.drop_region(blob);
  sizes_.erase(blob.value);
  EgressRecord rec;
  rec.kind = EgressRecord::Kind::drop_blob;
  rec.blob = blob;
  durable_.commit_detached(std::move(rec));
}

// ------------------------------------------------------- fault notifications

void SiteEgress::set_link_state(net::SiteId peer, bool partitioned) {
  DstState& st = dst_state(peer);
  st.partitioned = partitioned;
  if (!partitioned && st.resume) {
    // Heal: wake the parked drain loop (wakeup goes through the event
    // queue, never inline).
    st.resume->set();
    st.resume.reset();
  }
  if (!partitioned) ensure_drain(peer);
}

// --------------------------------------------------------------- drain loops

SiteEgress::DstState& SiteEgress::dst_state(net::SiteId dst) {
  auto it = dsts_.find(dst);
  if (it == dsts_.end()) {
    it = dsts_
             .emplace(std::piecewise_construct, std::forward_as_tuple(dst),
                      std::forward_as_tuple(options_.queue_bound,
                                            options_.overflow))
             .first;
  }
  return it->second;
}

void SiteEgress::ensure_drain(net::SiteId dst) {
  DstState& st = dst_state(dst);
  if (st.draining || recovering() || !node_.up()) return;
  if (st.queue.empty()) return;
  st.draining = true;
  node_.cluster().sim().spawn(drain_loop(dst, generation_));
}

sim::Task<void> SiteEgress::drain_loop(net::SiteId dst,
                                       std::uint64_t generation) {
  auto& cluster = node_.cluster();
  auto& sim = cluster.sim();
  auto live = [&] {
    return generation == generation_ && node_.up() && !recovering();
  };
  while (live()) {
    DstState& st = dst_state(dst);
    if (st.queue.empty()) break;
    if (st.partitioned) {
      // Park instead of burning delivery timeouts against a link the fault
      // plane has declared down; the heal notification wakes us.
      if (!st.resume) st.resume = std::make_shared<sim::Event>(sim);
      auto resume = st.resume;
      co_await resume->wait();
      continue;
    }
    const NodeId peer = peer_resolver_ ? peer_resolver_(dst) : NodeId{};
    if (!peer.valid()) {
      co_await sim.delay(options_.retry_backoff);
      continue;
    }
    if (st.queue.front().spilled) {
      // Spilled custody is read back off the egress disk before it can go
      // back on the wire.
      [[maybe_unused]] const std::uint64_t spill_id = st.queue.front().id;
      const std::uint64_t bytes = rec_bundle_bytes(st.queue.front());
      std::vector<net::Resource*> rs{node_.disk()};
      co_await cluster.flows().transfer(static_cast<double>(bytes),
                                        std::move(rs));
      if (!live()) co_return;
      // The head is still the bundle read back: only this loop releases it,
      // and a crash or wipe first ends this loop's generation (live()).
      assert(!st.queue.empty() && st.queue.front().id == spill_id);
      st.queue.front().spilled = false;
    }
    ReplDeliverReq req;
    {
      CustodyBundle& b = st.queue.front();
      req.src_site = site_;
      req.bundle_id = b.id;
      req.kind = static_cast<std::uint8_t>(b.kind);
      req.blob = b.blob;
      req.version = b.version;
      req.bytes = b.bytes;
      req.chunk = b.chunk;
      req.target = b.target;
      req.payload = b.payload;
      req.queued_at = b.enqueued_at;
      req.catch_up = b.catch_up;
      if (++b.forwards > 1) {
        st.queue.note_reforward();
        obs::count("repl.reforwards");
      }
    }
    obs::Span span;
    if (auto* ts = obs::sink()) {
      span = ts->span("repl.deliver", "repl", 0,
                      {"dst", static_cast<std::int64_t>(dst)},
                      {"bundle", static_cast<std::int64_t>(req.bundle_id)});
    }
    rpc::CallOptions copts;
    copts.timeout = options_.custody_timeout;
    [[maybe_unused]] const std::uint64_t delivered_id = req.bundle_id;
    auto r = co_await cluster.call<ReplDeliverReq, ReplDeliverResp>(
        node_, peer, std::move(req), copts);
    if (!live()) co_return;
    if (r.ok()) {
      span.end("ok");
      if (r.value().duplicate) obs::count("repl.duplicates");
      // The delivered bundle is still the head, as after the read-back.
      assert(!st.queue.empty() && st.queue.front().id == delivered_id);
      const CustodyBundle done = st.queue.release_front();
      obs::count("repl.delivered");
      obs::observe("repl.custody.hold_ms",
                   simtime::to_millis(sim.now() - done.enqueued_at), 0.0,
                   1.0e7, 200);
      EgressRecord rec;
      rec.kind = EgressRecord::Kind::release;
      rec.dst = dst;
      rec.bundle_id = done.id;
      durable_.commit_detached(std::move(rec));
      update_depth_gauge();
    } else {
      // Custody timeout (or peer down): custody is retained and the bundle
      // re-forwarded after a backoff. The receiver dedups re-deliveries.
      span.end(errc_name(r.error().code));
      obs::count("repl.attempt_failures");
      co_await sim.delay(options_.retry_backoff);
    }
  }
  if (generation == generation_) dst_state(dst).draining = false;
}

void SiteEgress::update_depth_gauge() {
  if (auto* m = obs::metrics()) {
    m->gauge(depth_gauge_name_)
        .set(static_cast<double>(queue_depth()), node_.cluster().sim().now());
  }
}

// ------------------------------------------------------------------ handlers

void SiteEgress::register_handlers() {
  durable_.serve<ReplDeliverReq, ReplDeliverResp>(
      [this](const ReplDeliverReq& req, const rpc::Envelope&) {
        return handle_deliver(req);
      });
  durable_.serve<ReplMapReq, ReplMapResp>(
      [this](const ReplMapReq& req, const rpc::Envelope&) {
        return handle_map(req);
      });
}

sim::Task<Result<ReplDeliverResp>> SiteEgress::handle_deliver(
    ReplDeliverReq req) {
  obs::Span span;
  if (auto* ts = obs::sink()) {
    span = ts->span("repl.apply", "repl", 0,
                    {"src", static_cast<std::int64_t>(req.src_site)},
                    {"bundle", static_cast<std::int64_t>(req.bundle_id)});
  }
  auto& sim = node_.cluster().sim();
  // Durable handoff: the apply record is journaled and fsynced *before*
  // the ack goes back, so acked custody survives a crash of this node.
  if (static_cast<BundleKind>(req.kind) == BundleKind::chunk) {
    // Dedup by replica identity, not sender bundle id: the ack then stays
    // truthful ("this replica exists durably here") even if the sender
    // restarts its id sequence after a crash or store wipe.
    const std::pair<blob::ChunkKey, NodeId> key{req.chunk, req.target};
    if (applied_chunks_.count(key) > 0) {
      span.end("duplicate");
      co_return ReplDeliverResp{true};
    }
    // Land the replica on the local provider before taking custody; a
    // failure leaves custody with the sender (it re-forwards later).
    blob::PutChunkReq put;
    put.key = req.chunk;
    put.payload = req.payload;
    auto stored = co_await node_.cluster().call<blob::PutChunkReq,
                                                blob::PutChunkResp>(
        node_, req.target, std::move(put));
    if (!stored.ok()) {
      span.end(errc_name(stored.error().code));
      co_return stored.error();
    }
    applied_chunks_.insert(key);
    EgressRecord rec;
    rec.kind = EgressRecord::Kind::apply_chunk;
    rec.chunk = req.chunk;
    rec.target = req.target;
    if (!co_await durable_.commit(std::move(rec))) {
      co_return Error{Errc::unavailable, "crashed before handoff"};
    }
  } else {
    // Dedup by version id: a re-forwarded publication is acked (the sender
    // releases custody) but applied exactly once.
    if (!map_.note_applied(req.blob, req.version)) {
      ++duplicates_;
      span.end("duplicate");
      co_return ReplDeliverResp{true};
    }
    EgressRecord rec;
    rec.kind = EgressRecord::Kind::apply;
    rec.blob = req.blob;
    rec.version = req.version;
    if (!co_await durable_.commit(std::move(rec))) {
      co_return Error{Errc::unavailable, "crashed before handoff"};
    }
  }
  ++applies_;
  obs::count("repl.applied");
  obs::observe("repl.staleness_ms", simtime::to_millis(sim.now() - req.queued_at),
               0.0, 1.0e7, 200);
  span.end("ok");
  if (progress_) progress_();
  co_return ReplDeliverResp{false};
}

sim::Task<Result<ReplMapResp>> SiteEgress::handle_map(ReplMapReq req) {
  obs::Span span;
  if (auto* ts = obs::sink()) {
    span = ts->span("repl.reconcile", "repl", 0,
                    {"from", static_cast<std::int64_t>(req.from_site)});
  }
  const VersionMap remote = VersionMap::decode_wire(req.map);
  ReplMapResp resp;
  // Whatever the remote is missing and nobody holds custody of any more is
  // re-synthesized from the origin's retained history as catch-up bundles,
  // scheduled through the ordinary custody queue (drained at link rate).
  for (const MissingRange& mr : remote.missing_from(map_)) {
    auto rit = map_.regions().find(mr.blob);
    if (rit == map_.regions().end()) continue;
    const CustodyQueue& q = dst_state(req.from_site).queue;
    for (auto vit = rit->second.applied.lower_bound(mr.from);
         vit != rit->second.applied.end() && *vit <= mr.to; ++vit) {
      if (q.holds_publish(BlobId{mr.blob}, *vit)) continue;
      const EnqueueOutcome out =
          enqueue_publish(req.from_site, BlobId{mr.blob}, *vit,
                          published_bytes(BlobId{mr.blob}, *vit),
                          /*catch_up=*/true);
      // dropped_new means the bundle never became resident — nothing was
      // actually scheduled towards the caller.
      if (out != EnqueueOutcome::dropped_new) ++resp.catch_up_enqueued;
    }
  }
  resp.map = map_.encode_wire();
  if (resp.catch_up_enqueued > 0) {
    obs::count("repl.reconcile.catchup_bundles", resp.catch_up_enqueued);
  }
  span.end("ok");
  co_return resp;
}

// ---------------------------------------------------------------- reconciler

sim::Task<std::optional<std::uint64_t>> SiteEgress::reconcile_with(
    NodeId origin_node) {
  if (recovering() || !node_.up()) co_return std::nullopt;
  ReplMapReq req;
  req.from_site = site_;
  req.map = map_.encode_wire();
  rpc::CallOptions copts;
  copts.timeout = options_.custody_timeout;
  auto r = co_await node_.cluster().call<ReplMapReq, ReplMapResp>(
      node_, origin_node, std::move(req), copts);
  if (!r.ok()) co_return std::nullopt;
  // Fold the origin's frontier in and journal each advance, so the learned
  // latest_known survives a crash instead of waiting on the next exchange.
  const VersionMap origin_map = VersionMap::decode_wire(r.value().map);
  for (const auto& [blob, region] : origin_map.regions()) {
    if (region.latest_known <= map_.latest_known(BlobId{blob})) continue;
    map_.note_published(BlobId{blob}, region.latest_known);
    EgressRecord rec;
    rec.kind = EgressRecord::Kind::frontier;
    rec.blob = BlobId{blob};
    rec.version = region.latest_known;
    durable_.commit_detached(std::move(rec));
  }
  if (progress_) progress_();
  co_return r.value().catch_up_enqueued;
}

// ---------------------------------------------------------------- inspection

std::size_t SiteEgress::queue_depth() const {
  std::size_t n = 0;
  for (const auto& [dst, st] : dsts_) n += st.queue.size();
  return n;
}

std::size_t SiteEgress::queue_depth(net::SiteId dst) const {
  auto it = dsts_.find(dst);
  return it == dsts_.end() ? 0 : it->second.queue.size();
}

std::uint64_t SiteEgress::queued_bytes() const {
  std::uint64_t n = 0;
  for (const auto& [dst, st] : dsts_) n += st.queue.queued_bytes();
  return n;
}

const CustodyQueueStats* SiteEgress::queue_stats(net::SiteId dst) const {
  auto it = dsts_.find(dst);
  return it == dsts_.end() ? nullptr : &it->second.queue.stats();
}

CustodyQueueStats SiteEgress::total_stats() const {
  CustodyQueueStats total;
  for (const auto& [dst, st] : dsts_) {
    const CustodyQueueStats& s = st.queue.stats();
    total.enqueued += s.enqueued;
    total.released += s.released;
    total.dropped += s.dropped;
    total.spilled += s.spilled;
    total.reforwards += s.reforwards;
    total.peak_depth = std::max(total.peak_depth, s.peak_depth);
  }
  return total;
}

std::uint64_t SiteEgress::published_bytes(BlobId blob,
                                          blob::Version v) const {
  auto it = sizes_.find(blob.value);
  if (it == sizes_.end()) return 0;
  auto vit = it->second.find(v);
  return vit == it->second.end() ? 0 : vit->second;
}

std::uint64_t SiteEgress::digest() const {
  Digest d;
  d.mix(site_);
  d.mix(map_.digest());
  d.mix(dsts_.size());
  for (const auto& [dst, st] : dsts_) {
    d.mix(dst);
    d.mix(st.queue.size());
    for (const CustodyBundle& b : st.queue.bundles()) {
      d.mix(b.id);
      d.mix(static_cast<std::uint64_t>(b.kind));
      d.mix(b.blob.value);
      d.mix(b.version);
      d.mix(b.bytes);
    }
  }
  d.mix(applied_chunks_.size());
  for (const auto& [key, target] : applied_chunks_) {
    d.mix(key.blob.value);
    d.mix(key.version);
    d.mix(key.index);
    d.mix(target.value);
  }
  return d.value();
}

}  // namespace bs::repl
