#include "blob/version_manager.hpp"

#include <algorithm>
#include <cassert>

#include "blob/meta_ops.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace bs::blob {

VersionManager::VersionManager(rpc::Node& node, Options opts)
    : node_(node), opts_(opts),
      durable_(node, opts.journal, *this, "version manager recovering") {
  register_handlers();
  // With the journal disabled blob state survives every crash intact, a
  // lost store included (the paper's durable version manager).
  node_.add_crash_listener(
      [this](const rpc::CrashOptions& c) { durable_.crash(c); });
  // The sweeper dies with the node; a restart revives it (after the replay,
  // in on_readable(), when journaled).
  node_.add_restart_listener([this] {
    if (!durable_.restart() && sweeper_enabled_) start_lease_sweeper();
  });
}

void VersionManager::wipe() {
  // Wake every parked commit handler: they resume (via the event queue,
  // after the crash listeners), find the blob gone, and their responses
  // are discarded by the RPC layer's incarnation pinning anyway.
  for (auto& [id, b] : blobs_) {
    for (auto& [v, w] : b.pending) {
      if (w.decision && !w.decision->is_set()) w.decision->set();
    }
  }
  blobs_.clear();
  next_blob_ = 1;
}

void VersionManager::on_readable(const RecoveryOutcome&) {
  if (sweeper_enabled_) start_lease_sweeper();
}

void VersionManager::apply_record(const VmRecord& rec) {
  if (rec.kind == VmRecord::Kind::create) {
    BlobState b;
    b.id = BlobId{rec.blob};
    b.chunk_size = rec.chunk_size;
    b.replication = rec.replication;
    b.base_replication = rec.replication;
    b.created_at = rec.created_at;
    b.ttl = rec.ttl;
    next_blob_ = std::max(next_blob_, rec.blob + 1);
    blobs_.insert_or_assign(rec.blob, std::move(b));
    return;
  }
  auto it = blobs_.find(rec.blob);
  if (it == blobs_.end()) return;
  BlobState& b = it->second;
  switch (rec.kind) {
    case VmRecord::Kind::start: {
      PendingWrite w;
      w.extent = rec.extent;
      w.end_bytes = rec.bytes;
      w.root_chunks = rec.extent.root_chunks;
      w.lease_from = node_.cluster().sim().now();
      b.history.push_back(rec.extent);
      (void)b.max_versions.add(rec.extent);
      b.pending.emplace(rec.version, std::move(w));
      b.next_version = std::max(b.next_version, rec.version + 1);
      b.reserved_end = std::max(b.reserved_end, rec.bytes);
      break;
    }
    case VmRecord::Kind::publish: {
      VersionInfo info;
      info.version = rec.version;
      info.size = rec.bytes;
      info.root_chunks = rec.extent.root_chunks;
      b.published.insert_or_assign(rec.version, info);
      b.latest = rec.version;  // publish records land in version order
      b.latest_size = info.size;
      b.pending.erase(rec.version);
      break;
    }
    case VmRecord::Kind::abort: {
      b.pending.erase(rec.version);
      remove_from_history(b, rec.version);
      ++b.abort_epoch;
      recompute_frontier(b);
      break;
    }
    case VmRecord::Kind::trim_mark:
      b.trimmed.insert(rec.version);
      b.published.erase(rec.version);
      break;
    case VmRecord::Kind::set_replication:
      b.replication = rec.replication;
      break;
    case VmRecord::Kind::delete_blob:
      b.deleted = true;
      b.max_versions = {};
      break;
    case VmRecord::Kind::frontier:
      b.next_version = std::max(b.next_version, rec.version);
      b.reserved_end = rec.bytes;
      b.abort_epoch = rec.epoch;
      break;
    case VmRecord::Kind::create:
      break;  // handled above
  }
}

std::vector<Journal<VersionManager::VmRecord>::Entry>
VersionManager::encode_checkpoint(
    std::vector<Journal<VmRecord>::Entry> image,
    const std::vector<Journal<VmRecord>::Entry>&) const {
  // Re-encodes blob state as the record sequence that rebuilds it; blobs_
  // and every per-blob container are ordered, so the image is
  // deterministic. In-flight commit decisions are deliberately not encoded
  // (a surviving writer just retries; the commit path is idempotent). The
  // image is built in the previous one's buffer.
  image.clear();
  for (const auto& [id, b] : blobs_) {
    auto push = [&](VmRecord rec) {
      rec.blob = id;
      image.push_back({rec, record_bytes(rec)});
    };
    VmRecord create;
    create.kind = VmRecord::Kind::create;
    create.chunk_size = b.chunk_size;
    create.replication = b.base_replication;
    create.created_at = b.created_at;
    create.ttl = b.ttl;
    push(create);
    if (b.replication != b.base_replication) {
      VmRecord rep;
      rep.kind = VmRecord::Kind::set_replication;
      rep.replication = b.replication;
      push(rep);
    }
    for (const WriteExtent& e : b.history) {
      VmRecord start;
      start.kind = VmRecord::Kind::start;
      start.version = e.version;
      start.extent = e;
      start.bytes = reservation_end(b, e);
      push(start);
    }
    for (const auto& [v, info] : b.published) {
      VmRecord pub;
      pub.kind = VmRecord::Kind::publish;
      pub.version = v;
      pub.bytes = info.size;
      pub.extent.root_chunks = info.root_chunks;
      push(pub);
    }
    for (Version v : b.trimmed) {
      VmRecord trim;
      trim.kind = VmRecord::Kind::trim_mark;
      trim.version = v;
      push(trim);
    }
    if (b.deleted) {
      VmRecord del;
      del.kind = VmRecord::Kind::delete_blob;
      push(del);
    }
    VmRecord frontier;
    frontier.kind = VmRecord::Kind::frontier;
    frontier.version = b.next_version;
    frontier.bytes = b.reserved_end;
    frontier.epoch = b.abort_epoch;
    push(frontier);
  }
  return image;
}

void VersionManager::start_lease_sweeper() {
  sweeper_enabled_ = true;
  if (sweeper_running_) return;
  sweeper_running_ = true;
  node_.cluster().sim().spawn(lease_sweeper_loop());
}

sim::Task<void> VersionManager::lease_sweeper_loop() {
  auto& sim = node_.cluster().sim();
  while (node_.up()) {
    co_await sim.delay(opts_.sweep_interval);
    if (!node_.up()) break;
    const SimTime now = sim.now();
    for (auto& [id, b] : blobs_) {
      std::vector<Version> settled;
      std::vector<Version> expired;
      for (auto& [v, w] : b.pending) {
        if (now - w.lease_from <= opts_.write_lease) continue;
        if (w.published) {
          // Decision was made but the response never reached the writer
          // (crash, dropped reply). The version is live; only the
          // bookkeeping entry is stale.
          settled.push_back(v);
        } else if (!w.committed) {
          // Orphan: the writer went away between StartWrite and commit.
          // It blocks ordered publication of every later version.
          expired.push_back(v);
        }
      }
      for (Version v : settled) b.pending.erase(v);
      for (Version v : expired) {
        ++leases_expired_;
        obs::count("vm.leases_expired");
        if (auto* ts = obs::sink()) {
          ts->instant("vm.lease_expired", "vm", 0, "",
                      {"blob", static_cast<std::int64_t>(id)},
                      {"version", static_cast<std::int64_t>(v)});
        }
        BS_INFO("vm", "write lease expired for v%llu of blob %llu",
                (unsigned long long)v, (unsigned long long)id);
        force_abort(b, v);
      }
    }
  }
  sweeper_running_ = false;
}

std::vector<VersionInfo> VersionManager::versions_of(BlobId blob) const {
  std::vector<VersionInfo> out;
  auto it = blobs_.find(blob.value);
  if (it == blobs_.end()) return out;
  out.reserve(it->second.published.size());
  for (const auto& [v, info] : it->second.published) out.push_back(info);
  return out;
}

std::size_t VersionManager::pending_writes() const {
  std::size_t n = 0;
  for (const auto& [id, b] : blobs_) n += b.pending.size();
  return n;
}

void VersionManager::register_handlers() {
  durable_.serve<CreateBlobReq, CreateBlobResp>(
      [this](const CreateBlobReq& req,
             const rpc::Envelope&) -> sim::Task<Result<CreateBlobResp>> {
        if (req.chunk_size == 0) {
          co_return Error{Errc::invalid_argument, "chunk_size must be > 0"};
        }
        if (req.replication == 0) {
          co_return Error{Errc::invalid_argument, "replication must be >= 1"};
        }
        BlobState b;
        b.id = BlobId{next_blob_++};
        b.chunk_size = req.chunk_size;
        b.replication = req.replication;
        b.base_replication = req.replication;
        b.created_at = node_.cluster().sim().now();
        b.ttl = req.ttl;
        const BlobId id = b.id;
        VmRecord rec;
        rec.kind = VmRecord::Kind::create;
        rec.blob = id.value;
        rec.chunk_size = b.chunk_size;
        rec.replication = b.replication;
        rec.created_at = b.created_at;
        rec.ttl = b.ttl;
        blobs_.emplace(id.value, std::move(b));
        auto sealed = co_await durable_.commit(rec);
        if (!sealed.ok()) co_return sealed.error();
        co_return CreateBlobResp{id};
      });

  durable_.serve<BlobInfoReq, BlobInfoResp>(
      [this](const BlobInfoReq& req,
             const rpc::Envelope&) -> sim::Task<Result<BlobInfoResp>> {
        auto it = blobs_.find(req.blob.value);
        if (it == blobs_.end()) {
          co_return Error{Errc::not_found, "unknown blob"};
        }
        const BlobState& b = it->second;
        if (b.deleted) {
          co_return Error{Errc::not_found, "blob deleted"};
        }
        BlobInfoResp resp;
        resp.descriptor = descriptor_of(b);
        if (req.version == kLatestVersion) {
          resp.at = resp.descriptor.latest;
        } else if (req.version == 0) {
          resp.at = VersionInfo{0, 0, 0};
        } else {
          auto pit = b.published.find(req.version);
          if (pit == b.published.end()) {
            co_return Error{Errc::not_found, "version not published"};
          }
          resp.at = pit->second;
        }
        co_return resp;
      });

  durable_.serve<StartWriteReq, StartWriteResp>(
      [this](const StartWriteReq& req, const rpc::Envelope& env) {
        return handle_start(req, env.client);
      });
  durable_.serve<CommitWriteReq, CommitWriteResp>(
      [this](const CommitWriteReq& req, const rpc::Envelope&) {
        return handle_commit(req);
      });
  durable_.serve<AbortWriteReq, AbortWriteResp>(
      [this](const AbortWriteReq& req, const rpc::Envelope&) {
        return handle_abort(req);
      });

  durable_.serve<ListBlobsReq, ListBlobsResp>(
      [this](const ListBlobsReq&,
             const rpc::Envelope&) -> sim::Task<Result<ListBlobsResp>> {
        ListBlobsResp resp;
        for (const auto& [id, b] : blobs_) {
          if (!b.deleted) resp.blobs.push_back(descriptor_of(b));
        }
        co_return resp;
      });

  durable_.serve<BlobVersionsReq, BlobVersionsResp>(
      [this](const BlobVersionsReq& req,
             const rpc::Envelope&) -> sim::Task<Result<BlobVersionsResp>> {
        auto it = blobs_.find(req.blob.value);
        if (it == blobs_.end()) {
          co_return Error{Errc::not_found, "unknown blob"};
        }
        BlobVersionsResp resp;
        resp.versions = versions_of(req.blob);
        co_return resp;
      });

  durable_.serve<TrimBlobReq, TrimBlobResp>(
      [this](const TrimBlobReq& req,
             const rpc::Envelope&) -> sim::Task<Result<TrimBlobResp>> {
        auto it = blobs_.find(req.blob.value);
        if (it == blobs_.end()) {
          co_return Error{Errc::not_found, "unknown blob"};
        }
        BlobState& b = it->second;
        if (b.deleted) co_return Error{Errc::not_found, "blob deleted"};
        // The oldest version we keep; everything before it goes.
        auto first_kept = b.published.lower_bound(req.keep_from);
        if (first_kept == b.published.end()) {
          co_return Error{Errc::invalid_argument,
                          "cannot trim away every published version"};
        }
        const Version kept = first_kept->first;
        // Pending writes below the keep point would race the trim.
        for (const auto& [pv, pw] : b.pending) {
          if (pv < kept) {
            co_return Error{Errc::conflict,
                            "pending write below trim point"};
          }
        }
        TrimBlobResp resp;
        std::vector<Version> removed;
        for (auto pit = b.published.begin(); pit != first_kept;) {
          const Version v = pit->first;
          removed.push_back(v);
          // Chunks of v not visible in the first kept snapshot are
          // unreferenced by every kept snapshot (owners only move forward).
          const WriteExtent* ext = nullptr;
          for (const auto& e : b.history) {
            if (e.version == v) {
              ext = &e;
              break;
            }
          }
          if (ext != nullptr) {
            for (std::uint64_t i = 0; i < ext->chunk_count; ++i) {
              const std::uint64_t idx = ext->first_chunk + i;
              if (meta_ops::subtree_version(b.history, kept, idx, 1) != v) {
                resp.unreferenced.push_back(ChunkKey{b.id, v, idx});
              }
            }
            // Metadata GC: every tree node v created whose range is owned
            // by a later version at the first kept snapshot is unreachable
            // from all kept snapshots (owners only move forward).
            for (const auto& [lo, count] :
                 meta_ops::node_ranges(*ext, b.history, ext->root_chunks)) {
              if (meta_ops::subtree_version(b.history, kept, lo, count) !=
                  v) {
                resp.removable_nodes.push_back(NodeKey{b.id, v, lo, count});
              }
            }
          }
          b.trimmed.insert(v);
          ++resp.versions_removed;
          pit = b.published.erase(pit);
        }
        // One trim_mark per removed version (walked in version order),
        // sealed by a single group-commit fsync.
        std::vector<VmRecord> marks(removed.size());
        for (std::size_t i = 0; i < removed.size(); ++i) {
          marks[i].kind = VmRecord::Kind::trim_mark;
          marks[i].blob = req.blob.value;
          marks[i].version = removed[i];
        }
        auto sealed = co_await durable_.commit(std::move(marks));
        if (!sealed.ok()) co_return sealed.error();
        if (geo_hooks_.trimmed) {
          for (Version v : removed) geo_hooks_.trimmed(req.blob, v);
        }
        co_return resp;
      });

  durable_.serve<SetReplicationReq, SetReplicationResp>(
      [this](const SetReplicationReq& req,
             const rpc::Envelope&) -> sim::Task<Result<SetReplicationResp>> {
        auto it = blobs_.find(req.blob.value);
        if (it == blobs_.end()) {
          co_return Error{Errc::not_found, "unknown blob"};
        }
        if (req.replication == 0) {
          co_return Error{Errc::invalid_argument, "replication must be >= 1"};
        }
        it->second.replication = req.replication;
        VmRecord rec;
        rec.kind = VmRecord::Kind::set_replication;
        rec.blob = req.blob.value;
        rec.replication = req.replication;
        auto sealed = co_await durable_.commit(rec);
        if (!sealed.ok()) co_return sealed.error();
        co_return SetReplicationResp{};
      });

  durable_.serve<DeleteBlobReq, DeleteBlobResp>(
      [this](const DeleteBlobReq& req,
             const rpc::Envelope&) -> sim::Task<Result<DeleteBlobResp>> {
        auto it = blobs_.find(req.blob.value);
        if (it == blobs_.end()) {
          co_return Error{Errc::not_found, "unknown blob"};
        }
        it->second.deleted = true;
        it->second.max_versions = {};  // no write starts any more
        VmRecord rec;
        rec.kind = VmRecord::Kind::delete_blob;
        rec.blob = req.blob.value;
        auto sealed = co_await durable_.commit(rec);
        if (!sealed.ok()) co_return sealed.error();
        if (geo_hooks_.deleted) geo_hooks_.deleted(req.blob);
        co_return DeleteBlobResp{};
      });
}

sim::Task<Result<StartWriteResp>> VersionManager::handle_start(
    StartWriteReq req, ClientId writer) {
  auto it = blobs_.find(req.blob.value);
  if (it == blobs_.end()) co_return Error{Errc::not_found, "unknown blob"};
  BlobState& b = it->second;
  if (b.deleted) co_return Error{Errc::not_found, "blob deleted"};
  if (req.size == 0) {
    co_return Error{Errc::invalid_argument, "empty write"};
  }
  std::uint64_t offset = req.offset;
  if (offset == kAppendOffset) {
    offset = div_ceil(b.reserved_end, b.chunk_size) * b.chunk_size;
  } else if (offset % b.chunk_size != 0) {
    co_return Error{Errc::invalid_argument,
                    "write offset must be chunk-aligned"};
  }

  const Version v = b.next_version++;
  PendingWrite w;
  w.extent.version = v;
  w.extent.first_chunk = offset / b.chunk_size;
  w.extent.chunk_count = div_ceil(req.size, b.chunk_size);
  w.end_bytes = offset + req.size;
  w.writer = writer;
  w.lease_from = node_.cluster().sim().now();
  b.reserved_end = std::max(b.reserved_end, w.end_bytes);
  w.root_chunks = next_pow2(div_ceil(b.reserved_end, b.chunk_size));
  w.extent.root_chunks = w.root_chunks;

  StartWriteResp resp;
  resp.version = v;
  resp.chunk_size = b.chunk_size;
  resp.replication = b.replication;
  resp.offset = offset;
  resp.first_chunk = w.extent.first_chunk;
  resp.chunk_count = w.extent.chunk_count;
  resp.root_chunks = w.root_chunks;
  resp.abort_epoch = b.abort_epoch;
  resp.history_len = b.history.size();  // every write so far is below v
  resp.borders = b.max_versions.add(w.extent);
  assert(resp.borders ==
         meta_ops::border_versions(b.history, w.extent, w.root_chunks));

  VmRecord rec;
  rec.kind = VmRecord::Kind::start;
  rec.blob = req.blob.value;
  rec.version = v;
  rec.extent = w.extent;
  rec.bytes = w.end_bytes;
  b.history.push_back(w.extent);
  b.pending.emplace(v, std::move(w));
  // The reservation must be durable before the writer sees it: a version
  // number handed out and then forgotten by a crash would be reused.
  auto sealed = co_await durable_.commit(rec);
  if (!sealed.ok()) co_return sealed.error();
  co_return resp;
}

sim::Task<Result<CommitWriteResp>> VersionManager::handle_commit(
    CommitWriteReq req) {
  auto it = blobs_.find(req.blob.value);
  if (it == blobs_.end()) co_return Error{Errc::not_found, "unknown blob"};
  BlobState& b = it->second;
  auto pit = b.pending.find(req.version);
  if (pit == b.pending.end()) {
    // Idempotent commit: a retry after a lost CommitWriteResp must report
    // the outcome the first commit produced, not a spurious conflict.
    if (auto pub = b.published.find(req.version); pub != b.published.end()) {
      co_return co_await reply_published(pub->second);
    }
    co_return Error{Errc::conflict, "no such pending write"};
  }
  PendingWrite& w = pit->second;
  w.lease_from = node_.cluster().sim().now();
  if (!w.committed || !w.decision || w.decision->is_set()) {
    w.committed = true;
    w.committed_epoch = req.abort_epoch;
    w.published = false;
    w.rebuild = false;
    w.decision = std::make_shared<sim::Event>(node_.cluster().sim());
    try_publish(b);
  }
  // else: a duplicate of an in-flight commit — share its pending decision.
  auto decision = w.decision;  // keeps the event alive across the wait
  co_await decision->wait();

  // Re-resolve everything: while waiting, the blob map may have rehashed,
  // the pending entry may have been erased (abort, lease expiry, a faster
  // duplicate) or the decision may have been superseded.
  it = blobs_.find(req.blob.value);
  if (it == blobs_.end()) co_return Error{Errc::not_found, "unknown blob"};
  BlobState& b2 = it->second;
  pit = b2.pending.find(req.version);
  if (pit == b2.pending.end()) {
    if (auto pub = b2.published.find(req.version); pub != b2.published.end()) {
      co_return co_await reply_published(pub->second);
    }
    co_return Error{Errc::conflict, "write aborted before publication"};
  }
  PendingWrite& w2 = pit->second;
  if (w2.published) {
    // publish_one appended the publish record synchronously.
    b2.pending.erase(pit);
    co_return co_await reply_published(b2.published.at(req.version));
  }
  CommitWriteResp resp;
  resp.rebuild_needed = true;
  resp.abort_epoch = b2.abort_epoch;
  resp.borders = meta_ops::border_versions(b2.history, w2.extent,
                                           w2.root_chunks);
  resp.history_len = static_cast<std::uint64_t>(
      std::count_if(b2.history.begin(), b2.history.end(),
                    [&](const WriteExtent& e) {
                      return e.version < req.version;
                    }));
  w2.committed = false;  // awaiting re-commit after the rebuild
  w2.lease_from = node_.cluster().sim().now();
  co_return resp;
}

sim::Task<Result<CommitWriteResp>> VersionManager::reply_published(
    VersionInfo info) {
  auto sealed = co_await durable_.commit_tail();
  if (!sealed.ok()) co_return sealed.error();
  CommitWriteResp resp;
  resp.published = true;
  resp.info = info;
  co_return resp;
}

sim::Task<Result<AbortWriteResp>> VersionManager::handle_abort(
    AbortWriteReq req) {
  auto it = blobs_.find(req.blob.value);
  if (it == blobs_.end()) co_return Error{Errc::not_found, "unknown blob"};
  BlobState& b = it->second;
  auto pit = b.pending.find(req.version);
  if (pit == b.pending.end()) {
    co_return Error{Errc::conflict, "no such pending write"};
  }
  if (pit->second.committed) {
    co_return Error{Errc::conflict, "write already committed"};
  }
  BS_INFO("vm", "write v%llu of blob %llu aborted (epoch %llu)",
          (unsigned long long)req.version,
          (unsigned long long)req.blob.value,
          (unsigned long long)(b.abort_epoch + 1));
  force_abort(b, req.version);
  // force_abort appended the abort record; an acked abort must survive a
  // crash (the version must not resurrect as pending).
  auto sealed = co_await durable_.commit_tail();
  if (!sealed.ok()) co_return sealed.error();
  co_return AbortWriteResp{};
}

void VersionManager::force_abort(BlobState& b, Version v) {
  auto pit = b.pending.find(v);
  if (pit == b.pending.end()) return;
  obs::count("vm.writes_aborted");
  if (auto* ts = obs::sink()) {
    ts->instant("vm.write_aborted", "vm", 0, "",
                {"blob", static_cast<std::int64_t>(b.id.value)},
                {"version", static_cast<std::int64_t>(v)});
  }
  BS_WARN("vm", "aborting pending v%llu of blob %llu",
          (unsigned long long)v, (unsigned long long)b.id.value);
  // Wake any commit handler still parked on this write's decision; it will
  // re-resolve the state and report the abort as a conflict.
  if (pit->second.decision && !pit->second.decision->is_set()) {
    pit->second.decision->set();
  }
  b.pending.erase(pit);
  remove_from_history(b, v);
  ++b.abort_epoch;
  // Appended here (synchronous call sites: abort handler, lease sweeper);
  // sealed by the next group-commit fsync. A lease-expiry abort lost to a
  // crash just expires again after replay.
  VmRecord rec;
  rec.kind = VmRecord::Kind::abort;
  rec.blob = b.id.value;
  rec.version = v;
  durable_.append(rec);
  recompute_frontier(b);
  try_publish(b);
}

std::uint64_t VersionManager::reservation_end(const BlobState& b,
                                              const WriteExtent& e) {
  auto pend = b.pending.find(e.version);
  return pend != b.pending.end()
             ? pend->second.end_bytes
             : (e.first_chunk + e.chunk_count) * b.chunk_size;
}

void VersionManager::recompute_frontier(BlobState& b) {
  std::uint64_t end = b.latest_size;
  for (const auto& e : b.history) end = std::max(end, reservation_end(b, e));
  b.reserved_end = end;
}

BlobDescriptor VersionManager::descriptor_of(const BlobState& b) {
  BlobDescriptor d;
  d.id = b.id;
  d.chunk_size = b.chunk_size;
  d.replication = b.replication;
  d.base_replication = b.base_replication;
  d.created_at = b.created_at;
  d.ttl = b.ttl;
  d.latest = b.latest == 0 ? VersionInfo{0, 0, 0} : b.published.at(b.latest);
  return d;
}

void VersionManager::remove_from_history(BlobState& b, Version v) {
  auto it = std::find_if(b.history.begin(), b.history.end(),
                         [v](const WriteExtent& e) { return e.version == v; });
  if (it == b.history.end()) return;
  const WriteExtent gone = *it;
  b.history.erase(it);
  b.max_versions.remove(gone, b.history);
}

void VersionManager::try_publish(BlobState& b) {
  for (auto& [v, w] : b.pending) {
    if (w.published) continue;  // settled, response in flight
    if (!w.committed) break;    // ordered publication: wait for this writer
    if (w.committed_epoch != b.abort_epoch) {
      // An abort invalidated this writer's forward references; ask it to
      // rebuild. Publication of later versions stalls until it does.
      if (w.decision && !w.decision->is_set()) {
        w.rebuild = true;
        w.decision->set();
      }
      break;
    }
    publish_one(b, v, w);
    w.published = true;
    w.decision->set();
  }
}

void VersionManager::publish_one(BlobState& b, Version v, PendingWrite& w) {
  VersionInfo info;
  info.version = v;
  info.size = std::max(b.latest_size, w.end_bytes);
  info.root_chunks = w.root_chunks;
  b.published.emplace(v, info);
  b.latest = v;
  b.latest_size = info.size;
  // Volatile until the commit handler's group-commit fsync; the writer is
  // only acked after that barrier.
  VmRecord rec;
  rec.kind = VmRecord::Kind::publish;
  rec.blob = b.id.value;
  rec.version = v;
  rec.bytes = info.size;
  rec.extent = w.extent;
  durable_.append(rec);
  obs::count("vm.versions_published");
  if (auto* ts = obs::sink()) {
    ts->instant("vm.publish", "vm", 0, "",
                {"blob", static_cast<std::int64_t>(b.id.value)},
                {"version", static_cast<std::int64_t>(v)});
  }
  BS_DEBUG("vm", "published v%llu of blob %llu (%llu bytes)",
           (unsigned long long)v, (unsigned long long)b.id.value,
           (unsigned long long)info.size);
  if (publish_observer_) {
    PublishEvent ev;
    ev.blob = b.id;
    ev.version = v;
    ev.size = info.size;
    ev.written_bytes = w.end_bytes - w.extent.first_chunk * b.chunk_size;
    ev.writer = w.writer;
    publish_observer_(ev);
  }
  if (geo_hooks_.published) geo_hooks_.published(b.id, v, info.size);
}

std::vector<VersionManager::PublishedVersion>
VersionManager::published_snapshot() const {
  std::vector<PublishedVersion> out;
  for (const auto& [id, b] : blobs_) {
    if (b.deleted) continue;
    for (const auto& [v, info] : b.published) {
      out.push_back(PublishedVersion{b.id, v, info.size});
    }
  }
  return out;
}

}  // namespace bs::blob
