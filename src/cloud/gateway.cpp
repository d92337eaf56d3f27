#include "cloud/gateway.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bs::cloud {

namespace {
constexpr std::uint32_t kGetParallelism = 8;  ///< store-chunk fetches per GET
/// Hard cap on a list_objects page (AWS S3 uses 1000).
constexpr std::uint64_t kMaxKeysCap = 1000;
/// Identity that owns the shared chunk-store blob and chunk reclamation.
constexpr ClientId kStoreIdentity{0x5707E};
}  // namespace

S3Gateway::S3Gateway(rpc::Node& node, blob::BlobClient::Endpoints endpoints,
                     GatewayOptions options)
    : node_(node), endpoints_(std::move(endpoints)),
      options_(std::move(options)),
      durable_(node, options_.journal, *this, "recovering") {
  register_handlers();
  // Journaled, handlers suspended mid-await across a crash keep running as
  // zombies (the RPC layer discards their results): every handler
  // re-checks the node incarnation after each await and bails before
  // touching rebuilt state.
  node_.add_crash_listener([this](const rpc::CrashOptions& c) {
    if (!durable_.crash(c) && c.lose_storage) wipe();
  });
  node_.add_restart_listener([this] { durable_.restart(); });
}

void S3Gateway::wipe() {
  buckets_.clear();
  chunk_index_.clear();
  mpus_.clear();
  // Wake every coroutine parked on an in-flight store so it can observe
  // the incarnation change and bail. The per-user BlobClients are NOT
  // destroyed: zombie handler frames still reference them, and they hold
  // no durable state.
  for (auto& [hash, ev] : pending_stores_) ev->set();
  pending_stores_.clear();
  if (store_creating_) {
    store_creating_->set();
    store_creating_.reset();
  }
  store_blob_ = BlobId{};
  nonce_ = 0;
  next_upload_id_ = 1;
}

// ------------------------------------------------------------ user clients

blob::BlobClient& S3Gateway::user_client(ClientId user) {
  return clients_
      .try_emplace(user.value, node_, user, endpoints_, blob::ClientConfig{},
                   /*rng_seed=*/0x53C4E7 + user.value)
      .first->second;
}

// ----------------------------------------------------------------- buckets

Result<S3Gateway::Bucket*> S3Gateway::bucket_checked(const std::string& name,
                                                     ClientId who,
                                                     Permission want) {
  auto it = buckets_.find(name);
  if (it == buckets_.end()) {
    return Error{Errc::not_found, "no such bucket: " + name};
  }
  if (!it->second.acl.check(who, want)) {
    return Error{Errc::permission_denied, "access denied to " + name};
  }
  return &it->second;
}

S3Gateway::Bucket* S3Gateway::find_bucket(const std::string& name) {
  auto it = buckets_.find(name);
  return it == buckets_.end() ? nullptr : &it->second;
}

Result<S3Gateway::Mpu*> S3Gateway::mpu_checked(std::uint64_t upload_id,
                                               const std::string& bucket,
                                               const std::string& key,
                                               ClientId who) {
  auto it = mpus_.find(upload_id);
  if (it == mpus_.end() || it->second.bucket != bucket ||
      it->second.key != key) {
    return Error{Errc::not_found, "no such multipart upload"};
  }
  if (it->second.owner != who) {
    return Error{Errc::permission_denied, "not the upload owner"};
  }
  return &it->second;
}

// --------------------------------------------------------------- chunking

Result<std::vector<blob::Payload>> S3Gateway::split_payload(
    const blob::Payload& payload,
    const std::vector<std::uint64_t>& chunk_sums) const {
  const std::uint64_t cs = options_.object_chunk_size;
  const std::uint64_t n = blob::div_ceil(payload.size, cs);
  if (!chunk_sums.empty() && chunk_sums.size() != n) {
    return Error{Errc::invalid_argument,
                 "chunk_sums size does not match chunk count"};
  }
  std::vector<blob::Payload> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    blob::Payload p = payload.chunk(i, cs);
    if (!payload.bytes && !chunk_sums.empty()) p.checksum = chunk_sums[i];
    out.push_back(std::move(p));
  }
  return out;
}

std::uint64_t S3Gateway::chunk_hash(const blob::Payload& p) const {
  // Content address: checksum x size. Size folds in so a short chunk never
  // collides with a full chunk that shares a checksum prefix.
  return hash_combine(p.checksum, p.size);
}

sim::Task<Result<BlobId>> S3Gateway::ensure_store_blob() {
  const std::uint64_t inc = node_.incarnation();
  while (!store_blob_.valid()) {
    if (store_creating_) {
      auto ev = store_creating_;
      co_await ev->wait();
      if (node_.incarnation() != inc || recovering()) {
        co_return Error{Errc::unavailable, "gateway restarted"};
      }
      continue;
    }
    store_creating_ = std::make_shared<sim::Event>(node_.cluster().sim());
    auto ev = store_creating_;
    auto created = co_await user_client(kStoreIdentity)
                       .create(options_.object_chunk_size,
                               options_.replication);
    if (node_.incarnation() != inc || recovering()) {
      ev->set();  // wake fellow zombies so they bail too
      co_return Error{Errc::unavailable, "gateway restarted"};
    }
    if (store_creating_ == ev) store_creating_.reset();
    ev->set();
    if (!created.ok()) co_return created.error();
    store_blob_ = created.value();
    GwRecord rec;
    rec.kind = GwRecord::Kind::store_blob;
    rec.a = store_blob_.value;
    auto sealed = co_await durable_.commit(std::move(rec));
    if (!sealed.ok()) co_return sealed.error();
  }
  co_return store_blob_;
}

// bslint: allow(coro-ref-param): client is a per-user client, which the
// gateway keeps for its life
// bslint: allow(perf-large-byvalue): every caller moves the freshly split
// batch; Payload bodies are shared_ptr-backed either way
sim::Task<Result<S3Gateway::IngestResult>> S3Gateway::ingest_chunks(
    blob::BlobClient& client, std::vector<blob::Payload> chunks) {
  const std::uint64_t inc = node_.incarnation();
  const std::uint64_t cs = options_.object_chunk_size;

  auto sb = co_await ensure_store_blob();
  if (!sb.ok()) co_return sb.error();
  if (node_.incarnation() != inc || recovering()) {
    co_return Error{Errc::unavailable, "gateway restarted"};
  }

  IngestResult out;
  out.manifest.resize(chunks.size());
  struct Miss {
    std::size_t first;                ///< chunk position that stores it
    std::uint64_t nonce{0};           ///< dedup-off uniquifier
    std::vector<std::size_t> extras;  ///< same-hash positions in this batch
  };
  std::vector<std::uint64_t> miss_order;
  std::map<std::uint64_t, Miss> misses;
  std::vector<std::size_t> pinned;  ///< positions holding a dedup-hit pin

  // Roll back every hold this ingest has taken so far (pre-commit failure
  // on a live incarnation only — after a crash the index died with it).
  auto rollback = [&] {
    std::vector<ChunkIndex::Entry> reclaims;
    for (std::size_t i : pinned) {
      if (auto r = chunk_index_.unpin(out.manifest[i])) {
        reclaims.push_back(std::move(*r));
      }
    }
    for (std::uint64_t h : miss_order) {
      auto pit = pending_stores_.find(h);
      if (pit != pending_stores_.end()) {
        auto ev = pit->second;
        pending_stores_.erase(pit);
        ev->set();  // waiters re-resolve and store it themselves
      }
    }
    reclaim(std::move(reclaims));
  };

  for (std::size_t i = 0; i < chunks.size(); ++i) {
    std::uint64_t h = chunk_hash(chunks[i]);
    std::uint64_t nonce = 0;
    if (!options_.dedup) {
      // Ablation baseline: uniquify every chunk so no sharing happens but
      // the manifest/refcount machinery stays identical.
      nonce = ++nonce_;
      h = hash_combine(h, nonce);
    }
    for (;;) {
      ChunkIndex::Entry* e = chunk_index_.find(h);
      if (e != nullptr) {
        if (!e->verified) {
          // Recovered entry: the providers may have been wiped while the
          // gateway journal survived. Probe before trusting the hit.
          chunk_index_.pin(h);
          auto present =
              co_await client.chunk_present(e->ref.store_key(), e->replicas);
          if (node_.incarnation() != inc || recovering()) {
            co_return Error{Errc::unavailable, "gateway restarted"};
          }
          ChunkIndex::Entry* e2 = chunk_index_.find(h);
          if (e2 == nullptr) continue;  // dropped meanwhile; resolve again
          if (present.ok() && present.value()) {
            e2->verified = true;
            // Keep our pin as this occurrence's hold.
          } else {
            // The stored chunk is gone: drop the entry (later releases of
            // the hash become no-ops) and store this content fresh.
            --e2->pending;
            chunk_index_.drop(h);
            obs::count("gateway.verify_drops");
            continue;
          }
          e = e2;
        } else {
          chunk_index_.pin(h);
        }
        out.manifest[i] = e->ref;
        pinned.push_back(i);
        ++out.hits;
        out.bytes_saved += chunks[i].size;
        break;
      }
      if (auto mit = misses.find(h); mit != misses.end()) {
        // Same content twice in this batch: the first occurrence stores
        // it; this one shares the entry once it lands.
        mit->second.extras.push_back(i);
        break;
      }
      if (auto pit = pending_stores_.find(h); pit != pending_stores_.end()) {
        auto ev = pit->second;
        co_await ev->wait();
        if (node_.incarnation() != inc || recovering()) {
          co_return Error{Errc::unavailable, "gateway restarted"};
        }
        continue;  // the storer finished (or failed); re-resolve
      }
      // First writer of this content: claim the store.
      pending_stores_.emplace(
          h, std::make_shared<sim::Event>(node_.cluster().sim()));
      Miss m;
      m.first = i;
      m.nonce = nonce;
      misses.emplace(h, std::move(m));
      miss_order.push_back(h);
      break;
    }
  }

  if (!miss_order.empty()) {
    std::vector<blob::Payload> payloads;
    payloads.reserve(miss_order.size());
    for (std::uint64_t h : miss_order) {
      payloads.push_back(chunks[misses[h].first]);
    }
    auto receipt =
        co_await client.append_chunks(store_blob_, cs, std::move(payloads));
    if (node_.incarnation() != inc || recovering()) {
      // The crash wiped the index and the pending-store map; waiters were
      // woken by the crash listener. Nothing of ours survived to clean up.
      co_return Error{Errc::unavailable, "gateway restarted"};
    }
    if (!receipt.ok()) {
      rollback();
      co_return receipt.error();
    }
    const auto& stored = receipt.value().chunks;
    for (std::size_t k = 0; k < miss_order.size(); ++k) {
      const std::uint64_t h = miss_order[k];
      Miss& m = misses[h];
      ChunkRef ref;
      ref.hash = h;
      ref.size = chunks[m.first].size;
      ref.checksum = chunks[m.first].checksum;
      ref.store_blob = store_blob_;
      ref.store_version = stored[k].key.version;
      ref.store_index = stored[k].key.index;
      chunk_index_.insert(ref, stored[k].replicas);
      out.manifest[m.first] = ref;
      ++out.misses;
      out.bytes_stored += ref.size;
      for (std::size_t extra : m.extras) {
        chunk_index_.pin(h);
        out.manifest[extra] = ref;
        ++out.hits;
        out.bytes_saved += ref.size;
      }
      GwRecord rec;
      rec.kind = GwRecord::Kind::index_insert;
      rec.b = m.nonce;
      rec.manifest.push_back(ref);
      rec.replicas = stored[k].replicas;
      out.insert_records.push_back(std::move(rec));
      auto pit = pending_stores_.find(h);
      if (pit != pending_stores_.end()) {
        auto ev = pit->second;
        pending_stores_.erase(pit);
        ev->set();
      }
    }
  }

  stats_.chunks_ingested += chunks.size();
  stats_.dedup_hits += out.hits;
  stats_.dedup_misses += out.misses;
  stats_.bytes_saved += out.bytes_saved;
  stats_.bytes_to_providers += out.bytes_stored;
  obs::count("gateway.dedup_hits", out.hits);
  obs::count("gateway.dedup_misses", out.misses);
  obs::count("gateway.bytes_saved", out.bytes_saved);
  obs::count("gateway.bytes_to_providers", out.bytes_stored);
  co_return out;
}

void S3Gateway::rollback_ingest(const IngestResult& ing) {
  std::vector<ChunkIndex::Entry> reclaims;
  for (const ChunkRef& ref : ing.manifest) {
    if (auto r = chunk_index_.unpin(ref)) reclaims.push_back(std::move(*r));
  }
  reclaim(std::move(reclaims));
}

void S3Gateway::release_manifest(const std::vector<ChunkRef>& manifest,
                                 std::vector<GwRecord>& records,
                                 std::vector<ChunkIndex::Entry>& reclaims) {
  for (const ChunkRef& ref : manifest) {
    GwRecord rec;
    rec.kind = GwRecord::Kind::index_release;
    rec.a = ref.hash;
    rec.b = ref.store_index;
    records.push_back(std::move(rec));
    if (auto r = chunk_index_.release(ref)) reclaims.push_back(std::move(*r));
  }
}

void S3Gateway::commit_manifest(const std::vector<ChunkRef>& manifest,
                                std::vector<GwRecord>& records) {
  for (const ChunkRef& ref : manifest) {
    chunk_index_.commit_ref(ref);
    GwRecord rec;
    rec.kind = GwRecord::Kind::index_ref;
    rec.a = ref.hash;
    rec.b = ref.store_index;
    records.push_back(std::move(rec));
  }
}

blob::Version S3Gateway::install_object(
    Bucket& b, ObjectInfo info, const std::vector<ChunkRef>& manifest,
    std::vector<GwRecord>& records, std::vector<ChunkIndex::Entry>& reclaims) {
  info.last_modified = node_.cluster().sim().now();
  info.blob = store_blob_;
  auto oit = b.objects.find(info.key);
  if (oit != b.objects.end()) {
    info.version = oit->second.info.version + 1;
    release_manifest(oit->second.manifest, records, reclaims);
    b.info.total_bytes -= oit->second.info.size;
    oit->second.info = info;
    oit->second.manifest = manifest;
  } else {
    info.version = 1;
    b.objects.emplace(info.key, ObjectRecord{info, manifest});
    ++b.info.object_count;
  }
  b.info.total_bytes += info.size;
  GwRecord put;
  put.kind = GwRecord::Kind::put_object;
  put.bucket = b.info.name;
  put.key = info.key;
  put.info = info;
  put.manifest = manifest;
  records.push_back(std::move(put));
  return info.version;
}

void S3Gateway::reclaim(std::vector<ChunkIndex::Entry> entries) {
  for (const ChunkIndex::Entry& e : entries) {
    ++stats_.chunks_reclaimed;
    stats_.bytes_reclaimed += e.ref.size;
    obs::count("gateway.chunks_reclaimed");
    obs::count("gateway.bytes_reclaimed", e.ref.size);
    for (NodeId target : e.replicas) {
      // Fire-and-forget: reclamation is best-effort garbage collection; a
      // lost remove leaks a dead chunk on one provider, never corrupts.
      node_.cluster().sim().spawn(
          [](rpc::Node& n, NodeId t, blob::ChunkKey key,
             ClientId who) -> sim::Task<void> {
            blob::RemoveChunkReq req;
            req.key = key;
            rpc::CallOptions o;
            o.timeout = simtime::seconds(30);
            o.client = who;
            (void)co_await
                n.cluster().call<blob::RemoveChunkReq, blob::RemoveChunkResp>(
                    n, t, std::move(req), o);
          }(node_, target, e.ref.store_key(), kStoreIdentity));
    }
  }
}

// ----------------------------------------------------------------- journal

std::uint64_t S3Gateway::record_bytes(const GwRecord& rec) {
  // Metadata-only WAL: fixed header plus names, 48 B per manifest entry,
  // 8 B per replica id, 24 B per ACL grant. Chunk payload durability is
  // the data providers' journal's job, not the gateway's.
  return 48 + rec.bucket.size() + rec.key.size() + 48 * rec.manifest.size() +
         8 * rec.replicas.size() + 24 * rec.acl.grants.size();
}

void S3Gateway::apply_record(const GwRecord& rec) {
  switch (rec.kind) {
    case GwRecord::Kind::create_bucket: {
      Bucket b;
      b.info.name = rec.bucket;
      b.info.created_at = static_cast<SimTime>(rec.a);
      b.acl = rec.acl;
      buckets_[rec.bucket] = std::move(b);
      break;
    }
    case GwRecord::Kind::delete_bucket:
      buckets_.erase(rec.bucket);
      break;
    case GwRecord::Kind::set_acl:
      if (Bucket* b = find_bucket(rec.bucket)) b->acl = rec.acl;
      break;
    case GwRecord::Kind::put_object: {
      Bucket* b = find_bucket(rec.bucket);
      if (b == nullptr) break;
      auto [it, inserted] = b->objects.emplace(rec.key, ObjectRecord{});
      if (inserted) {
        ++b->info.object_count;
      } else {
        b->info.total_bytes -= it->second.info.size;
      }
      it->second.info = rec.info;
      it->second.manifest = rec.manifest;
      b->info.total_bytes += rec.info.size;
      break;
    }
    case GwRecord::Kind::delete_object: {
      Bucket* b = find_bucket(rec.bucket);
      if (b == nullptr) break;
      auto it = b->objects.find(rec.key);
      if (it == b->objects.end()) break;
      b->info.total_bytes -= it->second.info.size;
      --b->info.object_count;
      b->objects.erase(it);
      break;
    }
    case GwRecord::Kind::index_insert:
      chunk_index_.apply_insert(rec.manifest[0], rec.replicas, rec.c);
      nonce_ = std::max(nonce_, rec.b);
      break;
    case GwRecord::Kind::index_ref:
      chunk_index_.apply_ref(rec.a, rec.b);
      break;
    case GwRecord::Kind::index_release:
      chunk_index_.apply_release(rec.a, rec.b);
      break;
    case GwRecord::Kind::mpu_create: {
      Mpu m;
      m.bucket = rec.bucket;
      m.key = rec.key;
      m.owner = ClientId{rec.b};
      mpus_[rec.a] = std::move(m);
      next_upload_id_ = std::max(next_upload_id_, rec.a + 1);
      break;
    }
    case GwRecord::Kind::mpu_part: {
      auto it = mpus_.find(rec.a);
      if (it == mpus_.end()) break;
      PartInfo part;
      part.size = rec.info.size;
      part.etag = rec.info.etag;
      part.manifest = rec.manifest;
      it->second.parts[static_cast<std::uint32_t>(rec.b)] = std::move(part);
      break;
    }
    case GwRecord::Kind::mpu_drop:
      mpus_.erase(rec.a);
      break;
    case GwRecord::Kind::store_blob:
      store_blob_ = BlobId{rec.a};
      break;
    case GwRecord::Kind::counters:
      next_upload_id_ = std::max(next_upload_id_, rec.a);
      nonce_ = std::max(nonce_, rec.b);
      break;
  }
}

std::vector<blob::Journal<S3Gateway::GwRecord>::Entry>
S3Gateway::encode_checkpoint(
    std::vector<blob::Journal<GwRecord>::Entry> image,
    const std::vector<blob::Journal<GwRecord>::Entry>&) const {
  // The checkpoint is the full gateway metadata image — buckets, objects
  // with manifests, the refcounted dedup index, live multipart uploads and
  // the id counters — encoded over ordered containers only, so the image
  // is byte-deterministic across replays. It is built in the previous
  // image's buffer.
  image.clear();
  auto push = [&image](GwRecord rec) {
    const std::uint64_t bytes = record_bytes(rec);
    image.push_back({std::move(rec), bytes});
  };
  {
    GwRecord rec;
    rec.kind = GwRecord::Kind::counters;
    rec.a = next_upload_id_;
    rec.b = nonce_;
    push(std::move(rec));
  }
  if (store_blob_.valid()) {
    GwRecord rec;
    rec.kind = GwRecord::Kind::store_blob;
    rec.a = store_blob_.value;
    push(std::move(rec));
  }
  for (const auto& [name, b] : buckets_) {
    GwRecord rec;
    rec.kind = GwRecord::Kind::create_bucket;
    rec.bucket = name;
    rec.a = static_cast<std::uint64_t>(b.info.created_at);
    rec.acl = b.acl;
    push(std::move(rec));
    for (const auto& [key, obj] : b.objects) {
      GwRecord put;
      put.kind = GwRecord::Kind::put_object;
      put.bucket = name;
      put.key = key;
      put.info = obj.info;
      put.manifest = obj.manifest;
      push(std::move(put));
    }
  }
  for (const auto& [hash, e] : chunk_index_.entries()) {
    GwRecord rec;
    rec.kind = GwRecord::Kind::index_insert;
    rec.c = e.refs;
    rec.manifest.push_back(e.ref);
    rec.replicas = e.replicas;
    push(std::move(rec));
  }
  for (const auto& [id, mpu] : mpus_) {
    GwRecord rec;
    rec.kind = GwRecord::Kind::mpu_create;
    rec.a = id;
    rec.bucket = mpu.bucket;
    rec.key = mpu.key;
    rec.b = mpu.owner.value;
    push(std::move(rec));
    for (const auto& [part_no, part] : mpu.parts) {
      GwRecord prec;
      prec.kind = GwRecord::Kind::mpu_part;
      prec.a = id;
      prec.b = part_no;
      prec.info.size = part.size;
      prec.info.etag = part.etag;
      prec.manifest = part.manifest;
      push(std::move(prec));
    }
  }
  return image;
}

void S3Gateway::on_readable(const blob::RecoveryOutcome&) {
  // After a journal recovery, re-verify an index entry on its first dedup
  // hit: the providers may have lost the chunk independently of the
  // gateway, and a hit on a vanished chunk would corrupt the new object.
  chunk_index_.invalidate_verification();
}

// ------------------------------------------------------------------ digest

std::uint64_t S3Gateway::state_digest() const {
  std::uint64_t d = fnv1a_u64(buckets_.size());
  for (const auto& [name, b] : buckets_) {
    d = hash_combine(d, fnv1a(name));
    d = hash_combine(d, b.info.object_count);
    d = hash_combine(d, b.info.total_bytes);
    d = hash_combine(d, b.acl.owner.value);
    d = hash_combine(d, b.acl.public_read ? 1 : 0);
    for (const auto& [who, perm] : b.acl.grants) {
      d = hash_combine(d, who);
      d = hash_combine(d, static_cast<std::uint64_t>(perm));
    }
    for (const auto& [key, obj] : b.objects) {
      d = hash_combine(d, fnv1a(key));
      d = hash_combine(d, obj.info.size);
      d = hash_combine(d, obj.info.etag);
      d = hash_combine(d, obj.info.version);
      d = hash_combine(d, obj.info.owner.value);
      for (const ChunkRef& ref : obj.manifest) {
        d = hash_combine(d, ref.hash);
        d = hash_combine(d, ref.store_version);
        d = hash_combine(d, ref.store_index);
      }
    }
  }
  d = hash_combine(d, chunk_index_.digest());
  d = hash_combine(d, mpus_.size());
  for (const auto& [id, mpu] : mpus_) {
    d = hash_combine(d, id);
    d = hash_combine(d, fnv1a(mpu.key));
    for (const auto& [no, part] : mpu.parts) {
      d = hash_combine(d, no);
      d = hash_combine(d, part.etag);
      d = hash_combine(d, part.size);
    }
  }
  return d;
}

// ---------------------------------------------------------------- handlers

void S3Gateway::register_handlers() {
  durable_.serve<S3CreateBucketReq, S3CreateBucketResp>(
      [this](const S3CreateBucketReq& req, const rpc::Envelope& env)
          -> sim::Task<Result<S3CreateBucketResp>> {
        if (req.bucket.empty()) {
          co_return Error{Errc::invalid_argument, "empty bucket name"};
        }
        if (buckets_.count(req.bucket)) {
          co_return Error{Errc::already_exists, "bucket exists"};
        }
        Bucket b;
        b.info.name = req.bucket;
        b.info.created_at = node_.cluster().sim().now();
        b.acl.owner = env.client;
        b.acl.public_read = req.public_read;
        GwRecord rec;
        rec.kind = GwRecord::Kind::create_bucket;
        rec.bucket = req.bucket;
        rec.a = static_cast<std::uint64_t>(b.info.created_at);
        rec.acl = b.acl;
        buckets_.emplace(req.bucket, std::move(b));
        auto sealed = co_await durable_.commit(std::move(rec));
        if (!sealed.ok()) co_return sealed.error();
        co_return S3CreateBucketResp{};
      });

  durable_.serve<S3DeleteBucketReq, S3DeleteBucketResp>(
      [this](const S3DeleteBucketReq& req, const rpc::Envelope& env)
          -> sim::Task<Result<S3DeleteBucketResp>> {
        auto bucket =
            bucket_checked(req.bucket, env.client, Permission::full_control);
        if (!bucket.ok()) co_return bucket.error();
        if (!bucket.value()->objects.empty()) {
          co_return Error{Errc::conflict, "bucket not empty"};
        }
        buckets_.erase(req.bucket);
        GwRecord rec;
        rec.kind = GwRecord::Kind::delete_bucket;
        rec.bucket = req.bucket;
        auto sealed = co_await durable_.commit(std::move(rec));
        if (!sealed.ok()) co_return sealed.error();
        co_return S3DeleteBucketResp{};
      });

  durable_.serve<S3ListBucketsReq, S3ListBucketsResp>(
      [this](const S3ListBucketsReq&, const rpc::Envelope& env)
          -> sim::Task<Result<S3ListBucketsResp>> {
        S3ListBucketsResp resp;
        for (const auto& [name, b] : buckets_) {
          if (b.acl.check(env.client, Permission::read)) {
            resp.buckets.push_back(b.info);
          }
        }
        co_return resp;
      });

  durable_.serve<S3SetAclReq, S3SetAclResp>(
      [this](const S3SetAclReq& req,
             const rpc::Envelope& env) -> sim::Task<Result<S3SetAclResp>> {
        auto bucket =
            bucket_checked(req.bucket, env.client, Permission::full_control);
        if (!bucket.ok()) co_return bucket.error();
        if (req.grantee.valid()) {
          if (req.permission == Permission::none) {
            bucket.value()->acl.grants.erase(req.grantee.value);
          } else {
            bucket.value()->acl.grants[req.grantee.value] = req.permission;
          }
        }
        if (req.set_public_read) {
          bucket.value()->acl.public_read = req.public_read;
        }
        GwRecord rec;
        rec.kind = GwRecord::Kind::set_acl;
        rec.bucket = req.bucket;
        rec.acl = bucket.value()->acl;
        auto sealed = co_await durable_.commit(std::move(rec));
        if (!sealed.ok()) co_return sealed.error();
        co_return S3SetAclResp{};
      });

  durable_.serve<S3PutObjectReq, S3PutObjectResp>(
      [this](const S3PutObjectReq& req, const rpc::Envelope& env)
          -> sim::Task<Result<S3PutObjectResp>> {
        auto bucket =
            bucket_checked(req.bucket, env.client, Permission::write);
        if (!bucket.ok()) co_return bucket.error();
        if (req.payload.size == 0) {
          co_return Error{Errc::invalid_argument, "empty object"};
        }
        auto split = split_payload(req.payload, req.chunk_sums);
        if (!split.ok()) co_return split.error();

        const std::uint64_t inc = node_.incarnation();
        blob::BlobClient& client = user_client(env.client);
        auto ing = co_await ingest_chunks(client, std::move(split.value()));
        if (!ing.ok()) co_return ing.error();
        if (node_.incarnation() != inc || recovering()) {
          co_return Error{Errc::unavailable, "gateway restarted"};
        }
        Bucket* b = find_bucket(req.bucket);
        if (b == nullptr || !b->acl.check(env.client, Permission::write)) {
          rollback_ingest(ing.value());
          co_return b == nullptr
              ? Error{Errc::not_found, "bucket vanished mid-put"}
              : Error{Errc::permission_denied, "access revoked mid-put"};
        }

        std::vector<GwRecord> records =
            std::move(ing.value().insert_records);
        std::vector<ChunkIndex::Entry> reclaims;
        commit_manifest(ing.value().manifest, records);
        const blob::Version version = install_object(
            *b, {.key = req.key, .size = req.payload.size,
                 .etag = req.payload.checksum, .owner = env.client},
            ing.value().manifest, records, reclaims);
        ++stats_.puts;
        stats_.bytes_ingested += req.payload.size;
        obs::count("gateway.puts");

        auto sealed = co_await durable_.commit(std::move(records));
        if (!sealed.ok()) co_return sealed.error();
        reclaim(std::move(reclaims));

        S3PutObjectResp resp;
        resp.etag = req.payload.checksum;
        resp.version = version;
        resp.chunks = static_cast<std::uint32_t>(ing.value().manifest.size());
        resp.chunks_deduped = ing.value().hits;
        co_return resp;
      });

  durable_.serve<S3GetObjectReq, S3GetObjectResp>(
      [this](const S3GetObjectReq& req, const rpc::Envelope& env)
          -> sim::Task<Result<S3GetObjectResp>> {
        auto bucket =
            bucket_checked(req.bucket, env.client, Permission::read);
        if (!bucket.ok()) co_return bucket.error();
        auto oit = bucket.value()->objects.find(req.key);
        if (oit == bucket.value()->objects.end()) {
          co_return Error{Errc::not_found, "no such key: " + req.key};
        }
        const ObjectInfo info = oit->second.info;
        const std::uint64_t cs = options_.object_chunk_size;
        const std::uint64_t lo = std::min(req.offset, info.size);
        const std::uint64_t len = std::min(req.length, info.size - lo);
        ++stats_.gets;
        obs::count("gateway.gets");
        if (len == 0) {
          S3GetObjectResp resp;
          resp.etag = info.etag;
          co_return resp;
        }

        // Manifest range scan: only the chunks intersecting [lo, lo+len).
        struct Fetch {
          ChunkRef ref;
          std::uint64_t store_lo{0};  ///< absolute store-blob read offset
          std::uint64_t rlen{0};
          std::uint64_t obj_off{0};
          Result<blob::ReadResult> result{Errc::internal};
        };
        std::vector<Fetch> fetches;
        std::vector<ChunkRef> pinned;
        const std::uint64_t hi = lo + len;
        const std::uint64_t lo_chunk = lo / cs;
        const auto& manifest = oit->second.manifest;
        for (std::uint64_t i = lo_chunk;
             i < manifest.size() && i * cs < hi; ++i) {
          const ChunkRef& ref = manifest[i];
          const std::uint64_t base = i * cs;
          const std::uint64_t clo = std::max(lo, base);
          const std::uint64_t chi = std::min(hi, base + ref.size);
          if (chi <= clo) continue;
          Fetch f;
          f.ref = ref;
          f.store_lo = ref.store_index * cs + (clo - base);
          f.rlen = chi - clo;
          f.obj_off = clo;
          fetches.push_back(std::move(f));
          // Pin so a concurrent delete cannot reclaim the chunk mid-read.
          if (chunk_index_.find(ref.hash) != nullptr) {
            chunk_index_.pin(ref.hash);
            pinned.push_back(ref);
          }
        }

        const std::uint64_t inc = node_.incarnation();
        blob::BlobClient& client = user_client(env.client);
        auto& sim = node_.cluster().sim();
        {
          sim::Semaphore sem(sim, kGetParallelism);
          sim::WaitGroup wg(sim);
          for (Fetch& f : fetches) {
            wg.launch([](blob::BlobClient& c, sim::Semaphore& s,
                         Fetch& slot) -> sim::Task<void> {
              co_await s.acquire();
              sim::SemGuard guard(s);
              slot.result = co_await c.read(slot.ref.store_blob,
                                            slot.store_lo, slot.rlen,
                                            slot.ref.store_version);
            }(client, sem, f));
          }
          co_await wg.wait();
        }
        if (node_.incarnation() != inc || recovering()) {
          co_return Error{Errc::unavailable, "gateway restarted"};
        }
        std::vector<ChunkIndex::Entry> reclaims;
        for (const ChunkRef& ref : pinned) {
          if (auto r = chunk_index_.unpin(ref)) reclaims.push_back(std::move(*r));
        }
        reclaim(std::move(reclaims));

        S3GetObjectResp resp;
        resp.etag = info.etag;
        resp.payload.size = len;
        resp.payload.checksum = info.etag;
        // The response carries bytes only when every fetch has all of its
        // bytes inline, so a synthetic object allocates nothing for them.
        bool all_bytes = !fetches.empty();
        for (const Fetch& f : fetches) {
          if (!f.result.ok()) co_return f.result.error();
          all_bytes =
              all_bytes && f.result.value().has_bytes(f.store_lo, f.rlen);
        }
        if (all_bytes) {
          std::vector<std::uint8_t> bytes(len, 0);
          for (const Fetch& f : fetches) {
            f.result.value().copy_to(
                f.store_lo, std::span(bytes).subspan(f.obj_off - lo, f.rlen));
          }
          resp.payload = blob::Payload::from_bytes(std::move(bytes));
        }
        co_return resp;
      });

  durable_.serve<S3HeadObjectReq, S3HeadObjectResp>(
      [this](const S3HeadObjectReq& req, const rpc::Envelope& env)
          -> sim::Task<Result<S3HeadObjectResp>> {
        auto bucket =
            bucket_checked(req.bucket, env.client, Permission::read);
        if (!bucket.ok()) co_return bucket.error();
        auto oit = bucket.value()->objects.find(req.key);
        if (oit == bucket.value()->objects.end()) {
          co_return Error{Errc::not_found, "no such key: " + req.key};
        }
        co_return S3HeadObjectResp{oit->second.info};
      });

  durable_.serve<S3DeleteObjectReq, S3DeleteObjectResp>(
      [this](const S3DeleteObjectReq& req, const rpc::Envelope& env)
          -> sim::Task<Result<S3DeleteObjectResp>> {
        auto bucket =
            bucket_checked(req.bucket, env.client, Permission::write);
        if (!bucket.ok()) co_return bucket.error();
        Bucket* b = bucket.value();
        auto oit = b->objects.find(req.key);
        if (oit == b->objects.end()) {
          co_return Error{Errc::not_found, "no such key: " + req.key};
        }
        std::vector<GwRecord> records;
        std::vector<ChunkIndex::Entry> reclaims;
        release_manifest(oit->second.manifest, records, reclaims);
        GwRecord rec;
        rec.kind = GwRecord::Kind::delete_object;
        rec.bucket = req.bucket;
        rec.key = req.key;
        records.push_back(std::move(rec));
        b->info.total_bytes -= oit->second.info.size;
        --b->info.object_count;
        b->objects.erase(oit);
        ++stats_.deletes;
        obs::count("gateway.deletes");
        auto sealed = co_await durable_.commit(std::move(records));
        if (!sealed.ok()) co_return sealed.error();
        reclaim(std::move(reclaims));
        co_return S3DeleteObjectResp{};
      });

  durable_.serve<S3ListObjectsReq, S3ListObjectsResp>(
      [this](const S3ListObjectsReq& req, const rpc::Envelope& env)
          -> sim::Task<Result<S3ListObjectsResp>> {
        auto bucket =
            bucket_checked(req.bucket, env.client, Permission::read);
        if (!bucket.ok()) co_return bucket.error();
        S3ListObjectsResp resp;
        const auto& objects = bucket.value()->objects;
        // Range scan: jump straight to the prefix (or just past the
        // marker) instead of walking the whole bucket; the prefixed keys
        // form one contiguous run of the ordered map.
        auto it = (req.marker.empty() || req.marker < req.prefix)
                      ? objects.lower_bound(req.prefix)
                      : objects.upper_bound(req.marker);
        std::uint64_t max_keys = kMaxKeysCap;
        if (req.max_keys > 0) max_keys = std::min(max_keys, req.max_keys);
        for (; it != objects.end(); ++it) {
          if (it->first.compare(0, req.prefix.size(), req.prefix) != 0) {
            break;  // past the prefix run
          }
          if (resp.objects.size() >= max_keys) {
            resp.truncated = true;
            resp.next_marker = resp.objects.back().key;
            break;
          }
          resp.objects.push_back(it->second.info);
        }
        co_return resp;
      });

  durable_.serve<S3CreateMultipartReq, S3CreateMultipartResp>(
      [this](const S3CreateMultipartReq& req, const rpc::Envelope& env)
          -> sim::Task<Result<S3CreateMultipartResp>> {
        auto bucket =
            bucket_checked(req.bucket, env.client, Permission::write);
        if (!bucket.ok()) co_return bucket.error();
        const std::uint64_t id = next_upload_id_++;
        Mpu mpu;
        mpu.bucket = req.bucket;
        mpu.key = req.key;
        mpu.owner = env.client;
        mpus_.emplace(id, std::move(mpu));
        ++stats_.multipart_uploads;
        obs::count("gateway.multipart_uploads");
        GwRecord rec;
        rec.kind = GwRecord::Kind::mpu_create;
        rec.a = id;
        rec.bucket = req.bucket;
        rec.key = req.key;
        rec.b = env.client.value;
        auto sealed = co_await durable_.commit(std::move(rec));
        if (!sealed.ok()) co_return sealed.error();
        co_return S3CreateMultipartResp{id};
      });

  durable_.serve<S3UploadPartReq, S3UploadPartResp>(
      [this](const S3UploadPartReq& req, const rpc::Envelope& env)
          -> sim::Task<Result<S3UploadPartResp>> {
        auto bucket =
            bucket_checked(req.bucket, env.client, Permission::write);
        if (!bucket.ok()) co_return bucket.error();
        auto mpu =
            mpu_checked(req.upload_id, req.bucket, req.key, env.client);
        if (!mpu.ok()) co_return mpu.error();
        if (req.part_number == 0) {
          co_return Error{Errc::invalid_argument, "parts are 1-based"};
        }
        if (req.payload.size == 0) {
          co_return Error{Errc::invalid_argument, "empty part"};
        }
        // Per-part resume: a retry of an already-committed part with the
        // same content acks from the journal, no chunk is re-ingested.
        auto pit = mpu.value()->parts.find(req.part_number);
        if (pit != mpu.value()->parts.end() &&
            pit->second.etag == req.payload.checksum &&
            pit->second.size == req.payload.size) {
          ++stats_.parts_resumed;
          obs::count("gateway.parts_resumed");
          S3UploadPartResp resp;
          resp.etag = pit->second.etag;
          resp.chunks =
              static_cast<std::uint32_t>(pit->second.manifest.size());
          resp.resumed = true;
          co_return resp;
        }
        auto split = split_payload(req.payload, req.chunk_sums);
        if (!split.ok()) co_return split.error();

        const std::uint64_t inc = node_.incarnation();
        blob::BlobClient& client = user_client(env.client);
        ++stats_.parts_in_flight;
        obs::gauge_set("gateway.parts_in_flight",
                       static_cast<double>(stats_.parts_in_flight),
                       node_.cluster().sim().now());
        auto ing = co_await ingest_chunks(client, std::move(split.value()));
        if (stats_.parts_in_flight > 0) --stats_.parts_in_flight;
        obs::gauge_set("gateway.parts_in_flight",
                       static_cast<double>(stats_.parts_in_flight),
                       node_.cluster().sim().now());
        if (!ing.ok()) co_return ing.error();
        if (node_.incarnation() != inc || recovering()) {
          co_return Error{Errc::unavailable, "gateway restarted"};
        }
        auto mit = mpus_.find(req.upload_id);
        if (mit == mpus_.end()) {
          rollback_ingest(ing.value());
          co_return Error{Errc::not_found, "upload aborted mid-part"};
        }

        std::vector<GwRecord> records =
            std::move(ing.value().insert_records);
        std::vector<ChunkIndex::Entry> reclaims;
        commit_manifest(ing.value().manifest, records);
        pit = mit->second.parts.find(req.part_number);
        if (pit != mit->second.parts.end()) {
          // Re-upload with different content replaces the committed part.
          release_manifest(pit->second.manifest, records, reclaims);
        }
        PartInfo part;
        part.size = req.payload.size;
        part.etag = req.payload.checksum;
        part.manifest = ing.value().manifest;
        mit->second.parts[req.part_number] = std::move(part);
        GwRecord rec;
        rec.kind = GwRecord::Kind::mpu_part;
        rec.a = req.upload_id;
        rec.b = req.part_number;
        rec.info.size = req.payload.size;
        rec.info.etag = req.payload.checksum;
        rec.manifest = ing.value().manifest;
        records.push_back(std::move(rec));
        ++stats_.parts;
        stats_.bytes_ingested += req.payload.size;
        obs::count("gateway.parts");

        auto sealed = co_await durable_.commit(std::move(records));
        if (!sealed.ok()) co_return sealed.error();
        reclaim(std::move(reclaims));

        S3UploadPartResp resp;
        resp.etag = req.payload.checksum;
        resp.chunks = static_cast<std::uint32_t>(ing.value().manifest.size());
        resp.chunks_deduped = ing.value().hits;
        co_return resp;
      });

  durable_.serve<S3CompleteMultipartReq, S3CompleteMultipartResp>(
      [this](const S3CompleteMultipartReq& req, const rpc::Envelope& env)
          -> sim::Task<Result<S3CompleteMultipartResp>> {
        auto bucket =
            bucket_checked(req.bucket, env.client, Permission::write);
        if (!bucket.ok()) co_return bucket.error();
        auto mpu =
            mpu_checked(req.upload_id, req.bucket, req.key, env.client);
        if (!mpu.ok()) co_return mpu.error();
        const auto& parts = mpu.value()->parts;
        if (req.part_count == 0 || parts.size() != req.part_count ||
            parts.begin()->first != 1 ||
            parts.rbegin()->first != req.part_count) {
          co_return Error{Errc::invalid_argument,
                          "parts 1.." + std::to_string(req.part_count) +
                              " not all committed"};
        }
        const std::uint64_t cs = options_.object_chunk_size;
        std::vector<ChunkRef> manifest;
        std::uint64_t size = 0;
        std::uint64_t etag = fnv1a_u64(req.part_count);
        for (const auto& [no, part] : parts) {
          if (no != req.part_count && part.size % cs != 0) {
            co_return Error{Errc::invalid_argument,
                            "non-final part not chunk-aligned"};
          }
          manifest.insert(manifest.end(), part.manifest.begin(),
                          part.manifest.end());
          size += part.size;
          etag = hash_combine(etag, part.etag);
        }

        std::vector<GwRecord> records;
        std::vector<ChunkIndex::Entry> reclaims;
        // The parts' committed refs transfer 1:1 into the object manifest,
        // so no index_ref/release records are needed for the transfer.
        const blob::Version version = install_object(
            *bucket.value(),
            {.key = req.key, .size = size, .etag = etag, .owner = env.client},
            manifest, records, reclaims);
        mpus_.erase(req.upload_id);
        GwRecord drop;
        drop.kind = GwRecord::Kind::mpu_drop;
        drop.a = req.upload_id;
        records.push_back(std::move(drop));

        auto sealed = co_await durable_.commit(std::move(records));
        if (!sealed.ok()) co_return sealed.error();
        reclaim(std::move(reclaims));

        S3CompleteMultipartResp resp;
        resp.etag = etag;
        resp.size = size;
        resp.version = version;
        co_return resp;
      });

  durable_.serve<S3AbortMultipartReq, S3AbortMultipartResp>(
      [this](const S3AbortMultipartReq& req, const rpc::Envelope& env)
          -> sim::Task<Result<S3AbortMultipartResp>> {
        auto bucket =
            bucket_checked(req.bucket, env.client, Permission::write);
        if (!bucket.ok()) co_return bucket.error();
        auto mit = mpus_.find(req.upload_id);
        if (mit == mpus_.end()) {
          co_return Error{Errc::not_found, "no such multipart upload"};
        }
        if (mit->second.owner != env.client &&
            !bucket.value()->acl.check(env.client,
                                       Permission::full_control)) {
          co_return Error{Errc::permission_denied, "not the upload owner"};
        }
        std::vector<GwRecord> records;
        std::vector<ChunkIndex::Entry> reclaims;
        for (const auto& [no, part] : mit->second.parts) {
          release_manifest(part.manifest, records, reclaims);
        }
        GwRecord drop;
        drop.kind = GwRecord::Kind::mpu_drop;
        drop.a = req.upload_id;
        records.push_back(std::move(drop));
        mpus_.erase(mit);
        auto sealed = co_await durable_.commit(std::move(records));
        if (!sealed.ok()) co_return sealed.error();
        reclaim(std::move(reclaims));
        co_return S3AbortMultipartResp{};
      });

  durable_.serve<S3PutDeltaReq, S3PutDeltaResp>(
      [this](const S3PutDeltaReq& req, const rpc::Envelope& env)
          -> sim::Task<Result<S3PutDeltaResp>> {
        auto bucket =
            bucket_checked(req.bucket, env.client, Permission::write);
        if (!bucket.ok()) co_return bucket.error();
        auto oit = bucket.value()->objects.find(req.key);
        if (oit == bucket.value()->objects.end()) {
          co_return Error{Errc::not_found,
                          "delta against missing object: " + req.key};
        }
        if (oit->second.info.etag != req.base_etag) {
          // The base moved under the client; it must re-diff (or full-PUT).
          co_return Error{Errc::conflict, "delta base etag mismatch"};
        }
        if (req.new_size == 0) {
          co_return Error{Errc::invalid_argument, "empty object"};
        }
        const std::uint64_t cs = options_.object_chunk_size;
        const std::uint64_t n = blob::div_ceil(req.new_size, cs);
        auto slot_size = [&](std::uint64_t i) {
          return i + 1 == n ? req.new_size - (n - 1) * cs : cs;
        };
        std::map<std::uint64_t, const S3DeltaChunk*> shipped;
        for (const S3DeltaChunk& c : req.chunks) {
          if (c.index >= n || c.payload.size != slot_size(c.index) ||
              !shipped.emplace(c.index, &c).second) {
            co_return Error{Errc::invalid_argument,
                            "delta chunk index/size invalid"};
          }
        }
        // Every slot not shipped must be reusable from the base manifest.
        const auto& base = oit->second.manifest;
        for (std::uint64_t i = 0; i < n; ++i) {
          if (shipped.count(i)) continue;
          if (i >= base.size() || base[i].size != slot_size(i)) {
            co_return Error{Errc::invalid_argument,
                            "delta missing changed chunk " +
                                std::to_string(i)};
          }
        }
        std::vector<blob::Payload> payloads;
        payloads.reserve(shipped.size());
        for (const auto& [i, c] : shipped) payloads.push_back(c->payload);

        const std::uint64_t inc = node_.incarnation();
        blob::BlobClient& client = user_client(env.client);
        IngestResult ingested;
        if (!payloads.empty()) {
          auto ing = co_await ingest_chunks(client, std::move(payloads));
          if (!ing.ok()) co_return ing.error();
          if (node_.incarnation() != inc || recovering()) {
            co_return Error{Errc::unavailable, "gateway restarted"};
          }
          ingested = std::move(ing.value());
        }
        // Re-validate after the await: the object (and thus the base
        // manifest the unshipped slots lean on) may have moved.
        Bucket* b = find_bucket(req.bucket);
        auto oit2 = b == nullptr ? decltype(oit){} : b->objects.find(req.key);
        if (b == nullptr || oit2 == b->objects.end() ||
            oit2->second.info.etag != req.base_etag) {
          rollback_ingest(ingested);
          co_return Error{Errc::conflict, "delta base changed mid-upload"};
        }

        std::vector<GwRecord> records = std::move(ingested.insert_records);
        std::vector<ChunkIndex::Entry> reclaims;
        std::vector<ChunkRef> manifest(n);
        std::size_t k = 0;
        std::uint64_t bytes_shipped = 0;
        std::uint64_t bytes_shared = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
          if (shipped.count(i)) {
            manifest[i] = ingested.manifest[k++];
            chunk_index_.commit_ref(manifest[i]);
            bytes_shipped += manifest[i].size;
          } else {
            // Shared with the base version; the base's committed ref keeps
            // the entry alive until we add ours (no await in between).
            manifest[i] = oit2->second.manifest[i];
            chunk_index_.add_ref(manifest[i]);
            bytes_shared += manifest[i].size;
          }
          GwRecord rec;
          rec.kind = GwRecord::Kind::index_ref;
          rec.a = manifest[i].hash;
          rec.b = manifest[i].store_index;
          records.push_back(std::move(rec));
        }
        const blob::Version version = install_object(
            *b, {.key = req.key, .size = req.new_size, .etag = req.new_etag,
                 .owner = env.client},
            manifest, records, reclaims);
        ++stats_.delta_puts;
        stats_.bytes_ingested += req.new_size;
        stats_.delta_bytes_shipped += bytes_shipped;
        stats_.delta_bytes_shared += bytes_shared;
        obs::count("gateway.delta_puts");
        obs::count("gateway.delta_bytes_shipped", bytes_shipped);
        obs::count("gateway.delta_bytes_shared", bytes_shared);

        auto sealed = co_await durable_.commit(std::move(records));
        if (!sealed.ok()) co_return sealed.error();
        reclaim(std::move(reclaims));

        S3PutDeltaResp resp;
        resp.etag = req.new_etag;
        resp.version = version;
        resp.chunks_shipped = static_cast<std::uint32_t>(shipped.size());
        resp.chunks_shared = static_cast<std::uint32_t>(n - shipped.size());
        co_return resp;
      });
}

}  // namespace bs::cloud
