// S3Gateway: an S3-interface-compatible storage service whose back end is
// BlobSeer — the Cumulus integration the paper reports preliminary results
// for in §V. Objects are manifests of content-addressed chunks stored in a
// shared, provider-striped chunk-store blob: identical chunk hashes across
// tenants and object versions share one stored chunk (refcounted dedup), a
// multipart path uploads parts concurrently through the BlobSeer client's
// bounded-parallel put pipeline, and a delta-sync path ships only chunks
// whose hashes differ from a named base version. Bucket/object metadata and
// the dedup index are journal-backed (PR 7 model) so they survive gateway
// crash/recovery. Every user's traffic reaches BlobSeer under that user's
// identity so the self-protection framework sees end users, not the
// gateway.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "blob/client.hpp"
#include "blob/journal.hpp"
#include "cloud/dedup_index.hpp"
#include "cloud/s3_types.hpp"

namespace bs::cloud {

// ------------------------------------------------------------- S3 messages

struct S3CreateBucketReq {
  static constexpr const char* kName = "s3.create_bucket";
  std::string bucket;
  bool public_read{false};
  [[nodiscard]] std::uint64_t wire_size() const {
    return 24 + bucket.size();
  }
};
struct S3CreateBucketResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

struct S3DeleteBucketReq {
  static constexpr const char* kName = "s3.delete_bucket";
  std::string bucket;
  [[nodiscard]] std::uint64_t wire_size() const {
    return 24 + bucket.size();
  }
};
struct S3DeleteBucketResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

struct S3ListBucketsReq {
  static constexpr const char* kName = "s3.list_buckets";
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};
struct S3ListBucketsResp {
  std::vector<BucketInfo> buckets;
  [[nodiscard]] std::uint64_t wire_size() const {
    std::uint64_t n = 16;
    for (const auto& b : buckets) n += b.wire_size();
    return n;
  }
};

struct S3PutObjectReq {
  static constexpr const char* kName = "s3.put_object";
  static constexpr bool kPayloadToDisk = false;  // gateway relays to blobs
  std::string bucket;
  std::string key;
  blob::Payload payload;
  /// Optional per-chunk content checksums for synthetic payloads, so
  /// workload generators can model chunk-level content identity without
  /// shipping real bytes (real-byte payloads are sliced and hashed at the
  /// gateway). Size must be the object's chunk count when present.
  std::vector<std::uint64_t> chunk_sums;
  [[nodiscard]] std::uint64_t wire_size() const {
    return 48 + bucket.size() + key.size() + payload.size +
           8 * chunk_sums.size();
  }
};
struct S3PutObjectResp {
  std::uint64_t etag{0};
  blob::Version version{0};
  std::uint32_t chunks{0};
  std::uint32_t chunks_deduped{0};  ///< provider writes skipped
  [[nodiscard]] std::uint64_t wire_size() const { return 40; }
};

struct S3GetObjectReq {
  static constexpr const char* kName = "s3.get_object";
  std::string bucket;
  std::string key;
  std::uint64_t offset{0};
  std::uint64_t length{std::numeric_limits<std::uint64_t>::max()};
  [[nodiscard]] std::uint64_t wire_size() const {
    return 48 + bucket.size() + key.size();
  }
};
struct S3GetObjectResp {
  blob::Payload payload;
  std::uint64_t etag{0};
  [[nodiscard]] std::uint64_t wire_size() const {
    return 40 + payload.size;
  }
};

struct S3HeadObjectReq {
  static constexpr const char* kName = "s3.head_object";
  std::string bucket;
  std::string key;
  [[nodiscard]] std::uint64_t wire_size() const {
    return 32 + bucket.size() + key.size();
  }
};
struct S3HeadObjectResp {
  ObjectInfo info;
  [[nodiscard]] std::uint64_t wire_size() const {
    return 16 + info.wire_size();
  }
};

struct S3DeleteObjectReq {
  static constexpr const char* kName = "s3.delete_object";
  std::string bucket;
  std::string key;
  [[nodiscard]] std::uint64_t wire_size() const {
    return 32 + bucket.size() + key.size();
  }
};
struct S3DeleteObjectResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

struct S3ListObjectsReq {
  static constexpr const char* kName = "s3.list_objects";
  std::string bucket;
  std::string prefix;
  /// Paging: return keys strictly after `marker`, at most `max_keys`
  /// (0 = server cap). The response says whether it was truncated and
  /// where to resume.
  std::string marker;
  std::uint64_t max_keys{0};
  [[nodiscard]] std::uint64_t wire_size() const {
    return 40 + bucket.size() + prefix.size() + marker.size();
  }
};
struct S3ListObjectsResp {
  std::vector<ObjectInfo> objects;
  bool truncated{false};
  std::string next_marker;
  [[nodiscard]] std::uint64_t wire_size() const {
    std::uint64_t n = 24 + next_marker.size();
    for (const auto& o : objects) n += o.wire_size();
    return n;
  }
};

struct S3SetAclReq {
  static constexpr const char* kName = "s3.set_acl";
  std::string bucket;
  ClientId grantee{};
  Permission permission{Permission::read};
  bool public_read{false};
  bool set_public_read{false};
  [[nodiscard]] std::uint64_t wire_size() const {
    return 40 + bucket.size();
  }
};
struct S3SetAclResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

// -------------------------------------------------- multipart + delta sync

struct S3CreateMultipartReq {
  static constexpr const char* kName = "s3.create_multipart";
  std::string bucket;
  std::string key;
  [[nodiscard]] std::uint64_t wire_size() const {
    return 32 + bucket.size() + key.size();
  }
};
struct S3CreateMultipartResp {
  std::uint64_t upload_id{0};
  [[nodiscard]] std::uint64_t wire_size() const { return 24; }
};

struct S3UploadPartReq {
  static constexpr const char* kName = "s3.upload_part";
  static constexpr bool kPayloadToDisk = false;
  std::string bucket;
  std::string key;
  std::uint64_t upload_id{0};
  std::uint32_t part_number{0};  ///< 1-based
  blob::Payload payload;
  std::vector<std::uint64_t> chunk_sums;  ///< as in S3PutObjectReq
  [[nodiscard]] std::uint64_t wire_size() const {
    return 64 + bucket.size() + key.size() + payload.size +
           8 * chunk_sums.size();
  }
};
struct S3UploadPartResp {
  std::uint64_t etag{0};
  std::uint32_t chunks{0};
  std::uint32_t chunks_deduped{0};
  /// True when the part was already committed with the same etag (a
  /// resumed retry after a crashed upload): no chunk was re-ingested.
  bool resumed{false};
  [[nodiscard]] std::uint64_t wire_size() const { return 33; }
};

struct S3CompleteMultipartReq {
  static constexpr const char* kName = "s3.complete_multipart";
  std::string bucket;
  std::string key;
  std::uint64_t upload_id{0};
  std::uint32_t part_count{0};  ///< parts 1..part_count must be committed
  [[nodiscard]] std::uint64_t wire_size() const {
    return 48 + bucket.size() + key.size();
  }
};
struct S3CompleteMultipartResp {
  std::uint64_t etag{0};
  std::uint64_t size{0};
  blob::Version version{0};
  [[nodiscard]] std::uint64_t wire_size() const { return 40; }
};

struct S3AbortMultipartReq {
  static constexpr const char* kName = "s3.abort_multipart";
  std::string bucket;
  std::string key;
  std::uint64_t upload_id{0};
  [[nodiscard]] std::uint64_t wire_size() const {
    return 40 + bucket.size() + key.size();
  }
};
struct S3AbortMultipartResp {
  [[nodiscard]] std::uint64_t wire_size() const { return 16; }
};

/// One changed chunk of a delta upload.
struct S3DeltaChunk {
  std::uint64_t index{0};  ///< chunk index in the new object layout
  blob::Payload payload;
  [[nodiscard]] std::uint64_t wire_size() const { return 16 + payload.size; }
};

/// Overwrite an object by shipping only the chunks whose content changed
/// relative to the current version (named by its etag); unchanged chunks
/// are shared with the base manifest. Wire cost is O(changed bytes).
struct S3PutDeltaReq {
  static constexpr const char* kName = "s3.put_delta";
  static constexpr bool kPayloadToDisk = false;
  std::string bucket;
  std::string key;
  std::uint64_t base_etag{0};  ///< etag the delta was computed against
  std::uint64_t new_size{0};
  std::uint64_t new_etag{0};  ///< whole-object etag of the new content
  std::vector<S3DeltaChunk> chunks;
  [[nodiscard]] std::uint64_t wire_size() const {
    std::uint64_t n = 64 + bucket.size() + key.size();
    for (const auto& c : chunks) n += c.wire_size();
    return n;
  }
};
struct S3PutDeltaResp {
  std::uint64_t etag{0};
  blob::Version version{0};
  std::uint32_t chunks_shipped{0};
  std::uint32_t chunks_shared{0};  ///< reused from the base version
  [[nodiscard]] std::uint64_t wire_size() const { return 40; }
};

// ----------------------------------------------------------------- gateway

struct GatewayOptions {
  std::uint64_t object_chunk_size{4 * units::MB};
  std::uint32_t replication{1};
  /// Content-addressed dedup across tenants and object versions. Off keeps
  /// the same manifest/refcount machinery but makes every ingested chunk
  /// unique, so every chunk pays a provider write (the ablation baseline).
  bool dedup{true};
  /// WAL for bucket/object metadata and the dedup index (PR 7 model).
  blob::JournalOptions journal{};
};

/// Gateway-side counters (also exported through bs::obs as gateway.*).
struct GatewayStats {
  std::uint64_t puts{0};
  std::uint64_t gets{0};
  std::uint64_t deletes{0};
  std::uint64_t multipart_uploads{0};
  std::uint64_t parts{0};
  std::uint64_t parts_resumed{0};
  std::uint64_t delta_puts{0};
  std::uint64_t chunks_ingested{0};
  std::uint64_t dedup_hits{0};
  std::uint64_t dedup_misses{0};
  std::uint64_t bytes_ingested{0};      ///< logical object bytes received
  std::uint64_t bytes_saved{0};         ///< dedup hits: provider writes skipped
  std::uint64_t bytes_to_providers{0};  ///< chunk bytes actually stored
  std::uint64_t delta_bytes_shipped{0};
  std::uint64_t delta_bytes_shared{0};
  std::uint64_t chunks_reclaimed{0};
  std::uint64_t bytes_reclaimed{0};
  std::uint64_t parts_in_flight{0};
};

class S3Gateway {
 public:
  S3Gateway(rpc::Node& node, blob::BlobClient::Endpoints endpoints,
            GatewayOptions options = GatewayOptions());

  [[nodiscard]] NodeId id() const { return node_.id(); }
  [[nodiscard]] const GatewayStats& stats() const { return stats_; }
  [[nodiscard]] const ChunkIndex& index() const { return chunk_index_; }
  [[nodiscard]] bool recovering() const { return durable_.recovering(); }
  [[nodiscard]] const blob::RecoveryStats& recovery_stats() const {
    return durable_.stats();
  }
  /// Deterministic digest over buckets, objects, manifests and the dedup
  /// index; chaos suites compare it across replays.
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  struct ObjectRecord {
    ObjectInfo info;
    std::vector<ChunkRef> manifest;
  };
  struct Bucket {
    BucketInfo info;
    Acl acl;
    std::map<std::string, ObjectRecord> objects;
  };
  struct PartInfo {
    std::uint64_t size{0};
    std::uint64_t etag{0};
    std::vector<ChunkRef> manifest;
  };
  struct Mpu {
    std::string bucket;
    std::string key;
    ClientId owner{};
    std::map<std::uint32_t, PartInfo> parts;
  };
  /// Journal record. Field use is kind-specific; `a`/`b`/`c` are scalar
  /// slots (hash/upload id/refs/…) documented per kind in gateway.cpp.
  struct GwRecord {
    enum class Kind : std::uint8_t {
      create_bucket,  ///< bucket, acl, a = created_at
      delete_bucket,  ///< bucket
      set_acl,        ///< bucket, acl (full snapshot)
      put_object,     ///< bucket, key, info, manifest
      delete_object,  ///< bucket, key
      index_insert,   ///< manifest[0] = ref, replicas, b = nonce, c = refs
      index_ref,      ///< a = hash (one manifest occurrence)
      index_release,  ///< a = hash
      mpu_create,     ///< a = upload id, bucket, key, b = owner
      mpu_part,       ///< a = upload id, b = part no, info.{size,etag}, manifest
      mpu_drop,       ///< a = upload id
      store_blob,     ///< a = blob id
      counters,       ///< a = next upload id, b = unique-chunk nonce
    };
    Kind kind{Kind::counters};
    std::string bucket;
    std::string key;
    std::uint64_t a{0};
    std::uint64_t b{0};
    std::uint64_t c{0};
    ObjectInfo info;
    std::vector<ChunkRef> manifest;
    std::vector<NodeId> replicas;
    Acl acl;
  };
  friend class blob::Durable<S3Gateway, GwRecord>;

  /// What one ingest pass resolved: the manifest (every entry holds one
  /// in-flight pin in the index) plus the journal records for chunks that
  /// were freshly stored.
  struct IngestResult {
    std::vector<ChunkRef> manifest;
    std::vector<GwRecord> insert_records;
    std::uint32_t hits{0};
    std::uint32_t misses{0};
    std::uint64_t bytes_saved{0};
    std::uint64_t bytes_stored{0};
  };

  void register_handlers();

  /// Per-user BlobSeer client on the gateway node, so BlobSeer attributes
  /// the traffic to the end user (required for self-protection). Built on
  /// first use and kept for the gateway's life, so a handler's reference
  /// stays valid across its awaits.
  blob::BlobClient& user_client(ClientId user);

  Result<Bucket*> bucket_checked(const std::string& name, ClientId who,
                                 Permission want);
  Bucket* find_bucket(const std::string& name);
  /// The multipart upload `upload_id` of `bucket`/`key`, owned by `who`.
  Result<Mpu*> mpu_checked(std::uint64_t upload_id, const std::string& bucket,
                           const std::string& key, ClientId who);

  /// Splits an object/part payload into per-chunk payloads at the gateway
  /// chunk size (real bytes are sliced and checksummed; synthetic payloads
  /// use `chunk_sums` or derived per-chunk checksums).
  Result<std::vector<blob::Payload>> split_payload(
      const blob::Payload& payload,
      const std::vector<std::uint64_t>& chunk_sums) const;
  [[nodiscard]] std::uint64_t chunk_hash(const blob::Payload& p) const;

  /// Lazily creates the shared chunk-store blob (one per gateway).
  sim::Task<Result<BlobId>> ensure_store_blob();

  /// Content-addressed ingest: dedup-hit chunks are pinned, missed chunks
  /// are appended to the store blob in one new version through the user's
  /// client (bounded-parallel puts). On return every manifest entry holds
  /// one pin; commit with commit_ref or roll back with rollback_ingest.
  // bslint: allow(coro-ref-param): client is a per-user client, which the
  // gateway keeps for its life
  // bslint: allow(perf-large-byvalue): every caller moves the freshly
  // split batch; Payload bodies are shared_ptr-backed either way
  sim::Task<Result<IngestResult>> ingest_chunks(
      blob::BlobClient& client, std::vector<blob::Payload> chunks);
  void rollback_ingest(const IngestResult& ing);

  /// Releases one committed manifest occurrence per entry, appending the
  /// index_release records and queueing reclaimable chunks on `reclaims`.
  void release_manifest(const std::vector<ChunkRef>& manifest,
                        std::vector<GwRecord>& records,
                        std::vector<ChunkIndex::Entry>& reclaims);
  /// Turns an ingest's in-flight pins into committed refs, appending one
  /// index_ref record per manifest entry.
  void commit_manifest(const std::vector<ChunkRef>& manifest,
                       std::vector<GwRecord>& records);
  /// Makes `manifest` the newest version of object `info.key` in `b`
  /// (`info` carries key, size, etag and owner; the version, timestamp and
  /// store blob are stamped here). Releases the replaced manifest, fixes
  /// the bucket totals and appends the put_object record after the release
  /// records. Returns the new object version.
  blob::Version install_object(Bucket& b, ObjectInfo info,
                               const std::vector<ChunkRef>& manifest,
                               std::vector<GwRecord>& records,
                               std::vector<ChunkIndex::Entry>& reclaims);
  /// Fire-and-forget chunk removal on every replica of a reclaimed entry.
  void reclaim(std::vector<ChunkIndex::Entry> entries);

  // blob::Durable<S3Gateway, GwRecord> hooks.
  static std::uint64_t record_bytes(const GwRecord& rec);
  void apply_record(const GwRecord& rec);
  std::vector<blob::Journal<GwRecord>::Entry> encode_checkpoint(
      std::vector<blob::Journal<GwRecord>::Entry> previous,
      const std::vector<blob::Journal<GwRecord>::Entry>& tail) const;
  void wipe();
  void on_readable(const blob::RecoveryOutcome&);

  rpc::Node& node_;
  blob::BlobClient::Endpoints endpoints_;
  GatewayOptions options_;
  std::map<std::string, Bucket> buckets_;
  std::map<std::uint64_t, blob::BlobClient> clients_;
  GatewayStats stats_;

  ChunkIndex chunk_index_;
  BlobId store_blob_{};
  /// In-flight store barrier per chunk hash: the first writer stores, the
  /// rest wait on the event and re-check the index.
  std::map<std::uint64_t, std::shared_ptr<sim::Event>> pending_stores_;
  std::shared_ptr<sim::Event> store_creating_;
  std::uint64_t nonce_{0};  ///< uniquifier for dedup-off chunk hashes
  std::map<std::uint64_t, Mpu> mpus_;
  std::uint64_t next_upload_id_{1};

  blob::Durable<S3Gateway, GwRecord> durable_;
};

}  // namespace bs::cloud
