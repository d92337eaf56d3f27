// Refcounted content-addressed chunk index for the S3 gateway. Maps a chunk
// hash to where the chunk lives in the shared store blob, how many manifest
// occurrences reference it, and how many in-flight operations are pinning
// it. The container is a std::map on purpose: checkpoint encoding and state
// digests iterate it, and both must be deterministic across replays
// (bslint's det-custody-order ban on unordered containers covers src/cloud).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "cloud/s3_types.hpp"

namespace bs::cloud {

class ChunkIndex {
 public:
  struct Entry {
    ChunkRef ref;
    std::vector<NodeId> replicas;  ///< providers holding the stored chunk
    std::uint64_t refs{0};     ///< committed manifest occurrences
    std::uint32_t pending{0};  ///< in-flight holds (never journaled)
    /// Cleared after a journal recovery: the providers may have lost the
    /// chunk independently, so the first dedup hit re-probes presence.
    bool verified{true};
  };

  [[nodiscard]] Entry* find(std::uint64_t hash);
  [[nodiscard]] const Entry* find(std::uint64_t hash) const;

  /// Registers a freshly stored chunk, held by the inserting operation
  /// (pending = 1) until the manifest commit converts the hold into a ref.
  Entry& insert(const ChunkRef& ref, std::vector<NodeId> replicas);

  /// Pins an existing entry so no concurrent release can reclaim it while
  /// an operation is mid-flight against it.
  void pin(std::uint64_t hash);

  // The hold/ref mutators below take the caller's full ChunkRef, not just
  // the hash: an entry that failed post-recovery verification is dropped
  // and may be re-inserted under the same hash at a new store index. A
  // stale manifest must not move the fresh generation's counts, so every
  // mutation no-ops unless the caller's store_index matches the entry's.

  /// Drops an in-flight hold. Returns the erased entry when this was the
  /// last hold on a zero-ref chunk, i.e. the caller must reclaim it.
  std::optional<Entry> unpin(const ChunkRef& ref);

  /// Converts one in-flight hold into a committed manifest reference.
  void commit_ref(const ChunkRef& ref);

  /// Adds a committed reference directly (delta-sync sharing of a chunk
  /// that the base manifest keeps alive for the duration of the call).
  void add_ref(const ChunkRef& ref);

  /// Drops one committed reference; returns the erased entry when the
  /// chunk became unreferenced and unpinned (reclaim it). Tolerates
  /// unknown hashes (entry force-dropped after a failed verification).
  std::optional<Entry> release(const ChunkRef& ref);

  /// Force-erases an entry whose stored chunk is gone (verification
  /// failure after recovery); later releases of the hash become no-ops.
  void drop(std::uint64_t hash);

  // Replay-side appliers (no pending holds exist during replay).
  void apply_insert(const ChunkRef& ref, std::vector<NodeId> replicas,
                    std::uint64_t refs);
  void apply_ref(std::uint64_t hash, std::uint64_t store_index);
  void apply_release(std::uint64_t hash, std::uint64_t store_index);

  void clear();
  /// Marks every entry unverified (call after a journal recovery).
  void invalidate_verification();

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t digest() const;
  [[nodiscard]] const std::map<std::uint64_t, Entry>& entries() const {
    return entries_;
  }

 private:
  std::optional<Entry> maybe_reclaim(
      std::map<std::uint64_t, Entry>::iterator it);

  std::map<std::uint64_t, Entry> entries_;
};

}  // namespace bs::cloud
