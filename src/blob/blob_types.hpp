// Vocabulary types of the BlobSeer data model: BLOBs are unstructured byte
// ranges split into fixed-size chunks; every write produces a new immutable
// version described by a copy-on-write segment tree over the chunk space.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"

namespace bs::blob {

/// Version numbers are per-blob, dense-ish (aborted writes leave gaps),
/// starting at 1. Version 0 is the empty blob at creation.
using Version = std::uint64_t;
inline constexpr Version kInvalidVersion =
    std::numeric_limits<std::uint64_t>::max();
inline constexpr Version kLatestVersion = kInvalidVersion - 1;

/// Identifies one stored chunk: the blob, the version whose write produced
/// it, and the chunk index in blob space. Chunks are immutable once stored.
struct ChunkKey {
  BlobId blob{};
  Version version{kInvalidVersion};
  std::uint64_t index{0};

  friend constexpr auto operator<=>(const ChunkKey&, const ChunkKey&) =
      default;

  [[nodiscard]] std::uint64_t hash() const {
    return hash_combine(hash_combine(fnv1a_u64(blob.value), version), index);
  }
};

/// Data travelling to/from providers. Large experiment payloads are
/// size+checksum only; small application payloads can carry real bytes
/// (stored verbatim, enabling end-to-end data fidelity in examples/tests).
struct Payload {
  std::uint64_t size{0};
  std::uint64_t checksum{0};
  std::shared_ptr<const std::vector<std::uint8_t>> bytes;  // optional

  static std::uint64_t checksum_of(const std::vector<std::uint8_t>& data) {
    return fnv1a(std::string_view(
        reinterpret_cast<const char*>(data.data()), data.size()));
  }

  static Payload from_bytes(std::vector<std::uint8_t> data) {
    Payload p;
    p.size = data.size();
    p.checksum = checksum_of(data);
    p.bytes = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(data));
    return p;
  }

  /// Synthetic payload: checksum derived from a caller-chosen content id,
  /// so readers can verify without shipping real bytes.
  static Payload synthetic(std::uint64_t size, std::uint64_t content_id) {
    return Payload{size, fnv1a_u64(content_id), nullptr};
  }

  /// Slice `i` of this payload cut into `chunk_size` pieces: a copy of the
  /// real bytes, or for a synthetic payload a slice whose checksum is
  /// derived from this payload's checksum and `i`.
  [[nodiscard]] Payload chunk(std::uint64_t i,
                              std::uint64_t chunk_size) const {
    const std::uint64_t lo = i * chunk_size;
    const std::uint64_t len = std::min(chunk_size, size - lo);
    if (bytes) {
      return from_bytes(std::vector<std::uint8_t>(
          bytes->begin() + static_cast<std::ptrdiff_t>(lo),
          bytes->begin() + static_cast<std::ptrdiff_t>(lo + len)));
    }
    return Payload{len, hash_combine(checksum, i), nullptr};
  }
};

/// Where one chunk lives and what it contains.
struct ChunkDescriptor {
  ChunkKey key;
  std::uint64_t size{0};  ///< valid bytes in this chunk (may be < chunk_size)
  std::uint64_t checksum{0};
  std::vector<NodeId> replicas;

  [[nodiscard]] std::uint64_t wire_size() const {
    return 48 + 8 * replicas.size();
  }
};

/// Published metadata of one blob version.
struct VersionInfo {
  Version version{0};
  std::uint64_t size{0};         ///< logical blob size in bytes
  std::uint64_t root_chunks{0};  ///< segment-tree root coverage (chunks, pow2)
};

/// Static + latest-published state of a blob.
struct BlobDescriptor {
  BlobId id{};
  std::uint64_t chunk_size{0};
  std::uint32_t replication{1};       ///< applied to future writes
  std::uint32_t base_replication{1};  ///< creation-time floor
  SimTime created_at{0};
  SimDuration ttl{0};  ///< 0 = permanent; else removable after expiry
  VersionInfo latest;

  [[nodiscard]] std::uint64_t wire_size() const { return 80; }
};

/// One (possibly still pending) write in a blob's history; the unit of the
/// forward-reference scheme that lets concurrent writers build metadata
/// without reading each other's uncommitted tree nodes.
struct WriteExtent {
  Version version{kInvalidVersion};
  std::uint64_t first_chunk{0};
  std::uint64_t chunk_count{0};
  /// Root coverage of this version's tree (needed to know whether a
  /// borrowed subtree is taller than the tree it borrows from).
  std::uint64_t root_chunks{0};

  [[nodiscard]] bool overlaps(std::uint64_t lo_chunk,
                              std::uint64_t count) const {
    return first_chunk < lo_chunk + count &&
           lo_chunk < first_chunk + chunk_count;
  }
};

constexpr std::uint64_t next_pow2(std::uint64_t v) {
  if (v <= 1) return 1;
  --v;
  v |= v >> 1;
  v |= v >> 2;
  v |= v >> 4;
  v |= v >> 8;
  v |= v >> 16;
  v |= v >> 32;
  return v + 1;
}

constexpr std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

}  // namespace bs::blob

namespace std {
template <>
struct hash<bs::blob::ChunkKey> {
  size_t operator()(const bs::blob::ChunkKey& k) const noexcept {
    return static_cast<size_t>(k.hash());
  }
};
}  // namespace std
