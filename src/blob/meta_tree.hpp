// Versioned copy-on-write segment tree — BlobSeer's metadata scheme. Each
// blob version has a root covering [0, root_chunks) (power of two); inner
// nodes record, per child half, the version whose tree that half belongs to;
// leaves (single chunks) hold chunk descriptors. Writing a range creates new
// leaves + the inner path above them and *borrows* untouched subtrees from
// earlier versions by version reference, so old versions stay readable
// forever and concurrent writers never mutate shared state.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "blob/blob_types.hpp"
#include "common/result.hpp"
#include "sim/task.hpp"

namespace bs::blob {

/// Identifies one tree node: blob + version that created it + the chunk
/// range it covers (size_chunks is a power of two; 1 = leaf).
struct NodeKey {
  BlobId blob{};
  Version version{kInvalidVersion};
  std::uint64_t offset_chunks{0};
  std::uint64_t size_chunks{0};

  friend constexpr auto operator<=>(const NodeKey&, const NodeKey&) = default;

  [[nodiscard]] bool is_leaf() const { return size_chunks == 1; }

  [[nodiscard]] std::uint64_t hash() const {
    return hash_combine(
        hash_combine(hash_combine(fnv1a_u64(blob.value), version),
                     offset_chunks),
        size_chunks);
  }

  [[nodiscard]] std::uint64_t wire_size() const { return 32; }
};

struct TreeNode {
  // Inner node: versions of the two child subtrees (kInvalidVersion = that
  // half has never been written = hole).
  Version left_version{kInvalidVersion};
  Version right_version{kInvalidVersion};
  bool leaf{false};
  ChunkDescriptor chunk;  ///< meaningful iff leaf

  [[nodiscard]] std::uint64_t wire_size() const {
    return leaf ? 17 + chunk.wire_size() : 17;
  }
};

/// What a write borrows for one subtree [lo, lo+count) of its new tree that
/// it does not overlap: the latest earlier write overlapping that range
/// (kInvalidVersion: none, the subtree is a hole) and the root coverage of
/// that write's tree.
struct BorderVersion {
  std::uint64_t lo{0};
  std::uint64_t count{0};
  Version version{kInvalidVersion};
  std::uint64_t root_chunks{0};

  friend constexpr bool operator==(const BorderVersion&,
                                   const BorderVersion&) = default;

  /// True when the borrowed tree is shorter than the subtree (the root grew
  /// by 2+ levels past it): the write then owns a bridge node here and
  /// borrows both of its halves in turn.
  [[nodiscard]] bool bridges() const {
    return version != kInvalidVersion && lo == 0 && count > root_chunks;
  }
};

/// Abstract metadata node storage. The distributed implementation hashes
/// NodeKeys across metadata providers; tests use the in-memory store.
/// put() must be idempotent: rebuilding a write after an abort-repair
/// overwrites nodes with identical keys.
class MetadataStore {
 public:
  virtual ~MetadataStore() = default;
  // NodeKey is taken by value throughout: key parameters are copied into
  // the coroutine frame, which keeps every implementation safe to suspend
  // regardless of the caller's lifetime (bslint coro-ref-param).
  virtual sim::Task<Result<TreeNode>> get(NodeKey key) = 0;
  virtual sim::Task<Result<void>> put(NodeKey key, TreeNode node) = 0;
};

/// Purely local store for unit tests and single-node deployments.
class InMemoryMetadataStore final : public MetadataStore {
 public:
  sim::Task<Result<TreeNode>> get(NodeKey key) override;
  sim::Task<Result<void>> put(NodeKey key, TreeNode node) override;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

 private:
  struct KeyHash {
    std::size_t operator()(const NodeKey& k) const noexcept {
      return static_cast<std::size_t>(k.hash());
    }
  };
  std::unordered_map<NodeKey, TreeNode, KeyHash> nodes_;
};

}  // namespace bs::blob

namespace std {
template <>
struct hash<bs::blob::NodeKey> {
  size_t operator()(const bs::blob::NodeKey& k) const noexcept {
    return static_cast<size_t>(k.hash());
  }
};
}  // namespace std
