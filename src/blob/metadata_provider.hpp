// Metadata provider actor: a partition of the distributed segment-tree node
// store. Clients hash NodeKeys across the metadata provider set
// (RemoteMetadataStore below), exactly as BlobSeer distributes its metadata.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blob/journal.hpp"
#include "blob/messages.hpp"
#include "blob/meta_tree.hpp"
#include "rpc/rpc.hpp"

namespace bs::blob {

struct MetadataProviderOptions {
  /// Persistent tree-node store model. Disabled: metadata survives crashes
  /// intact (unless wiped) and restarts are free, as before.
  JournalOptions journal{};
};

class MetadataProvider {
 public:
  using Options = MetadataProviderOptions;

  explicit MetadataProvider(rpc::Node& node, Options options = {});

  [[nodiscard]] NodeId id() const { return node_.id(); }
  [[nodiscard]] std::size_t node_count() const { return count_; }
  [[nodiscard]] std::uint64_t bytes_stored() const { return bytes_; }

  /// True between a journaled crash and the end of journal replay.
  [[nodiscard]] bool recovering() const { return durable_.recovering(); }
  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return durable_.stats();
  }

  /// One write-ahead-journal record of the tree-node store.
  struct JournalRecord {
    enum class Kind : std::uint8_t { put, remove };
    Kind kind{Kind::put};
    NodeKey key{};
    TreeNode node{};
  };

 private:
  friend class Durable<MetadataProvider, JournalRecord>;
  using Entry = Journal<JournalRecord>::Entry;

  /// The stored node at `key`, or nullptr: a recent put, else the
  /// checkpoint image's entry unless a tombstone hides it.
  [[nodiscard]] const TreeNode* find(const NodeKey& key) const;
  [[nodiscard]] const TreeNode* find_in_image(const NodeKey& key) const;
  /// Inserts or overwrites one node, keeping count_ and bytes_ the number
  /// and wire size of the stored nodes.
  void store(const NodeKey& key, const TreeNode& node);
  /// Removes the node at `key`; false if none is stored.
  bool erase(const NodeKey& key);

  // Durable<MetadataProvider, JournalRecord> hooks; the image is the store
  // (image_is_store).
  static std::uint64_t record_bytes(const JournalRecord& rec);
  void apply_record(const JournalRecord& rec);
  /// Folds the tail into the image, then empties recent_ and removed_.
  [[nodiscard]] std::vector<Entry> encode_checkpoint(
      std::vector<Entry> previous, const std::vector<Entry>& tail);
  void adopt_image(const std::vector<Entry>& image);
  /// Drops every stored tree node (a crash loses the in-memory store).
  void wipe() {
    recent_.clear();
    removed_.clear();
    count_ = 0;
    bytes_ = 0;
  }
  void on_readable(const RecoveryOutcome&) {}

  rpc::Node& node_;
  Options options_;
  /// Nodes put since the last checkpoint. With the journal off no
  /// checkpoint is taken, so this holds the whole store.
  std::unordered_map<NodeKey, TreeNode> recent_;
  /// Image keys removed since the last checkpoint (tombstones).
  std::unordered_set<NodeKey> removed_;
  Durable<MetadataProvider, JournalRecord> durable_;
  std::uint64_t count_{0};
  std::uint64_t bytes_{0};
};

// A stored node is two versions and a shared leaf descriptor; a journal
// record adds only its kind and key (the journal Entry adds 8 bytes).
static_assert(sizeof(MetadataProvider::JournalRecord) == 72);

/// Client-side MetadataStore view over a set of metadata providers: each
/// NodeKey deterministically maps to one provider by hash.
class RemoteMetadataStore final : public MetadataStore {
 public:
  RemoteMetadataStore(rpc::Node& self, std::vector<NodeId> providers,
                      ClientId as_client, SimDuration timeout,
                      rpc::RetryPolicy retry = {});

  sim::Task<Result<TreeNode>> get(NodeKey key) override;
  sim::Task<Result<void>> put(NodeKey key, TreeNode node) override;

  /// Traced variants: the underlying RPC spans nest under `parent`.
  sim::Task<Result<TreeNode>> get(NodeKey key, obs::SpanId parent);
  sim::Task<Result<void>> put(NodeKey key, TreeNode node,
                              obs::SpanId parent);

  [[nodiscard]] NodeId provider_for(const NodeKey& key) const;

 private:
  rpc::Node& self_;
  std::vector<NodeId> providers_;
  rpc::CallOptions opts_;
};

}  // namespace bs::blob
