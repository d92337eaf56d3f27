#include "cloud/dedup_index.hpp"

#include <cassert>

#include "common/hash.hpp"

namespace bs::cloud {

ChunkIndex::Entry* ChunkIndex::find(std::uint64_t hash) {
  auto it = entries_.find(hash);
  return it == entries_.end() ? nullptr : &it->second;
}

const ChunkIndex::Entry* ChunkIndex::find(std::uint64_t hash) const {
  auto it = entries_.find(hash);
  return it == entries_.end() ? nullptr : &it->second;
}

ChunkIndex::Entry& ChunkIndex::insert(const ChunkRef& ref,
                                      std::vector<NodeId> replicas) {
  auto [it, inserted] = entries_.emplace(ref.hash, Entry{});
  assert(inserted && "chunk hash already indexed");
  it->second.ref = ref;
  it->second.replicas = std::move(replicas);
  it->second.pending = 1;
  return it->second;
}

void ChunkIndex::pin(std::uint64_t hash) {
  if (Entry* e = find(hash)) ++e->pending;
}

std::optional<ChunkIndex::Entry> ChunkIndex::maybe_reclaim(
    std::map<std::uint64_t, Entry>::iterator it) {
  if (it->second.refs > 0 || it->second.pending > 0) return std::nullopt;
  Entry out = std::move(it->second);
  entries_.erase(it);
  return out;
}

std::optional<ChunkIndex::Entry> ChunkIndex::unpin(const ChunkRef& ref) {
  auto it = entries_.find(ref.hash);
  if (it == entries_.end()) return std::nullopt;
  if (it->second.ref.store_index != ref.store_index) return std::nullopt;
  if (it->second.pending > 0) --it->second.pending;
  return maybe_reclaim(it);
}

void ChunkIndex::commit_ref(const ChunkRef& ref) {
  // Tolerates a missing or regenerated entry: a failed post-recovery
  // verification may force-drop a hash another in-flight operation still
  // holds a pin on, and the content may then be re-stored under the same
  // hash at a new store index.
  Entry* e = find(ref.hash);
  if (e == nullptr || e->ref.store_index != ref.store_index) return;
  if (e->pending > 0) --e->pending;
  ++e->refs;
}

void ChunkIndex::add_ref(const ChunkRef& ref) {
  Entry* e = find(ref.hash);
  if (e == nullptr || e->ref.store_index != ref.store_index) return;
  ++e->refs;
}

std::optional<ChunkIndex::Entry> ChunkIndex::release(const ChunkRef& ref) {
  auto it = entries_.find(ref.hash);
  if (it == entries_.end()) return std::nullopt;
  if (it->second.ref.store_index != ref.store_index) return std::nullopt;
  if (it->second.refs == 0) return std::nullopt;  // dropped + re-inserted
  --it->second.refs;
  return maybe_reclaim(it);
}

void ChunkIndex::drop(std::uint64_t hash) { entries_.erase(hash); }

void ChunkIndex::apply_insert(const ChunkRef& ref,
                              std::vector<NodeId> replicas,
                              std::uint64_t refs) {
  Entry& e = entries_[ref.hash];
  e.ref = ref;
  e.replicas = std::move(replicas);
  e.refs = refs;
  e.pending = 0;
}

void ChunkIndex::apply_ref(std::uint64_t hash, std::uint64_t store_index) {
  Entry* e = find(hash);
  if (e == nullptr || e->ref.store_index != store_index) return;
  ++e->refs;
}

void ChunkIndex::apply_release(std::uint64_t hash,
                               std::uint64_t store_index) {
  auto it = entries_.find(hash);
  if (it == entries_.end()) return;
  if (it->second.ref.store_index != store_index) return;
  if (it->second.refs > 0) --it->second.refs;
  if (it->second.refs == 0) entries_.erase(it);
}

void ChunkIndex::clear() { entries_.clear(); }

void ChunkIndex::invalidate_verification() {
  for (auto& [hash, e] : entries_) e.verified = false;
}

std::uint64_t ChunkIndex::digest() const {
  std::uint64_t d = fnv1a_u64(entries_.size());
  for (const auto& [hash, e] : entries_) {
    d = hash_combine(d, hash);
    d = hash_combine(d, e.ref.size);
    d = hash_combine(d, e.ref.checksum);
    d = hash_combine(d, e.ref.store_version);
    d = hash_combine(d, e.ref.store_index);
    d = hash_combine(d, e.refs);
    d = hash_combine(d, e.replicas.size());
  }
  return d;
}

}  // namespace bs::cloud
