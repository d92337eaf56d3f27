#include "repl/version_map.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace bs::repl {

void VersionMap::note_published(BlobId blob, blob::Version v) {
  Region& r = region(blob);
  r.latest_known = std::max(r.latest_known, v);
}

bool VersionMap::note_applied(BlobId blob, blob::Version v) {
  Region& r = region(blob);
  r.latest_known = std::max(r.latest_known, v);
  return r.applied.insert(v).second;
}

void VersionMap::retire(BlobId blob, blob::Version v) {
  auto it = regions_.find(blob.value);
  if (it == regions_.end()) return;
  it->second.applied.erase(v);
  it->second.retired.insert(v);
}

void VersionMap::drop_region(BlobId blob) { regions_.erase(blob.value); }

bool VersionMap::has_applied(BlobId blob, blob::Version v) const {
  auto it = regions_.find(blob.value);
  return it != regions_.end() && it->second.applied.count(v) > 0;
}

blob::Version VersionMap::latest_known(BlobId blob) const {
  auto it = regions_.find(blob.value);
  return it == regions_.end() ? 0 : it->second.latest_known;
}

VersionRange VersionMap::range_against(const VersionMap& origin,
                                       BlobId blob) const {
  auto oit = origin.regions_.find(blob.value);
  if (oit == origin.regions_.end()) return VersionRange{};
  const Region& orig = oit->second;

  auto it = regions_.find(blob.value);
  static const Region kEmpty{};
  const Region& mine = it == regions_.end() ? kEmpty : it->second;

  // Walk the origin's published versions in order; the coherent frontier
  // stops at the first one this site has neither applied nor been excused
  // from (retired at either end).
  VersionRange range;
  range.latest = std::max(orig.latest_known, mine.latest_known);
  for (blob::Version v : orig.applied) {
    if (mine.applied.count(v) == 0 && mine.retired.count(v) == 0 &&
        orig.retired.count(v) == 0) {
      return range;
    }
    range.earliest = v;
  }
  // Every published version is covered — coherent regardless of aborted
  // version-number gaps below latest_known.
  range.earliest = range.latest;
  return range;
}

bool VersionMap::is_coherent_against(const VersionMap& origin) const {
  for (const auto& [blob, orig] : origin.regions_) {
    if (orig.applied.empty()) continue;
    if (!range_against(origin, BlobId{blob}).is_coherent()) return false;
  }
  return true;
}

std::vector<MissingRange> VersionMap::missing_from(
    const VersionMap& origin) const {
  std::vector<MissingRange> out;
  static const Region kEmpty{};
  for (const auto& [blob, orig] : origin.regions_) {
    auto it = regions_.find(blob);
    const Region& mine = it == regions_.end() ? kEmpty : it->second;
    MissingRange cur;
    bool open = false;
    for (blob::Version v : orig.applied) {
      const bool missing = mine.applied.count(v) == 0 &&
                           mine.retired.count(v) == 0 &&
                           orig.retired.count(v) == 0;
      if (missing) {
        if (!open) {
          cur = MissingRange{blob, v, v, 1};
          open = true;
        } else {
          cur.to = v;
          ++cur.count;
        }
      } else if (open) {
        out.push_back(cur);
        open = false;
      }
    }
    if (open) out.push_back(cur);
  }
  return out;
}

void VersionMap::merge_latest(const VersionMap& other) {
  for (const auto& [blob, r] : other.regions_) {
    note_published(BlobId{blob}, r.latest_known);
  }
}

std::vector<VersionMap::WireRegion> VersionMap::encode_wire() const {
  std::vector<WireRegion> out;
  out.reserve(regions_.size());
  for (const auto& [blob, r] : regions_) {
    WireRegion w;
    w.blob = blob;
    w.latest_known = r.latest_known;
    w.applied.assign(r.applied.begin(), r.applied.end());
    w.retired.assign(r.retired.begin(), r.retired.end());
    out.push_back(std::move(w));
  }
  return out;
}

VersionMap VersionMap::decode_wire(const std::vector<WireRegion>& regions) {
  VersionMap m;
  for (const WireRegion& w : regions) {
    Region& r = m.regions_[w.blob];
    r.latest_known = w.latest_known;
    r.applied.insert(w.applied.begin(), w.applied.end());
    r.retired.insert(w.retired.begin(), w.retired.end());
  }
  return m;
}

std::uint64_t VersionMap::digest() const {
  Digest d;
  d.mix(regions_.size());
  for (const auto& [blob, r] : regions_) {
    d.mix(blob);
    d.mix(r.latest_known);
    d.mix(r.applied.size());
    for (blob::Version v : r.applied) d.mix(v);
    d.mix(r.retired.size());
    for (blob::Version v : r.retired) d.mix(v);
  }
  return d.value();
}

std::uint64_t VersionMap::applied_count() const {
  std::uint64_t n = 0;
  for (const auto& [blob, r] : regions_) n += r.applied.size();
  return n;
}

}  // namespace bs::repl
