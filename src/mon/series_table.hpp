// Interned per-series storage shared by the monitoring storage server and
// the introspection layer. The hot path — one append per aggregated record —
// used to walk a std::map<RecordKey, TimeSeries> (pointer-chasing tree,
// three-field comparisons per level); interning replaces it with one hash of
// the 16-byte POD key into a dense id, and appends index a flat vector.
//
// Determinism: ids are assigned in first-touch order, which the simulation's
// total event order fixes; nothing derived from the unordered index's
// iteration order may reach the wire or a golden output — every externally
// visible enumeration goes through sorted_keys()/for_each_sorted(), which
// reproduce exactly the iteration order of the std::map this replaces.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/timeseries.hpp"
#include "mon/record.hpp"

namespace bs::mon {

class SeriesTable {
 public:
  using SeriesId = std::uint32_t;

  /// Dense id for `key`, creating an empty series on first touch.
  SeriesId intern(const RecordKey& key) {
    auto [it, inserted] =
        index_.try_emplace(key, static_cast<SeriesId>(entries_.size()));
    if (inserted) entries_.push_back(Entry{key, TimeSeries{}});
    return it->second;
  }

  [[nodiscard]] TimeSeries& at(SeriesId id) { return entries_[id].ts; }
  [[nodiscard]] const TimeSeries& at(SeriesId id) const {
    return entries_[id].ts;
  }

  [[nodiscard]] const TimeSeries* find(const RecordKey& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &entries_[it->second].ts;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Key snapshot in RecordKey order (the wire/golden-output order).
  [[nodiscard]] std::vector<RecordKey> sorted_keys() const {
    std::vector<RecordKey> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.key);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Visits (key, series) pairs in RecordKey order — use for anything whose
  /// result is order-sensitive (wire responses, floating-point accumulation).
  template <class Fn>
  void for_each_sorted(Fn&& fn) const {
    std::vector<SeriesId> ids(entries_.size());
    for (SeriesId i = 0; i < ids.size(); ++i) ids[i] = i;
    std::sort(ids.begin(), ids.end(), [this](SeriesId a, SeriesId b) {
      return entries_[a].key < entries_[b].key;
    });
    for (SeriesId id : ids) fn(entries_[id].key, entries_[id].ts);
  }

  /// Visits every series in unspecified order — only for per-series
  /// transforms with no cross-series or externally visible ordering.
  template <class Fn>
  void for_each_unordered(Fn&& fn) {
    for (Entry& e : entries_) fn(e.key, e.ts);
  }

 private:
  struct Entry {
    RecordKey key;
    TimeSeries ts;
  };

  std::vector<Entry> entries_;
  std::unordered_map<RecordKey, SeriesId> index_;
};

}  // namespace bs::mon
