// bslint call graph — links the per-file indices (index.hpp) into one
// project-wide, over-approximate call graph. Resolution is by unqualified
// name: a call site `foo(...)` gains an edge to *every* indexed definition
// named `foo` (all overloads, all classes — over-approximation by design),
// and to none when the name is external. An unresolved call is an "unknown"
// edge: it cannot be traversed, so it cannot surface a sink hidden behind
// it, but it also can never suppress a finding reached another way.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "index.hpp"

namespace bs::lint {

/// Stable reference to one function: (file position, function position) in
/// the sorted-by-path file list.
struct FuncRef {
  std::size_t file{0};
  std::size_t func{0};

  friend auto operator<=>(const FuncRef&, const FuncRef&) = default;
};

struct ProjectIndex {
  std::vector<FileIndex> files;  ///< sorted by path
  /// Unqualified name -> every definition carrying it, in (file, func)
  /// order — resolution and iteration both stay deterministic.
  std::map<std::string, std::vector<FuncRef>> by_name;

  const FuncDef& at(FuncRef r) const { return files[r.file].funcs[r.func]; }
  const FileIndex& file_of(FuncRef r) const { return files[r.file]; }

  /// Candidate definitions for a call-site name; empty = unknown edge.
  const std::vector<FuncRef>* candidates(const std::string& name) const;
};

/// Links per-file indices (sorted by path internally; input order does not
/// matter) into the project graph.
ProjectIndex link_index(std::vector<FileIndex> files);

}  // namespace bs::lint
