#include "graph.hpp"

#include <algorithm>

namespace bs::lint {

const std::vector<FuncRef>* ProjectIndex::candidates(
    const std::string& name) const {
  auto it = by_name.find(name);
  return it == by_name.end() ? nullptr : &it->second;
}

ProjectIndex link_index(std::vector<FileIndex> files) {
  ProjectIndex pi;
  std::sort(files.begin(), files.end(),
            [](const FileIndex& a, const FileIndex& b) {
              return a.path < b.path;
            });
  pi.files = std::move(files);
  for (std::size_t f = 0; f < pi.files.size(); ++f) {
    for (std::size_t g = 0; g < pi.files[f].funcs.size(); ++g) {
      pi.by_name[pi.files[f].funcs[g].name].push_back({f, g});
    }
  }
  return pi;
}

}  // namespace bs::lint
