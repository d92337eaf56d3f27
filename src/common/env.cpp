#include "common/env.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace bs {

std::optional<std::size_t> env_choice(
    const char* name, std::initializer_list<std::string_view> accepted) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  const std::string_view value(raw);
  std::size_t i = 0;
  std::string set;
  for (const std::string_view a : accepted) {
    if (value == a) return i;
    if (!set.empty()) set += '|';
    set.append(a);
    ++i;
  }
  std::fprintf(stderr, "%s=%s: unknown value (accepted: %s)\n", name, raw,
               set.c_str());
  std::exit(2);
}

bool env_switch(const char* name, bool fallback) {
  const auto v = env_choice(name, {"on", "1", "off", "0"});
  return v ? *v < 2 : fallback;
}

}  // namespace bs
