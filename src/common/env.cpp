#include "common/env.hpp"

#include <charconv>
#include <cinttypes>
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

std::uint64_t env_count(const char* name, std::uint64_t fallback,
                        std::uint64_t min, std::uint64_t max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const std::string_view value(raw);
  std::uint64_t v = 0;
  // from_chars takes no sign, space or prefix for an unsigned type, and
  // reports a value beyond 64 bits as out of range.
  const auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), v);
  if (!value.empty() && ec == std::errc{} &&
      end == value.data() + value.size() && v >= min && v <= max) {
    return v;
  }
  std::fprintf(stderr,
               "%s=%s: unknown value (accepted: decimal count in [%" PRIu64
               ", %" PRIu64 "])\n",
               name, raw, min, max);
  std::exit(2);
}

}  // namespace bs
