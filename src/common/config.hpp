// Unit literals: byte sizes and durations with suffixes, as the policy
// language writes them.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.hpp"
#include "common/types.hpp"

namespace bs {

/// Accepts suffixed byte sizes: "64KB", "4MiB", "1GB", plain numbers.
Result<std::uint64_t> parse_bytes(const std::string& text);

/// Accepts suffixed durations: "250ms", "10s", "2min", plain ns.
Result<SimDuration> parse_duration(const std::string& text);

}  // namespace bs
