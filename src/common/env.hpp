// BS_* environment knobs, parsed one way. A knob is read where its default
// lives (the component's constructor or options factory); an unset knob
// keeps that default, and a value outside the knob's accepted set is a
// usage error: the variable, the value and the accepted set go to stderr
// and the process exits with status 2. A typo can therefore never turn an
// ablation into a comparison of a mode against itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string_view>

namespace bs {

/// Index of the value of `name` within `accepted`, or nullopt when the
/// variable is unset. Exits with status 2 on any other value.
std::optional<std::size_t> env_choice(
    const char* name, std::initializer_list<std::string_view> accepted);

/// On/off switch taking exactly on|1|off|0; `fallback` when unset.
/// Exits with status 2 on any other value.
bool env_switch(const char* name, bool fallback);

/// Count taking exactly a string of decimal digits whose value lies in
/// [min, max]; `fallback` when unset. Exits with status 2 on any other
/// value, so a typo such as `abc` can never read as 0.
std::uint64_t env_count(
    const char* name, std::uint64_t fallback, std::uint64_t min,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace bs
