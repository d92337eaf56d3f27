// BS_* environment knobs, parsed one way. A knob is read where its default
// lives (the component's constructor or options factory) and only sets
// that default: an option a caller sets explicitly always wins. An unset
// knob keeps the default, and a value outside the knob's accepted set is a
// usage error: the variable, the value and the accepted set go to stderr
// and the process exits with status 2. A typo can therefore never turn an
// ablation into a comparison of a mode against itself.
#pragma once

#include <cstddef>
#include <initializer_list>
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

}  // namespace bs
