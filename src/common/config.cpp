#include "common/config.hpp"

#include <cstdlib>

#include "common/strings.hpp"

namespace bs {

namespace {
struct NumberSuffix {
  double number;
  std::string suffix;
};

Result<NumberSuffix> split_number_suffix(const std::string& text) {
  const auto trimmed = std::string(trim(text));
  char* end = nullptr;
  const double number = std::strtod(trimmed.c_str(), &end);
  if (end == trimmed.c_str()) {
    return Error{Errc::parse_error, "not a number: '" + trimmed + "'"};
  }
  std::string suffix = to_lower(trim(std::string_view(end)));
  return NumberSuffix{number, std::move(suffix)};
}

/// Whether casting `value` to an integer type below `limit` is defined:
/// not negative and under the limit (NaN fails both tests).
bool in_range(double value, double limit) {
  return value >= 0 && value < limit;
}
}  // namespace

Result<std::uint64_t> parse_bytes(const std::string& text) {
  auto ns = split_number_suffix(text);
  if (!ns.ok()) return ns.error();
  const auto& [number, suffix] = ns.value();
  double mult = 1.0;
  if (suffix.empty() || suffix == "b") {
    mult = 1.0;
  } else if (suffix == "kb") {
    mult = static_cast<double>(units::KB);
  } else if (suffix == "mb") {
    mult = static_cast<double>(units::MB);
  } else if (suffix == "gb") {
    mult = static_cast<double>(units::GB);
  } else if (suffix == "kib") {
    mult = static_cast<double>(units::KiB);
  } else if (suffix == "mib") {
    mult = static_cast<double>(units::MiB);
  } else if (suffix == "gib") {
    mult = static_cast<double>(units::GiB);
  } else {
    return Error{Errc::parse_error, "unknown byte suffix: '" + suffix + "'"};
  }
  const double bytes = number * mult;
  if (!in_range(bytes, 0x1p64)) {
    return Error{Errc::parse_error, "byte size out of range: '" + text + "'"};
  }
  return static_cast<std::uint64_t>(bytes);
}

Result<SimDuration> parse_duration(const std::string& text) {
  auto ns = split_number_suffix(text);
  if (!ns.ok()) return ns.error();
  const auto& [number, suffix] = ns.value();
  // Nanoseconds, multiplied in the simtime helpers' order, then checked.
  const auto checked = [&text](double nanos) -> Result<SimDuration> {
    if (in_range(nanos, 0x1p63)) return static_cast<SimDuration>(nanos);
    return Error{Errc::parse_error, "duration out of range: '" + text + "'"};
  };
  constexpr auto kSec = static_cast<double>(simtime::kNanosPerSec);
  if (suffix.empty() || suffix == "ns") return checked(number);
  if (suffix == "us") return checked(number * 1e3);
  if (suffix == "ms") return checked(number * 1e6);
  if (suffix == "s" || suffix == "sec") return checked(number * kSec);
  if (suffix == "min" || suffix == "m") return checked(number * 60.0 * kSec);
  if (suffix == "h") return checked(number * 60.0 * 60.0 * kSec);
  return Error{Errc::parse_error, "unknown duration suffix: '" + suffix + "'"};
}

}  // namespace bs
