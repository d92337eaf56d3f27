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
  if (number < 0) {
    return Error{Errc::parse_error, "negative byte size"};
  }
  return static_cast<std::uint64_t>(number * mult);
}

Result<SimDuration> parse_duration(const std::string& text) {
  auto ns = split_number_suffix(text);
  if (!ns.ok()) return ns.error();
  const auto& [number, suffix] = ns.value();
  if (suffix.empty() || suffix == "ns") {
    return static_cast<SimDuration>(number);
  }
  if (suffix == "us") return simtime::micros(number);
  if (suffix == "ms") return simtime::millis(number);
  if (suffix == "s" || suffix == "sec") return simtime::seconds(number);
  if (suffix == "min" || suffix == "m") return simtime::minutes(number);
  if (suffix == "h") return simtime::minutes(number * 60.0);
  return Error{Errc::parse_error, "unknown duration suffix: '" + suffix + "'"};
}

}  // namespace bs
