#include "report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace perfbench {
namespace {

/// Writes `s` as a JSON string literal (the names and details here are
/// plain ASCII; quotes and backslashes are escaped, controls dropped).
void json_string(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      std::fputc(c, out);
    }
  }
  std::fputc('"', out);
}

/// Full-precision number; JSON has no NaN/Inf, so those become -1.
void json_number(std::FILE* out, double v) {
  if (!std::isfinite(v)) v = -1;
  std::fprintf(out, "%.17g", v);
}

}  // namespace

void Report::sim(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  sim_.push_back({name, value, unit, samples});
}

void Report::latency(const std::string& prefix,
                     std::vector<double> samples_ms) {
  const auto n = static_cast<std::uint64_t>(samples_ms.size());
  if (n < 20) return;  // the median needs ten samples beyond it too
  sim(prefix + "_p50_ms", quantile(samples_ms, 0.50), "ms", n);
  for (const auto& [q, tag] : {std::pair{0.99, "p99"}, std::pair{0.95, "p95"},
                               std::pair{0.90, "p90"}}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) {
      sim(prefix + "_" + tag + "_ms", quantile(samples_ms, q), "ms", n);
      break;
    }
  }
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_.push_back({name, value, unit, 0});
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

bool Report::all_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

void Report::print_json(std::FILE* out, const Options& opt) const {
  std::fprintf(out, "{\"workload\": ");
  json_string(out, opt.workload);
  std::fprintf(out,
               ", \"seed\": %" PRIu64 ", \"traced\": %s, \"smoke\": %s"
               ", \"compiler\": ",
               opt.seed, opt.traced ? "true" : "false",
               opt.smoke ? "true" : "false");
  json_string(out, __VERSION__);
  std::fprintf(out, ", \"build_type\": ");
  json_string(out, PERFBENCH_BUILD_TYPE);
  std::fprintf(out, ", \"setup_s\": ");
  json_number(out, setup_s);
  std::fprintf(out, ", \"wall_s\": ");
  json_number(out, wall_s);
  std::fprintf(out, ", \"teardown_s\": ");
  json_number(out, teardown_s);
  std::fprintf(out, ", \"peak_rss_mb\": ");
  json_number(out, peak_rss_mb);
  std::fprintf(out,
               ", \"events\": %" PRIu64 ", \"attempted\": %" PRIu64
               ", \"failed\": %" PRIu64 ", \"sim_digest\": \"%016" PRIx64
               "\"",
               events, attempted, failed, digest.value());
  const auto metrics = [out](const char* key, const std::vector<Metric>& ms,
                             bool with_samples) {
    std::fprintf(out, ", \"%s\": {", key);
    for (std::size_t i = 0; i < ms.size(); ++i) {
      std::fprintf(out, "%s", i ? ", " : "");
      json_string(out, ms[i].name);
      std::fprintf(out, ": {\"value\": ");
      json_number(out, ms[i].value);
      std::fprintf(out, ", \"unit\": ");
      json_string(out, ms[i].unit);
      if (with_samples) {
        std::fprintf(out, ", \"samples\": %" PRIu64, ms[i].samples);
      }
      std::fprintf(out, "}");
    }
    std::fprintf(out, "}");
  };
  metrics("sim", sim_, true);
  metrics("layer", layer_, false);
  std::fprintf(out, ", \"checks\": [");
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    std::fprintf(out, "%s{\"name\": ", i ? ", " : "");
    json_string(out, checks_[i].name);
    std::fprintf(out, ", \"ok\": %s, \"detail\": ",
                 checks_[i].ok ? "true" : "false");
    json_string(out, checks_[i].detail);
    std::fprintf(out, "}");
  }
  std::fprintf(out, "]}\n");
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the data at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb < 0 ? -1 : static_cast<double>(kb) / 1024.0;
}

}  // namespace perfbench
