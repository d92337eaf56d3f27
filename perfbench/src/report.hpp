// Result record of one benchmark process: host-time boundaries, the
// simulated end-to-end metrics (each with its sample count), the per-layer
// split of a traced run, the correctness checks and the simulation digest.
// A process runs exactly one workload once and prints the record as one
// JSON line; perfbench/run.py aggregates records across processes.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  bool traced{false};  ///< install the trace sink + metrics registry
  bool smoke{false};   ///< small inputs: exercise every path quickly
};

/// Order-sensitive 64-bit mixer for the simulation digest. Only simulated
/// outcomes are folded in — never host time and never event counts, which
/// a host-side optimisation may legitimately change.
class Digest {
 public:
  void mix(std::uint64_t x) {
    v_ ^= x + 0x9e3779b97f4a7c15ull + (v_ << 6) + (v_ >> 2);
  }
  void mix_signed(std::int64_t x) { mix(static_cast<std::uint64_t>(x)); }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_{0xcbf29ce484222325ull};
};

class Report {
 public:
  /// A simulated (deterministic under the seed) end-to-end metric.
  void sim(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples);
  /// Median and the highest of p99/p95/p90 that has at least ten samples
  /// beyond it, named `<prefix>_p50_ms` / `<prefix>_pNN_ms`. Nothing is
  /// reported for fewer than twenty samples.
  void latency(const std::string& prefix, std::vector<double> samples_ms);
  /// A per-layer metric of the traced run.
  void layer(const std::string& name, double value, const std::string& unit);
  void check(const std::string& name, bool ok, const std::string& detail);

  double setup_s{0};
  double wall_s{0};
  double teardown_s{0};
  double peak_rss_mb{0};  ///< VmHWM once the workload is torn down
  std::uint64_t attempted{0};  ///< honest ops issued (that completed)
  std::uint64_t failed{0};     ///< of which failed
  std::uint64_t events{0};     ///< simulation events executed
  Digest digest;

  [[nodiscard]] bool all_ok() const;
  void print_json(std::FILE* out, const Options& opt) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::uint64_t samples;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> sim_;
  std::vector<Metric> layer_;
  std::vector<Check> checks_;
};

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
double quantile(std::vector<double>& v, double q);

/// VmHWM of this process in MB (-1 when /proc is unavailable).
double peak_rss_mb();

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Builds a workload's initial state (stack + seeded state) once, in the
/// fresh process, and records the host time it took as rep.setup_s: the
/// set-up cost a user of the simulator pays on every run, page faults of
/// the first allocations included.
template <class Build>
auto timed_build(Report& rep, Build&& build) {
  const auto t0 = Clock::now();
  auto env = build();
  rep.setup_s = seconds_since(t0);
  return env;
}

void run_dos_flood(const Options& opt, Report& rep);
void run_lite_population(const Options& opt, Report& rep);
void run_s3_mixed(const Options& opt, Report& rep);

}  // namespace perfbench
