// Production-scale population bench: 10^6 pooled lite clients with
// phase-shifted diurnal arrival curves over the 9-site grid5000 topology.
// Runs the same workload through both event-queue configurations —
//   heap   : the pool does not declare its size; the queue stays the pure
//            4-ary heap (the oracle)
//   ladder : the pool declares its size (Simulation::reserve), engaging the
//            far ladder
// — asserting digest and event-count equality between them and reporting
// events/sec, wall time, peak RSS per mode and the host fingerprint as JSON
// (redirect to BENCH_sim_queue.json).
//
// Not a google-benchmark binary: one run is tens of millions of events, so
// the bench controls its own repetitions and measures whole-run wall time.
//
// bslint: allow-file(det-wallclock): benchmark harness timing; the
// simulated workload itself is wall-clock-free.

#include <unistd.h>

#include <cinttypes>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "workload/lite_clients.hpp"

namespace {

struct Options {
  std::size_t clients = 1'000'000;
  std::size_t sites = 9;
  long sim_minutes = 120;
  std::uint64_t seed = 0x11e7'c11e'7001ull;
  int repeat = 3;      // best-of-N wall time per mode (noise control)
  bool smoke = false;  // small population + fail on digest mismatch
};

struct ModeResult {
  const char* mode;
  double wall_s;
  std::uint64_t events;
  std::uint64_t ops;
  std::uint64_t digest;
  long peak_rss_mb;
};

long peak_rss_mb() {
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
  return kb < 0 ? -1 : kb / 1024;
}

// Resets the VmHWM high-water mark to the current RSS, so each mode reports
// its own peak rather than inheriting an earlier mode's. Best effort: where
// the kernel refuses, later modes read the process-wide peak.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon == nullptr) break;
      model = colon + 1;
      model.erase(0, model.find_first_not_of(" \t"));
      model.erase(model.find_last_not_of(" \t\n") + 1);
      break;
    }
  }
  std::fclose(f);
  return model;
}

ModeResult run_once(const char* mode, const Options& opt, bool ladder) {
  reset_peak_rss();
  bs::sim::Simulation sim;
  bs::net::Topology topo = bs::net::Topology::grid5000(opt.sites);
  bs::workload::LiteParams params;
  params.clients = opt.clients;
  params.end = bs::simtime::minutes(opt.sim_minutes);
  params.seed = opt.seed;
  params.reserve_queue = ladder;
  bs::workload::LiteClientPool pool(sim, topo, params);
  pool.start();

  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();

  ModeResult r;
  r.mode = mode;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events = sim.events_processed();
  r.ops = pool.total_ops();
  r.digest = pool.digest();
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

// Wall-clock noise control: the simulated run is bit-identical every time
// (same digest, same event count — verified here), so repeats only sample
// machine jitter and the fastest run is the honest throughput estimate.
ModeResult run_mode(const char* mode, const Options& opt, bool ladder) {
  ModeResult best = run_once(mode, opt, ladder);
  for (int i = 1; i < opt.repeat; ++i) {
    const ModeResult r = run_once(mode, opt, ladder);
    if (r.digest != best.digest || r.events != best.events) {
      std::fprintf(stderr, "FAIL: %s mode not reproducible across repeats\n",
                   mode);
      std::exit(1);
    }
    if (r.wall_s < best.wall_s) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--clients=", 0) == 0) {
      opt.clients = std::strtoull(val().c_str(), nullptr, 10);
    } else if (arg.rfind("--sites=", 0) == 0) {
      opt.sites = std::strtoull(val().c_str(), nullptr, 10);
    } else if (arg.rfind("--sim-minutes=", 0) == 0) {
      opt.sim_minutes = std::strtol(val().c_str(), nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = std::strtoull(val().c_str(), nullptr, 10);
    } else if (arg.rfind("--repeat=", 0) == 0) {
      opt.repeat = static_cast<int>(std::strtol(val().c_str(), nullptr, 10));
      if (opt.repeat < 1) opt.repeat = 1;
    } else if (arg == "--smoke") {
      opt.smoke = true;
      opt.clients = 20'000;
      opt.sim_minutes = 30;
      opt.repeat = 1;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--clients=N] [--sites=N] [--sim-minutes=N] "
                   "[--seed=N] [--repeat=N] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }

  const ModeResult results[] = {run_mode("heap", opt, /*ladder=*/false),
                                run_mode("ladder", opt, /*ladder=*/true)};
  constexpr int n = 2;
  const bool digests_equal = results[0].digest == results[1].digest;
  const bool events_equal = results[0].events == results[1].events;

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_million_clients\",\n");
  std::printf("  \"host\": {\"cpu\": \"%s\", \"nproc\": %ld, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\"},\n",
              cpu_model().c_str(), sysconf(_SC_NPROCESSORS_ONLN), __VERSION__,
              BS_BUILD_TYPE);
  std::printf("  \"clients\": %zu,\n", opt.clients);
  std::printf("  \"sites\": %zu,\n", opt.sites);
  std::printf("  \"sim_minutes\": %ld,\n", opt.sim_minutes);
  std::printf("  \"seed\": %" PRIu64 ",\n", opt.seed);
  std::printf("  \"repeat\": %d,\n", opt.repeat);
  std::printf("  \"digests_equal\": %s,\n", digests_equal ? "true" : "false");
  std::printf("  \"events_equal\": %s,\n", events_equal ? "true" : "false");
  std::printf("  \"modes\": [\n");
  for (int i = 0; i < n; ++i) {
    const ModeResult& r = results[i];
    std::printf("    {\"mode\": \"%s\", \"wall_s\": %.3f, "
                "\"events\": %" PRIu64 ", \"events_per_sec\": %.0f, "
                "\"ops\": %" PRIu64 ", "
                "\"digest\": \"%016" PRIx64 "\", \"peak_rss_mb\": %ld}%s\n",
                r.mode, r.wall_s, r.events,
                r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0.0,
                r.ops, r.digest, r.peak_rss_mb,
                i + 1 < n ? "," : "");
  }
  std::printf("  ],\n");
  const double speedup =
      results[0].wall_s > 0 && results[1].wall_s > 0
          ? results[0].wall_s / results[1].wall_s
          : 0.0;
  std::printf("  \"ladder_speedup_over_heap\": %.2f\n", speedup);
  std::printf("}\n");

  if (!digests_equal || !events_equal) {
    std::fprintf(stderr,
                 "FAIL: digests or event counts differ across queue modes\n");
    return 1;
  }
  return 0;
}
