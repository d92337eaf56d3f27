// Reconciliation bench for the custody-based geo-replication plane:
// measures reconciliation lag and custody queue depth as functions of
// partition duration and divergence volume.
//
//   duration sweep   : a 3-site grid5000 cluster, origin publishing one
//                      version per second to both remote sites; the
//                      origin<->site-1 link is cut for 1 / 5 / 30 sim-min.
//                      Custody parks at the origin egress (beyond the queue
//                      bound it spills, so nothing is lost) and drains on
//                      heal; the bench reports peak queue depth and the lag
//                      until `site_coherent()` holds again.
//   divergence sweep : fixed 5 sim-min outage at 4 s / 1 s / 250 ms publish
//                      cadence — the same outage with 4x / 16x the diverged
//                      versions, isolating how reconciliation lag scales
//                      with catch-up volume rather than wall time.
//
// Everything is measured in simulated time, so the numbers are
// bit-identical across machines; the bench replays the whole suite and
// fails if the digest moves. Output is JSON (redirect to BENCH_repl.json).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "fault/fault_plane.hpp"
#include "repl/plane.hpp"

namespace {

using namespace bs;

struct Options {
  std::vector<double> outage_minutes{1.0, 5.0, 30.0};
  std::vector<double> cadence_ms{4000.0, 1000.0, 250.0};
  int repeat = 2;      // full-suite replays; digests must match
  bool smoke = false;  // shortest outage, single cadence
};

struct ScenarioResult {
  double outage_min{0};
  double cadence_ms{0};
  int published{0};  ///< versions published while the link was down
  /// Origin -> partitioned site: peak depth, enqueued and spilled at the
  /// heal; released and reforwards at the end of the run, after custody
  /// drained.
  repl::CustodyQueueStats cut_queue;
  bool all_released{false};  ///< cut_queue released all it took, at the end
  SimDuration observed_lag{0};  ///< heal -> coherent, polled at 50 ms
  SimDuration reported_lag{0};  ///< plane's own reconciliation-lag metric
  std::uint64_t catch_up{0};
  std::uint64_t reconcile_rounds{0};
  std::uint64_t plane_digest{0};
  bool coherent{false};
};

constexpr std::uint64_t kVersionBytes = 64 * units::KB;
constexpr net::SiteId kCutSite = 1;

sim::Task<void> publisher(sim::Simulation& s, repl::ReplicationPlane& plane,
                          SimTime first, SimTime until, SimDuration every,
                          int* published) {
  repl::SiteEgress& origin = plane.egress(plane.origin_site());
  blob::Version v = 0;
  for (SimTime t = first; t < until; t += every) {
    co_await s.delay_until(t);
    ++v;
    origin.note_published(BlobId{1}, v, kVersionBytes);
    for (net::SiteId dst : plane.remote_sites()) {
      origin.enqueue_publish(dst, BlobId{1}, v, kVersionBytes);
    }
    ++*published;
  }
}

// One outage: cut origin<->site-1 at t=5s, publish on a fixed cadence while
// the link is down (plus a 1 s lead-in so the queues see live traffic
// before the cut), heal, then poll until the plane reports coherence.
ScenarioResult run_outage(SimDuration outage, SimDuration cadence) {
  sim::Simulation sim;
  rpc::Cluster cluster(sim, net::Topology::grid5000(3));
  fault::FaultPlane fp(cluster, 0x9EC0ull);
  repl::ReplOptions ro;
  ro.egress.journal.enabled = true;
  ro.reconcile.interval = simtime::seconds(10);
  repl::ReplicationPlane plane(cluster, /*origin_site=*/0, ro);
  plane.attach_fault_plane(fp);
  plane.start();

  const SimTime cut_at = simtime::seconds(5);
  const SimTime heal_at = cut_at + outage;
  fp.schedule({.at = cut_at,
               .kind = fault::FaultEvent::Kind::partition,
               .a = 0,
               .b = kCutSite});
  fp.schedule({.at = heal_at,
               .kind = fault::FaultEvent::Kind::heal,
               .a = 0,
               .b = kCutSite});

  int published = 0;
  sim.spawn(publisher(sim, plane, simtime::seconds(4), heal_at, cadence,
                      &published));

  sim.run_until(heal_at);
  ScenarioResult r;
  if (const auto* st = plane.egress(0).queue_stats(kCutSite)) {
    r.cut_queue = *st;  // depth peaks while the link is down
  }

  // Poll for coherence after the heal; 50 ms quantizes the observed lag
  // but identically so on every run.
  const SimTime deadline = heal_at + simtime::minutes(10);
  while (!plane.coherent() && sim.now() < deadline) {
    sim.run_until(sim.now() + simtime::millis(50));
  }
  r.coherent = plane.coherent();
  r.observed_lag = sim.now() - heal_at;
  // Let in-flight journal commits and the reconciler settle before the
  // digest snapshot.
  sim.run_until(sim.now() + simtime::seconds(30));
  if (const auto* st = plane.egress(0).queue_stats(kCutSite)) {
    r.cut_queue.released = st->released;
    r.cut_queue.reforwards = st->reforwards;
    r.all_released = st->released == st->enqueued;
  }

  r.published = published;
  r.reported_lag = plane.last_reconcile_lag();
  r.catch_up = plane.reconciler().catch_up_scheduled();
  r.reconcile_rounds = plane.reconciler().rounds();
  r.plane_digest = plane.digest();
  return r;
}

double ms(SimDuration d) { return static_cast<double>(d) / 1e6; }

struct SuiteResult {
  std::vector<ScenarioResult> durations;
  std::vector<ScenarioResult> divergence;
  std::uint64_t digest{0};
};

SuiteResult run_suite(const Options& opt) {
  SuiteResult suite;
  for (const double m : opt.outage_minutes) {
    suite.durations.push_back(
        run_outage(simtime::minutes(m), simtime::seconds(1)));
    suite.durations.back().outage_min = m;
    suite.durations.back().cadence_ms = 1000.0;
  }
  if (!opt.smoke) {
    for (const double c : opt.cadence_ms) {
      suite.divergence.push_back(
          run_outage(simtime::minutes(5), simtime::millis(c)));
      suite.divergence.back().outage_min = 5.0;
      suite.divergence.back().cadence_ms = c;
    }
  }

  // The suite digest: any change in a reported counter or sim-time value
  // moves it.
  Digest dg{0x9e3779b97f4a7c15ull};
  auto mix_scenario = [&dg](const ScenarioResult& r) {
    dg.mix(static_cast<std::uint64_t>(r.published));
    dg.mix(r.cut_queue.enqueued);
    dg.mix(r.cut_queue.released);
    dg.mix(r.cut_queue.spilled);
    dg.mix(r.cut_queue.reforwards);
    dg.mix(r.cut_queue.peak_depth);
    dg.mix_signed(r.observed_lag);
    dg.mix_signed(r.reported_lag);
    dg.mix(r.catch_up);
    dg.mix(r.plane_digest);
    dg.mix(r.coherent ? 1 : 0);
  };
  for (const ScenarioResult& r : suite.durations) mix_scenario(r);
  for (const ScenarioResult& r : suite.divergence) mix_scenario(r);
  suite.digest = dg.value();
  return suite;
}

// The claims the bench exists to demonstrate, enforced so bench-smoke
// turns a regression into a hard failure: every outage reconciles to
// coherence, custody is lossless (every bundle enqueued toward the cut
// site is released), peak depth grows with the outage, and a bigger
// diverged backlog never reconciles faster.
bool check_orderings(const SuiteResult& suite) {
  bool ok = true;
  auto fail = [&ok](const char* what, double a, double b) {
    std::fprintf(stderr, "FAIL: ordering '%s' violated (%g min / %g ms)\n",
                 what, a, b);
    ok = false;
  };
  std::uint64_t prev_peak = 0;
  for (const ScenarioResult& r : suite.durations) {
    if (!r.coherent) fail("coherent after heal", r.outage_min, r.cadence_ms);
    if (!r.all_released) {
      fail("every enqueued bundle is released", r.outage_min, r.cadence_ms);
    }
    if (r.cut_queue.peak_depth <= prev_peak) {
      fail("peak depth grows with outage", r.outage_min, r.cadence_ms);
    }
    prev_peak = r.cut_queue.peak_depth;
    if (r.reported_lag < 0 ||
        r.reported_lag > r.observed_lag + simtime::millis(50)) {
      fail("reported lag within observed window", r.outage_min, r.cadence_ms);
    }
  }
  prev_peak = 0;
  SimDuration prev_lag = -1;
  for (const ScenarioResult& r : suite.divergence) {
    if (!r.coherent) fail("coherent after heal", r.outage_min, r.cadence_ms);
    if (!r.all_released) {
      fail("every enqueued bundle is released", r.outage_min, r.cadence_ms);
    }
    if (r.cut_queue.peak_depth <= prev_peak) {
      fail("peak depth grows with divergence", r.outage_min, r.cadence_ms);
    }
    prev_peak = r.cut_queue.peak_depth;
    if (r.observed_lag < prev_lag) {
      fail("lag never shrinks with a bigger backlog", r.outage_min,
           r.cadence_ms);
    }
    prev_lag = r.observed_lag;
  }
  return ok;
}

void print_scenarios(const char* key, const std::vector<ScenarioResult>& v,
                     bool trailing_comma) {
  std::printf("  \"%s\": [\n", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const ScenarioResult& r = v[i];
    std::printf("    {\"outage_min\": %g, \"publish_cadence_ms\": %g, "
                "\"published\": %d, "
                "\"peak_queue_depth\": %" PRIu64 ", "
                "\"enqueued\": %" PRIu64 ", "
                "\"released\": %" PRIu64 ", "
                "\"spilled\": %" PRIu64 ", "
                "\"reforwards\": %" PRIu64 ", "
                "\"reconciliation_lag_ms\": %.1f, "
                "\"reported_lag_ms\": %.1f, "
                "\"catch_up_bundles\": %" PRIu64 ", "
                "\"coherent\": %s}%s\n",
                r.outage_min, r.cadence_ms, r.published,
                r.cut_queue.peak_depth, r.cut_queue.enqueued,
                r.cut_queue.released, r.cut_queue.spilled,
                r.cut_queue.reforwards,
                ms(r.observed_lag), ms(r.reported_lag), r.catch_up,
                r.coherent ? "true" : "false",
                i + 1 < v.size() ? "," : "");
  }
  std::printf("  ]%s\n", trailing_comma ? "," : "");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--repeat=", 0) == 0) {
      opt.repeat = std::atoi(arg.substr(arg.find('=') + 1).c_str());
      if (opt.repeat < 1) opt.repeat = 1;
    } else if (arg == "--smoke") {
      opt.smoke = true;
      opt.outage_minutes = {1.0};
    } else {
      std::fprintf(stderr, "usage: %s [--repeat=N] [--smoke]\n", argv[0]);
      return 2;
    }
  }

  const SuiteResult suite = run_suite(opt);
  bool reproducible = true;
  for (int i = 1; i < opt.repeat; ++i) {
    const SuiteResult again = run_suite(opt);
    reproducible = reproducible && again.digest == suite.digest;
  }
  const bool orderings_ok = check_orderings(suite);

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_reconciliation\",\n");
  std::printf("  \"smoke\": %s,\n", opt.smoke ? "true" : "false");
  std::printf("  \"version_bytes\": %" PRIu64 ",\n", kVersionBytes);
  print_scenarios("partition_duration_sweep", suite.durations, true);
  print_scenarios("divergence_sweep", suite.divergence, true);
  std::printf("  \"orderings_ok\": %s,\n", orderings_ok ? "true" : "false");
  std::printf("  \"reproducible\": %s,\n", reproducible ? "true" : "false");
  std::printf("  \"digest\": \"%016" PRIx64 "\"\n", suite.digest);
  std::printf("}\n");

  if (!reproducible) {
    std::fprintf(stderr, "FAIL: suite digest moved across replays\n");
    return 1;
  }
  return orderings_ok ? 0 : 1;
}
