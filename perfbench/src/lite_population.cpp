// lite_population: about 10^6 pooled workload::LiteClientPool clients over
// the 9-site grid5000 topology, with the simulation sharded into the
// topology's site lanes (the pool declares its load, so the far ladder
// engages). No RPC, flow, blob or monitoring code runs: this isolates the
// sim kernel. The seed is the pool's own seed (arrival phases, cross-site
// choices).
#include <memory>

#include "common/hash.hpp"
#include "net/topology.hpp"
#include "report.hpp"
#include "trace_fold.hpp"
#include "workload/lite_clients.hpp"

namespace perfbench {

using namespace bs;

void run_lite_population(const Options& opt, Report& rep) {
  workload::LiteParams params;
  params.clients = opt.smoke ? 20'000 : 1'000'000;
  params.end = simtime::minutes(opt.smoke ? 10 : 20);
  params.seed = hash_combine(0x11e7'c11eull, opt.seed);
  Tracer tracer(opt.traced);

  // The pool keeps a reference to the topology: it outlives the pool.
  struct Env {
    sim::Simulation sim;
    net::Topology topo = net::Topology::grid5000(9);
    std::unique_ptr<workload::LiteClientPool> pool;
  };

  auto env = timed_build(rep, [&] {
    auto e = std::make_unique<Env>();
    tracer.attach(e->sim);
    e->sim.configure_sites(e->topo.site_count(),
                           e->topo.min_cross_site_latency());
    e->pool =
        std::make_unique<workload::LiteClientPool>(e->sim, e->topo, params);
    e->pool->start();
    return e;
  });

  const auto t_run = Clock::now();
  // Ticks past params.end are not rescheduled; the last cross-site
  // messages land within one WAN latency after it.
  const SimTime drain = params.end + simtime::minutes(1);
  while (env->sim.now() < drain) {
    env->sim.run_until(std::min(drain, env->sim.now() + simtime::minutes(1)));
    tracer.poll();
  }
  rep.events = env->sim.events_processed();

  const auto& pool = *env->pool;
  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
  std::size_t idle_sites = 0;
  for (std::size_t s = 0; s < pool.sites(); ++s) {
    const auto& st = pool.site_stats(s);
    sent += st.cross_sent;
    recv += st.cross_recv;
    if (st.ops == 0) ++idle_sites;
  }
  rep.attempted = pool.total_ops();
  rep.digest.mix(pool.digest());
  rep.digest.mix(rep.attempted);
  rep.sim("client_ops", static_cast<double>(rep.attempted), "count",
          rep.attempted);
  rep.sim("failed_op_share", 0.0, "ratio", rep.attempted);

  rep.check("lite.queue_drained", env->sim.pending() == 0,
            std::to_string(env->sim.pending()) + " events left");
  rep.check("lite.cross_site_delivered", sent == recv,
            std::to_string(recv) + "/" + std::to_string(sent) +
                " cross-site messages delivered");
  rep.check("lite.every_site_active", idle_sites == 0 && rep.attempted > 0,
            std::to_string(idle_sites) + " idle sites");

  if (tracer.enabled()) {
    tracer.detach();
    rep.layer("sim.events", static_cast<double>(rep.events), "count");
    tracer.report(rep);
  }

  const auto t_down = Clock::now();
  env.reset();
  rep.teardown_s = seconds_since(t_down);
  rep.wall_s = seconds_since(t_run);
}

}  // namespace perfbench
