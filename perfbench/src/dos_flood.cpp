// dos_flood: the E-C1 self-protection scenario under the MAPE-K loop.
//
// Stack: 56 data providers + 8 metadata providers (DoS-sensitive: one
// request slot, 25 ms service overhead, 64-deep queue), introspection,
// 8 monitoring services, the security framework with the chunk-write
// flood policy, and core::AutonomicController running its protection
// module. Traffic: closed-loop honest writers appending 256 MB at a time
// through blob::BlobClient, and open-loop workload::DosAttacker flooders
// that start at 60 simulated seconds. The seed draws the attack rates
// (stratified over 90-400 req/s, then shuffled), the attackers' own
// streams, the writers' start offsets and their payload content ids.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/hash.hpp"
#include "core/controller.hpp"
#include "core/protection.hpp"
#include "mon/layer.hpp"
#include "report.hpp"
#include "sec/framework.hpp"
#include "trace_fold.hpp"
#include "workload/clients.hpp"

namespace perfbench {
namespace {

using namespace bs;

struct Params {
  int honest{25};
  int attackers{25};
  SimTime attack_start{simtime::seconds(60)};
  SimTime end{simtime::seconds(150)};
  std::uint64_t op_bytes{256 * units::MB};
};

template <class T>
T run_task(sim::Simulation& sim, sim::Task<T> task) {
  std::optional<T> out;
  sim.spawn([](sim::Task<T> t, std::optional<T>& slot) -> sim::Task<void> {
    slot.emplace(co_await std::move(t));
  }(std::move(task), out));
  while (!out.has_value() && sim.step()) {
  }
  return std::move(*out);
}

struct WriterLog {
  std::vector<double> latency_ms;
  std::uint64_t ok{0};
  std::uint64_t failed{0};
  std::uint64_t bytes{0};
  Digest digest;
};

/// Closed-loop honest writer: one 256 MB append at a time, each timed in
/// simulated time; a failed append backs off one second.
// The client and the log are owned by the Env that owns the simulation.
sim::Task<void> honest_writer(sim::Simulation& sim, blob::BlobClient& client,
                              BlobId blob, SimTime start, SimTime end,
                              std::uint64_t op_bytes, std::uint64_t content,
                              WriterLog* log) {
  co_await sim.delay_until(start);
  for (std::uint64_t seq = 0; sim.now() < end; ++seq) {
    obs::Span span;
    if (auto* ts = obs::sink()) {
      span = ts->span("bench.append", "bench", 0,
                      {"client", static_cast<std::int64_t>(client.id().value)});
    }
    const SimTime t0 = sim.now();
    auto r = co_await client.append(
        blob, blob::Payload::synthetic(op_bytes, hash_combine(content, seq)));
    span.end(errc_name(r.code()));
    const SimDuration took = sim.now() - t0;
    if (r.ok()) {
      ++log->ok;
      log->bytes += op_bytes;
      log->latency_ms.push_back(simtime::to_millis(took));
      log->digest.mix(r.value().version);
      log->digest.mix_signed(took);
    } else {
      ++log->failed;
      log->digest.mix(static_cast<std::uint64_t>(r.code()));
      co_await sim.delay(simtime::seconds(1));
    }
  }
}

/// One built scenario. The actors' logs come first and the simulation
/// before the stack: members are destroyed in reverse order, so the stack
/// goes first, then the simulation tears down its suspended actors, and
/// only then do the logs those actors point at disappear.
struct Env {
  std::vector<WriterLog> logs;
  std::vector<workload::AttackerStats> attackers;
  std::vector<std::uint64_t> attacker_ids;
  std::set<std::uint64_t> honest_ids;
  bool setup_ok{true};

  sim::Simulation sim;
  std::unique_ptr<blob::Deployment> dep;
  std::unique_ptr<intro::IntrospectionService> intro;
  std::unique_ptr<mon::MonitoringLayer> monitoring;
  std::unique_ptr<sec::SecurityFramework> security;
  std::unique_ptr<core::AutonomicController> controller;

  void build_stack() {
    blob::DeploymentConfig cfg;
    cfg.data_providers = 56;
    cfg.metadata_providers = 8;
    cfg.node_spec.service_concurrency = 1;
    cfg.node_spec.service_overhead = simtime::millis(25);
    cfg.node_spec.service_queue_limit = 64;
    dep = std::make_unique<blob::Deployment>(sim, cfg);

    rpc::Node* intro_node = dep->cluster().add_node(0);
    intro = std::make_unique<intro::IntrospectionService>(*intro_node);
    intro->start();
    mon::MonitoringConfig mcfg;
    mcfg.services = 8;
    mcfg.storage_servers = 2;
    mcfg.instrument.flush_interval = simtime::seconds(1);
    mcfg.service_flush_interval = simtime::seconds(2);
    mcfg.sinks = {intro_node->id()};
    monitoring = std::make_unique<mon::MonitoringLayer>(*dep, mcfg);
    monitoring->start();

    sec::SecurityConfig scfg;
    scfg.detection.scan_interval = simtime::seconds(5);
    scfg.policy_source =
        "policy dos_write_flood {\n"
        "  severity high;\n"
        "  description \"chunk-write request flood\";\n"
        "  when rate(write_ops, 60s) > 60;\n"
        "  then block(300s), trust(-0.4), alert;\n"
        "}\n";
    security = std::make_unique<sec::SecurityFramework>(
        sim, intro->activity(), scfg);
    security->attach_deployment(*dep);
    security->start();

    controller = std::make_unique<core::AutonomicController>(
        *dep, *intro, security.get());
    controller->add_module(std::make_unique<core::ProtectionModule>());
    controller->start();
  }

  /// Honest writers (blobs created, loops spawned) and attackers.
  void launch(const Params& p, std::uint64_t seed) {
    Rng rng(hash_combine(0xD05F100Dull, seed));
    // Patient honest clients: under the flood a chunk put can be shed by
    // a full provider queue; more fresh-provider retries keep every
    // honest append succeeding.
    blob::ClientConfig ccfg;
    ccfg.max_put_retries = 8;
    logs.resize(static_cast<std::size_t>(p.honest));
    for (auto& log : logs) {
      blob::BlobClient* c = dep->add_client(ccfg);
      monitoring->attach_client(*c);
      honest_ids.insert(c->id().value);
      auto blob = run_task(sim, c->create(64 * units::MB));
      if (!blob.ok()) {
        setup_ok = false;
        return;
      }
      const SimTime start = simtime::seconds(rng.uniform(0.0, 1.0));
      sim.spawn(honest_writer(sim, *c, blob.value(), start, p.end,
                              p.op_bytes, rng.next_u64(), &log));
    }

    std::vector<double> rates;
    for (int i = 0; i < p.attackers; ++i) {
      rates.push_back(90.0 + 310.0 * (i + rng.next_double()) / p.attackers);
    }
    rng.shuffle(rates);
    std::vector<NodeId> targets;
    for (auto& prov : dep->providers()) targets.push_back(prov->id());
    attackers.resize(rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const ClientId id{500 + i};
      attacker_ids.push_back(id.value);
      rpc::Node* node = dep->cluster().add_node(dep->next_site());
      workload::AttackerOptions a;
      a.request_rate = rates[i];
      a.start = p.attack_start;
      a.deadline = p.end;
      a.rng_seed = rng.next_u64();
      sim.spawn(
          workload::DosAttacker::run(*node, id, targets, a, &attackers[i]));
    }
  }
};

}  // namespace

void run_dos_flood(const Options& opt, Report& rep) {
  Params p;
  if (opt.smoke) {
    p.honest = 4;
    p.attackers = 4;
    p.end = simtime::seconds(140);
  }
  Tracer tracer(opt.traced);

  // ---- setup: stack, blobs, actors ------------------------------------
  auto env = timed_build(rep, [&] {
    auto e = std::make_unique<Env>();
    tracer.attach(e->sim);
    e->build_stack();
    e->launch(p, opt.seed);
    return e;
  });
  rep.check("setup", env->setup_ok, "honest blobs created");
  sim::Simulation& sim = env->sim;
  const auto& logs = env->logs;
  const auto& attackers = env->attackers;
  const auto& attacker_ids = env->attacker_ids;
  const auto& honest_ids = env->honest_ids;

  // ---- timed run ------------------------------------------------------
  const auto t_run = Clock::now();
  const SimTime t_begin = sim.now();
  while (sim.now() < p.end) {
    sim.run_until(std::min(p.end, sim.now() + simtime::seconds(1)));
    tracer.poll();
  }
  rep.events = sim.events_processed();

  // ---- outcomes -------------------------------------------------------
  std::vector<double> latency_ms;
  std::uint64_t bytes = 0;
  for (auto& log : logs) {
    latency_ms.insert(latency_ms.end(), log.latency_ms.begin(),
                      log.latency_ms.end());
    rep.attempted += log.ok + log.failed;
    rep.failed += log.failed;
    bytes += log.bytes;
    rep.digest.mix(log.digest.value());
  }
  std::map<std::uint64_t, SimTime> first_block;
  for (const auto& e : env->security->enforcement().action_log()) {
    if (e.action.type != sec::Action::Type::block) continue;
    first_block.emplace(e.client.value, e.time);
    rep.digest.mix(e.client.value);
    rep.digest.mix_signed(e.time);
  }
  std::vector<double> block_delay_s;
  std::uint64_t sent = 0;
  std::uint64_t rejected = 0;
  for (std::size_t i = 0; i < attackers.size(); ++i) {
    const auto& a = attackers[i];
    sent += a.sent;
    rejected += a.rejected;
    rep.digest.mix(a.sent);
    rep.digest.mix(a.served);
    rep.digest.mix(a.rejected);
    rep.digest.mix(a.failed);
    if (auto it = first_block.find(attacker_ids[i]); it != first_block.end()) {
      block_delay_s.push_back(simtime::to_seconds(it->second - p.attack_start));
    }
  }
  std::uint64_t honest_blocked = 0;
  for (const auto& [client, when] : first_block) {
    if (honest_ids.count(client) > 0) ++honest_blocked;
  }
  const auto& controller = *env->controller;
  rep.digest.mix(controller.iterations());
  rep.digest.mix(controller.action_log().size());
  rep.digest.mix_signed(sim.now());

  const double sim_s = simtime::to_seconds(p.end - t_begin);
  rep.latency("write", latency_ms);
  rep.sim("goodput_mb_s", static_cast<double>(bytes) / 1e6 / sim_s, "MB/s",
          rep.attempted);
  rep.sim("failed_op_share",
          rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                  static_cast<double>(rep.attempted)
                            : 0.0,
          "ratio", rep.attempted);
  if (block_delay_s.size() >= 20) {  // ten samples beyond the median
    std::vector<double> d = block_delay_s;
    rep.sim("block_delay_p50_s", quantile(d, 0.5), "s", d.size());
  }

  rep.check("dos_flood.attackers_blocked",
            block_delay_s.size() == attackers.size(),
            std::to_string(block_delay_s.size()) + "/" +
                std::to_string(attackers.size()) + " attackers blocked");
  rep.check("dos_flood.no_honest_blocked", honest_blocked == 0,
            std::to_string(honest_blocked) + " honest clients blocked");
  rep.check("dos_flood.honest_progress", rep.attempted > 0 && bytes > 0,
            std::to_string(rep.attempted) + " honest appends completed");

  if (tracer.enabled()) {
    tracer.detach();
    report_rpc_layer(rep, tracer, env->dep->cluster());
    const auto count = [&rep](const char* name, std::uint64_t v) {
      rep.layer(name, static_cast<double>(v), "count");
    };
    count("mon.events_emitted", tracer.counter("mon.events_emitted"));
    count("mon.events_dropped", tracer.counter("mon.events_dropped"));
    count("mon.batches_sent", tracer.counter("mon.batches_sent"));
    count("mon.records", env->monitoring->total_records());
    count("sec.scans", env->security->engine().scans());
    count("sec.violations", env->security->engine().violations());
    rep.layer("sec.attack_rejected_share",
              sent > 0 ? static_cast<double>(rejected) /
                             static_cast<double>(sent)
                       : 0.0,
              "ratio");
    count("sec.honest_blocked", honest_blocked);
    count("core.iterations", controller.iterations());
    count("core.actions", controller.action_log().size());
  }

  // ---- teardown (inside wall_s) --------------------------------------
  const auto t_down = Clock::now();
  env.reset();
  rep.teardown_s = seconds_since(t_down);
  rep.wall_s = seconds_since(t_run);
}

}  // namespace perfbench
