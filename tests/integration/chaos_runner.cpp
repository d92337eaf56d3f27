#include "integration/chaos_runner.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace bs::test {

ChaosStack::ChaosStack(sim::Simulation& sim, const blob::DeploymentConfig& cfg,
                       std::optional<repl::ReplOptions> repl,
                       const std::optional<cloud::GatewayOptions>& gw)
    : dep(sim, cfg) {
  if (repl) {
    repl->egress.journal = cfg.journal;
    plane = std::make_unique<repl::ReplicationPlane>(
        dep.cluster(), dep.version_manager_node().site(), *repl);
    plane->attach(dep);
    plane->start();
  }
  if (gw) {
    gw_node = dep.cluster().add_node(0);
    gateway = std::make_unique<cloud::S3Gateway>(*gw_node, dep.endpoints(),
                                                 *gw);
  }
}

namespace {

void mix_all(Digest& dg, std::initializer_list<std::uint64_t> xs) {
  for (std::uint64_t x : xs) dg.mix(x);
}

}  // namespace

ChaosScenario journaled_scenario() {
  ChaosScenario sc;
  sc.deployment.journal.enabled = true;
  sc.schedule.torn_tail_prob = 0.25;
  sc.schedule.power_losses = 1;
  // worst_case_recovery pads the quiescent tail so the last replay
  // finishes before the readability sweep.
  sc.schedule.worst_case_recovery = simtime::seconds(10);
  return sc;
}

ChaosScenario gateway_scenario() {
  constexpr std::uint64_t kChunk = 1 * units::MB;
  ChaosScenario sc;
  sc.deployment.sites = 2;
  sc.deployment.data_providers = 6;
  sc.deployment.journal.enabled = true;
  sc.short_leases = false;
  // Two replicas: a crashed (never wiped) provider loses nothing.
  sc.gateway = cloud::GatewayOptions{.object_chunk_size = kChunk,
                                     .replication = 2,
                                     .journal = {.enabled = true}};
  // Provider and gateway crashes (torn tails, no wipes — the readability
  // invariant is absolute), link faults and a disk slowdown, all quiesced
  // before the sweep.
  fault::ScheduleOptions& so = sc.schedule;
  so.crashes = 4;
  so.max_wipe_crashes = 0;
  so.torn_tail_prob = 0.3;
  so.degrades = 1;
  so.worst_case_recovery = simtime::seconds(10);
  sc.workload = workload::GatewayTraceConfig{
      .tenants = 3, .keys_per_tenant = 8, .ops_per_tenant = 15,
      .chunk_size = kChunk, .max_object_chunks = 4, .multipart_parts = 3,
      .think_time = simtime::seconds(3)};
  // Generous tail: crash-window ops ride out their RPC timeouts and the
  // last recovery replays before the sweep.
  sc.horizon = simtime::minutes(10);
  return sc;
}

ChaosScenario repl_scenario() {
  ChaosScenario sc = journaled_scenario();
  // Its egress nodes join the crashable set.
  sc.repl = repl::ReplOptions{.reconcile = {.interval = simtime::seconds(10)}};
  fault::ScheduleOptions& so = sc.schedule;
  so.long_partitions = 1;
  so.min_long_partition = simtime::seconds(20);
  so.max_long_partition = simtime::seconds(60);
  so.degrades = 1;
  // Every partition heals by minute 4; four more minutes of anti-entropy
  // rounds drain whatever custody parked or lost.
  sc.horizon = simtime::minutes(8);
  return sc;
}

ChaosOutcome run_chaos(std::uint64_t seed, const ChaosScenario& sc) {
  const ModeScope modes(sc.mode);
  sim::Simulation sim;
  const Appends* appends = std::get_if<Appends>(&sc.workload);
  blob::DeploymentConfig cfg = sc.deployment;
  cfg.fault_seed = seed ^ (appends ? 0xF00Dull : 0x6A7Eull);
  if (sc.short_leases) {  // a crashed writer must not stall publication
    cfg.vm_options.write_lease = simtime::seconds(30);
    cfg.vm_options.sweep_interval = simtime::seconds(5);
  }
  ChaosStack st(sim, cfg, sc.repl, sc.gateway);
  blob::Deployment& dep = st.dep;
  modes.use_flow_path(dep.cluster());

  // The workload's nodes go up before the fault plane: the append clients
  // and the blob they share, or the trace's user node.
  std::vector<blob::BlobClient*> clients;
  Result<BlobId> blob{Errc::internal};
  rpc::Node* user = nullptr;
  if (appends) {
    blob::ClientConfig ccfg;
    if (!sc.retries) ccfg.retry.max_attempts = 1;
    clients.resize(appends->clients);
    for (blob::BlobClient*& c : clients) c = dep.add_client(ccfg);
    blob = run_task(sim, clients[0]->create(4 * units::MB, 2));
    EXPECT_TRUE(blob.ok());
  } else {
    user = dep.cluster().add_node(1);
  }

  fault::FaultPlane fp(dep.cluster(), seed * 31 + 7);
  if (st.plane) st.plane->attach_fault_plane(fp);
  fault::ScheduleOptions so = sc.schedule;
  for (auto& p : dep.providers()) so.crashable.push_back(p->id());
  for (net::SiteId s = 0; s < cfg.sites; ++s) {
    if (st.plane) so.crashable.push_back(st.plane->egress(s).node().id());
    if (so.power_losses > 0) so.power_loss_sites.push_back(s);
  }
  if (st.gw_node != nullptr) so.crashable.push_back(st.gw_node->id());
  so.site_count = cfg.sites;
  fp.schedule_all(fault::random_schedule(seed * 13 + 5, so));

  ChaosOutcome out;
  std::vector<Result<blob::WriteReceipt>> ops;
  workload::GatewayTraceConfig tcfg;
  workload::GatewayTraceStats trace;
  bool trace_done = false;
  if (appends) {
    // Appends at random times in the faulted window race the faults.
    Rng wl(seed ^ 0xC0FFEEull);
    ops.assign(clients.size() * appends->ops_per_client, Errc::internal);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const SimTime at = simtime::millis(wl.uniform(0, appends->window_ms));
      const std::uint64_t bytes =
          (1 + wl.next_below(appends->size_steps)) * appends->size_unit;
      sim.spawn([](sim::Simulation& s, blob::BlobClient& cl, BlobId b,
                   SimTime at, blob::Payload p,
                   Result<blob::WriteReceipt>& r) -> sim::Task<void> {
        co_await s.delay_until(at);
        r = co_await cl.append(b, std::move(p));
      }(sim, *clients[i % clients.size()], blob.value(), at,
        blob::Payload::synthetic(bytes, wl.next_u64()), ops[i]));
    }
  } else {
    tcfg = std::get<workload::GatewayTraceConfig>(sc.workload);
    tcfg.rng_seed = seed ^ 0x7ACEull;
    sim.spawn([](rpc::Node& n, NodeId gw, workload::GatewayTraceConfig c,
                 workload::GatewayTraceStats& ts,
                 bool& done) -> sim::Task<void> {
      co_await workload::GatewayTrace::run(n, gw, c, &ts);
      done = true;
    }(*user, st.gw_node->id(), tcfg, trace, trace_done));
  }

  sim.run_until(sc.horizon);
  // The sweep below steps the simulation on, so an unfinished trace would
  // keep running: the outcome keeps the trace as the horizon found it.
  out.trace = trace;
  out.trace_done = trace_done;
  if (st.gateway) out.gateway_recovering = st.gateway->recovering();

  Digest dg;
  out.attempted = ops.size();
  for (const Result<blob::WriteReceipt>& op : ops) {
    dg.mix(static_cast<std::uint64_t>(op.code()));
    if (!op.ok()) continue;
    ++out.succeeded;
    const blob::WriteReceipt& w = op.value();
    mix_all(dg, {w.version, w.offset, w.size,
                 static_cast<std::uint64_t>(w.duration)});
  }
  if (appends) {
    // Every published version must read back whole, faults healed.
    auto versions = run_task(sim, clients[0]->versions(blob.value()));
    EXPECT_TRUE(versions.ok());
    for (const auto& v : versions.value_or({})) {
      if (v.version == 0) continue;  // the empty initial version
      ++out.published;
      mix_all(dg, {v.version, v.size});
      if (!sc.read_sweep) continue;
      auto read = run_task(
          sim, clients[1]->read(blob.value(), 0, v.size, v.version));
      if (read.ok()) dg.mix(read.value().bytes);
      out.unreadable += read.ok() ? 0 : 1;
    }
  } else {
    const workload::GatewayTraceStats& ts = out.trace;
    mix_all(dg, {ts.digest, ts.puts, ts.multipart_puts, ts.delta_puts,
                 ts.gets, ts.lists, ts.deletes, ts.failures,
                 ts.logical_bytes, ts.wire_bytes});
    // Every object the gateway lists must read back whole, as its tenant.
    rpc::Cluster& cl = dep.cluster();
    for (std::uint32_t t = 0; t < tcfg.tenants; ++t) {
      const rpc::CallOptions opts{
          .client = ClientId{workload::kFirstTenantId + t}};
      cloud::S3ListObjectsReq ls;
      ls.bucket = "t" + std::to_string(t);
      auto listed = run_task(
          sim, cl.call<cloud::S3ListObjectsReq, cloud::S3ListObjectsResp>(
                   *user, st.gw_node->id(), ls, opts));
      dg.mix(static_cast<std::uint64_t>(listed.code()));
      if (!listed.ok()) continue;
      for (const auto& obj : listed.value().objects) {
        mix_all(dg, {fnv1a(obj.key), obj.size, obj.etag});
        auto read = run_task(
            sim, cl.call<cloud::S3GetObjectReq, cloud::S3GetObjectResp>(
                     *user, st.gw_node->id(),
                     {.bucket = ls.bucket, .key = obj.key}, opts));
        const bool whole = read.ok() && read.value().payload.size == obj.size &&
                           read.value().etag == obj.etag;
        if (whole) dg.mix(read.value().payload.checksum);
        out.unreadable += whole ? 0 : 1;
      }
    }
  }

  auto absorb = [&](const blob::RecoveryStats& rs) {
    out.recoveries += rs.recoveries;
    out.replay_bytes += rs.replay_bytes;
    out.torn_tails += rs.torn_tails_truncated;
  };
  if (st.gateway) absorb(st.gateway->recovery_stats());
  absorb(dep.version_manager().recovery_stats());
  for (const auto& mp : dep.metadata_providers()) absorb(mp->recovery_stats());
  for (const auto& p : dep.providers()) absorb(p->recovery_stats());
  mix_all(dg, {out.recoveries, out.replay_bytes, out.torn_tails});
  if (st.plane) {
    repl::ReplicationPlane& plane = *st.plane;
    out.coherent = plane.coherent();
    out.custody = plane.total_custody_stats();
    out.heals = plane.heals_observed();
    const repl::CustodyQueueStats& cs = out.custody;
    mix_all(dg, {out.coherent, plane.digest(), cs.enqueued, cs.released,
                 cs.spilled, cs.reforwards, out.heals,
                 plane.reconciler().rounds(),
                 plane.reconciler().catch_up_scheduled(),
                 plane.chunks_routed()});
    for (net::SiteId s = 0; s < cfg.sites; ++s) {
      dg.mix(plane.egress(s).recovery_stats().recoveries);
    }
  }
  if (st.gateway) {
    const cloud::GatewayStats& gs = st.gateway->stats();
    out.chunks_reclaimed = gs.chunks_reclaimed;
    mix_all(dg, {st.gateway->state_digest(), gs.chunks_ingested,
                 gs.dedup_hits, gs.dedup_misses, gs.bytes_to_providers,
                 gs.bytes_saved, gs.chunks_reclaimed, gs.parts_resumed,
                 gs.delta_bytes_shipped, gs.delta_bytes_shared});
  }
  out.faults_applied = fp.faults_applied();
  out.calls_retried = dep.cluster().calls_retried();
  out.messages_dropped = dep.cluster().messages_dropped();
  mix_all(dg, {out.faults_applied, out.calls_retried, out.messages_dropped,
               dep.cluster().calls_timed_out(),
               dep.version_manager().leases_expired(),
               static_cast<std::uint64_t>(sim.now())});
  out.digest = dg.value();
  return out;
}

}  // namespace bs::test
