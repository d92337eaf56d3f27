// Seeded chaos runner: a ChaosScenario names a deployment, its planes, a
// fault schedule and a workload; run_chaos(seed, scenario) replays it and
// returns one outcome. DESIGN.md "Failure model" says how to add one.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <variant>

#include "blob/deployment.hpp"
#include "cloud/gateway.hpp"
#include "fault/fault_plane.hpp"
#include "repl/plane.hpp"
#include "workload/gateway_trace.hpp"

namespace bs::test {

/// A deployment, then its optional repl plane (attached, started, egress
/// journaled like the deployment) and gateway (own node at site 0): a
/// fixed order, so node ids stay stable for a crash schedule.
struct ChaosStack {
  ChaosStack(sim::Simulation& sim, const blob::DeploymentConfig& cfg,
             std::optional<repl::ReplOptions> repl = std::nullopt,
             const std::optional<cloud::GatewayOptions>& gw = std::nullopt);
  blob::Deployment dep;
  std::unique_ptr<repl::ReplicationPlane> plane;
  rpc::Node* gw_node{nullptr};
  std::unique_ptr<cloud::S3Gateway> gateway;
};

/// Appends to one blob (4 MB chunks, two replicas) at uniform times in
/// [0, window), each of (1 + U{0 .. size_steps - 1}) * size_unit bytes.
struct Appends {
  std::size_t clients{4};
  std::size_t ops_per_client{4};
  double window_ms{150000};
  std::uint64_t size_steps{3};
  std::uint64_t size_unit{4 * units::MB};
};

/// The defaults are test_chaos's plain append scenario. run_chaos derives
/// the deployment's fault_seed and a trace's rng_seed from the seed, and
/// makes every provider, egress and gateway node crashable and every site
/// a power-loss candidate.
struct ChaosScenario {
  blob::DeploymentConfig deployment{
      .sites = 3, .data_providers = 8, .metadata_providers = 2,
      .provider_capacity = 4ull * units::GB};
  bool short_leases{true};  ///< 30 s write lease, 5 s sweep
  std::optional<repl::ReplOptions> repl{};
  std::optional<cloud::GatewayOptions> gateway{};
  /// Over 4 minutes: 3 crashes (at most one wipe), a partition, 2
  /// degrades and a disk slowdown.
  fault::ScheduleOptions schedule = [] {
    fault::ScheduleOptions so;
    so.horizon = simtime::minutes(4);
    so.crashes = 3;
    so.max_wipe_crashes = 1;
    so.degrades = 2;
    return so;
  }();
  std::variant<Appends, workload::GatewayTraceConfig> workload{};
  bool retries{true};
  bool read_sweep{true};  ///< read back every published version
  SimTime horizon{simtime::minutes(6)};
};

/// What one run did. The digest folds every operation outcome, the sweep,
/// every counter the run reads and the final sim time.
struct ChaosOutcome {
  std::uint64_t digest{0};
  std::size_t attempted{0};   ///< appends issued
  std::size_t succeeded{0};   ///< appends acked
  std::size_t published{0};   ///< versions past the empty one
  std::size_t unreadable{0};  ///< published versions or listed objects
  std::uint64_t faults_applied{0};
  std::uint64_t calls_retried{0};
  std::uint64_t messages_dropped{0};
  std::uint64_t recoveries{0};  ///< version manager, providers, gateway
  std::uint64_t replay_bytes{0};
  std::uint64_t torn_tails{0};
  bool coherent{false};  ///< every remote version map, at the end
  repl::CustodyQueueStats custody;
  std::uint64_t heals{0};
  workload::GatewayTraceStats trace;  ///< at the horizon
  bool trace_done{false};             ///< at the horizon
  bool gateway_recovering{false};     ///< at the horizon
  std::uint64_t chunks_reclaimed{0};
};

ChaosOutcome run_chaos(std::uint64_t seed, const ChaosScenario& scenario);

}  // namespace bs::test
