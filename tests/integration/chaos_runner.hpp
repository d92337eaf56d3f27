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
#include "sim/frame_pool.hpp"
#include "workload/gateway_trace.hpp"

namespace bs::test {

/// The modes the whole-stack oracles (test_pool_chaos, test_determinism)
/// compare: the default flow scheduler and frame pool, the scheduler's
/// reference path, and frame pooling off. A run gives the same outcome in
/// every mode; only the reference path may process a different number of
/// events, since it schedules its completion wakeups differently.
enum class StackMode { standard, reference_flows, pool_off };

/// Holds the thread's frame pool in `mode`'s state until destroyed:
/// construct it before the simulation, and call use_flow_path on the
/// cluster before anything runs on it.
class ModeScope {
 public:
  explicit ModeScope(StackMode mode) : mode_(mode) {
    sim::FramePool::instance().set_enabled(mode != StackMode::pool_off);
  }
  ~ModeScope() { sim::FramePool::instance().set_enabled(true); }
  ModeScope(const ModeScope&) = delete;
  ModeScope& operator=(const ModeScope&) = delete;

  void use_flow_path(rpc::Cluster& cluster) const {
    cluster.flows().set_incremental(mode_ != StackMode::reference_flows);
  }

 private:
  StackMode mode_;
};

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
  StackMode mode{StackMode::standard};
};

/// test_recovery_chaos: the defaults with every stateful service
/// journaling, torn tails (p = 0.25) and one site power loss.
ChaosScenario journaled_scenario();

/// test_gateway_chaos: 2 sites, 6 providers, journal, the gateway; 4
/// crashes (no wipes, torn p = 0.3), a degrade and a disk slowdown; the
/// trace; a 10-minute horizon.
ChaosScenario gateway_scenario();

/// test_repl_chaos: the journaled scenario plus the repl plane, one 20–60 s
/// WAN partition and one degrade, not two; an 8-minute horizon.
ChaosScenario repl_scenario();

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
