// The model checker's scheduler over algo::FleetMachine, the state
// machine the virtual-time driver runs: the sim's channels (one FIFO per
// directed link, AIAC send-skip with its pending retry, emission at
// start), parking, ProcessorCore::can_confirm veto and measured_audit
// halt record. Every source of nondeterminism — who iterates next, when a
// link delivers, when a detection frame is handled — is a scheduler
// decision here instead of a grid latency. A step is one macro-action
// (start, its departures, finish), so no delivery lands mid-iterate;
// control deliveries are the oldest pending frame per destination, and
// the halt decision ends the model. The threaded backend's latest-value
// SlotBox is not a checked channel.
//
// The explorers (see explorer.hpp) re-execute the model from its initial
// state for every schedule (stateless model checking, à la CHESS): cores
// are deliberately non-copyable, and tiny configs make a full re-run
// cheaper than snapshotting numeric state would be.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "algo/fleet_machine.hpp"
#include "algo/processor_core.hpp"
#include "algo/types.hpp"
#include "lb/balancer.hpp"
#include "lb/estimators.hpp"
#include "ode/linear_diffusion.hpp"

namespace aiac::check {

/// Everything that defines one checked configuration. Deliberately a
/// value type with full serialization support (schedule.hpp): a recorded
/// failing schedule embeds its config, so replaying needs only the file.
struct ModelConfig {
  std::size_t processors = 2;
  /// LinearDiffusion grid points (the checked problem; linear, stencil 1,
  /// monotone convergence — the cheapest honest instance of the paper's
  /// iteration, which is what makes exhaustive exploration feasible).
  std::size_t dimension = 6;
  std::size_t num_steps = 4;
  double t_end = 1.0;
  double tolerance = 1e-4;
  std::size_t persistence = 2;
  /// Receive filter as a fraction of tolerance (0 disables), as in
  /// EngineConfig.
  double receive_filter_factor = 0.0;
  bool load_balancing = true;
  algo::DetectionMode detection = algo::DetectionMode::kOracle;
  algo::InitialPartition partition = algo::InitialPartition::kEven;
  /// Optional skewed speeds for the speed-weighted partition.
  std::vector<double> speeds;
  lb::EstimatorKind estimator = lb::EstimatorKind::kResidual;
  /// Checker defaults differ from the engines': an aggressive balancer
  /// (every ratio qualifies sooner, whole surplus per shot, LB tried every
  /// other iteration) reaches the interesting migration interleavings
  /// within a short horizon. min_components = 1 keeps the *core's* famine
  /// guard (stencil + 1) load-bearing rather than masked by the balancer's
  /// own clamp — exactly the guard the mutation self-test disables.
  lb::BalancerConfig balancer = aggressive_balancer();
  /// Per-processor finished-iteration cap; step(p) is disabled beyond it.
  /// This is the exploration horizon, not a failure condition.
  std::size_t max_iterations = 6;
  /// Test-only mutation (see algo::mutation): run the whole schedule with
  /// the famine guard disabled, to prove the famine invariant has teeth.
  bool mutate_disable_famine_guard = false;

  static lb::BalancerConfig aggressive_balancer() {
    lb::BalancerConfig b;
    b.threshold_ratio = 1.5;
    b.min_components = 1;
    b.migration_fraction = 1.0;
    b.max_fraction_per_migration = 1.0;
    b.trigger_period = 2;
    return b;
  }
};

/// One scheduler decision: a machine action, where kStart stands for the
/// whole step. describe() strings are stored in schedule files and
/// compared on replay, so divergence is detected instead of silently
/// replaying a different run.
using Action = algo::FleetAction;

class CheckedModel {
 public:
  explicit CheckedModel(const ModelConfig& config);

  CheckedModel(const CheckedModel&) = delete;
  CheckedModel& operator=(const CheckedModel&) = delete;

  // ---- Scheduler interface ------------------------------------------
  /// The machine's order (steps by rank, then per rank its link fronts by
  /// side and its oldest control frame), so a schedule is a plain
  /// sequence of indices into this list. Empty once halted or fully
  /// quiescent at the horizon.
  std::vector<Action> enabled_actions() const;
  /// step(p), deliver-boundary(p,side), deliver-migration(p,side) or
  /// deliver-control(p), read before the action is applied.
  std::string describe(const Action& action) const;
  void apply(const Action& action);
  std::size_t actions_applied() const noexcept { return actions_applied_; }

  // ---- State observers (invariants, explorers, reports) -------------
  const ModelConfig& config() const noexcept { return config_; }
  const algo::CoreFleet& fleet() const noexcept { return machine_.fleet(); }
  std::size_t processors() const noexcept { return config_.processors; }
  /// Components inside in-flight migration payloads (channel occupancy).
  std::size_t in_transit_components() const {
    return machine_.in_transit_components();
  }
  /// The famine floor the invariant holds rank `p` to: min_keep, except
  /// that a core whose initial allotment is already below min_keep is
  /// only held to that allotment (it can legally stay there forever).
  std::size_t famine_floor(std::size_t p) const;
  /// Migration payloads in flight toward `p` on `side` (discipline: ≤ 1).
  std::size_t migration_channel_depth(std::size_t p, algo::Side side) const;
  /// Why and how the run halted: the ground truth over every core at the
  /// decision instant, which the detection-safety invariant judges.
  const std::optional<algo::OracleSnapshot>& halt_record() const noexcept {
    return machine_.halt_audit();
  }
  bool halted() const noexcept { return halt_record().has_value(); }
  /// Migration-protocol discipline breaches observed while applying
  /// actions (a migration planned on a busy link). Collected here because
  /// they are visible mid-action, not in the quiescent state the
  /// invariant suite inspects.
  const std::vector<std::string>& discipline_breaches() const noexcept {
    return discipline_breaches_;
  }

 private:
  void apply_to_machine(const Action& action);

  ModelConfig config_;
  ode::LinearDiffusion system_;
  algo::FleetMachine machine_;
  std::vector<std::size_t> initial_components_;
  std::vector<std::string> discipline_breaches_;
  std::size_t actions_applied_ = 0;
};

}  // namespace aiac::check
