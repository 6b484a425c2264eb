// The model checker's driver: a third implementation of the algo-layer
// interfaces (after core/sim_engine and core/thread_engine), in which
// every source of nondeterminism — who iterates next, when a boundary or
// migration message is delivered, when a detection control frame is
// handled — is a scheduler decision instead of a thread race or an
// event-queue latency.
//
// The model is a plain state machine: `enabled_actions()` lists what could
// happen next, `apply()` makes one of those things happen atomically.
// The channel kinds are the threaded backend's — latest-value overwrite
// for boundary data (SlotBox), FIFO per link direction for migrations
// (Mailbox), FIFO per destination for detection control messages — and
// the migration-link flags are the same CoreFleet ledger every engine
// uses. The model is not the threaded driver, though: a step is one
// atomic iteration, so no delivery lands mid-iterate, and the
// coordinator's verification veto is DetectionDriver's default
// `locally_converged`, not the `ProcessorCore::can_confirm` every
// production driver runs. The ModelCheckFindings cases therefore pin
// halts of a veto no backend uses (ROADMAP item 4).
//
// The explorers (see explorer.hpp) re-execute the model from its initial
// state for every schedule (stateless model checking, à la CHESS): cores
// are deliberately non-copyable, and tiny configs make a full re-run
// cheaper than snapshotting numeric state would be.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/detection.hpp"
#include "algo/processor_core.hpp"
#include "algo/runtime_ifaces.hpp"
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

/// One scheduler decision. `describe()` strings are stored in schedule
/// files and compared on replay, so divergence is detected instead of
/// silently replaying a different run.
struct Action {
  enum class Kind {
    kStep,             // processor runs one full iteration
    kDeliverBoundary,  // in-flight boundary message reaches the inbox
    kDeliverMigration, // in-flight migration payload reaches the queue
    kDeliverControl,   // queued detection frame is handled at the destination
  };
  Kind kind = Kind::kStep;
  std::size_t target = 0;              // the processor acted upon
  algo::Side from = algo::Side::kLeft; // boundary/migration arrival side

  std::string describe() const;
};

/// Why and how the run halted, captured at the decision instant — the
/// detection-safety invariant judges this record against the ground truth
/// the protocol could not see.
struct HaltRecord {
  algo::DetectionMode mode = algo::DetectionMode::kOracle;
  /// Ground truth over every core at the halt instant.
  double max_residual = 0.0;
  double max_interface_gap = 0.0;
  bool any_residual_stale = false;
  bool any_core_unstarted = false;
};

class CheckedModel final : public algo::Transport,
                           public algo::ClockModel,
                           public algo::DetectionDriver {
 public:
  explicit CheckedModel(const ModelConfig& config);

  CheckedModel(const CheckedModel&) = delete;
  CheckedModel& operator=(const CheckedModel&) = delete;

  // ---- Scheduler interface ------------------------------------------
  /// Deterministically ordered (steps by rank, then deliveries by rank
  /// and side, then control) so a schedule is a plain sequence of indices
  /// into this list. Empty once halted or fully quiescent at the horizon.
  std::vector<Action> enabled_actions() const;
  void apply(const Action& action);
  std::size_t actions_applied() const noexcept { return actions_applied_; }

  // ---- State observers (invariants, explorers, reports) -------------
  const ModelConfig& config() const noexcept { return config_; }
  const algo::CoreFleet& fleet() const noexcept { return *fleet_; }
  std::size_t processors() const noexcept { return config_.processors; }
  /// Components inside in-flight migration payloads (channel occupancy).
  std::size_t in_transit_components() const;
  /// The famine floor the invariant holds rank `p` to: min_keep, except
  /// that a core whose initial allotment is already below min_keep is
  /// only held to that allotment (it can legally stay there forever).
  std::size_t famine_floor(std::size_t p) const;
  /// Migration payloads in flight toward `p` on `side` (discipline: ≤ 1).
  std::size_t migration_channel_depth(std::size_t p, algo::Side side) const;
  bool halted() const noexcept { return halted_; }
  const std::optional<HaltRecord>& halt_record() const noexcept {
    return halt_record_;
  }
  /// Migration-protocol discipline breaches observed by the driver while
  /// applying actions (double-claimed link, overfull channel). Collected
  /// here because they are visible mid-action, not in the quiescent state
  /// the invariant suite inspects.
  const std::vector<std::string>& discipline_breaches() const noexcept {
    return discipline_breaches_;
  }

  // ---- algo::Transport ----------------------------------------------
  void send_boundary(std::size_t src, algo::Side toward,
                     ode::BoundaryMessage msg) override;
  void send_migration(std::size_t src, algo::Side toward,
                      ode::MigrationPayload payload) override;
  void send_control(std::size_t src, std::size_t dst,
                    const algo::ControlFrame& frame) override;

  // ---- algo::ClockModel ---------------------------------------------
  /// Logical time: one tick per applied action. Durations are meaningless
  /// under adversarial scheduling; the invariants never read them.
  double now() const override { return static_cast<double>(logical_time_); }
  double work_to_seconds(std::size_t, double, double, double) override {
    return -1.0;  // measuring-driver sentinel, as in the threaded backend
  }

  // ---- algo::DetectionDriver ----------------------------------------
  bool locally_converged(std::size_t rank) const override;
  void broadcast_halt() override;

 private:
  struct Channels {
    /// Latest-value boundary slot per arrival side (SlotBox semantics:
    /// a later send overwrites an undelivered one).
    std::optional<ode::BoundaryMessage> boundary_left;
    std::optional<ode::BoundaryMessage> boundary_right;
    /// FIFO migration channel per arrival side (Mailbox semantics).
    std::deque<ode::MigrationPayload> migration_left;
    std::deque<ode::MigrationPayload> migration_right;
    /// FIFO detection-control deliveries for this destination.
    std::deque<algo::ControlFrame> control;
  };

  void step(std::size_t p);
  void try_load_balance(std::size_t p);
  void run_oracle();
  void record_halt(algo::DetectionMode mode, const algo::OracleSnapshot& snap);
  std::optional<ode::BoundaryMessage>& boundary_slot(std::size_t p,
                                                     algo::Side side);
  std::deque<ode::MigrationPayload>& migration_queue(std::size_t p,
                                                     algo::Side side);

  ModelConfig config_;
  std::unique_ptr<ode::LinearDiffusion> system_;
  std::unique_ptr<algo::CoreFleet> fleet_;
  std::unique_ptr<algo::DetectionProtocol> protocol_;
  std::vector<Channels> channels_;
  std::vector<std::size_t> initial_components_;
  std::vector<std::string> discipline_breaches_;
  std::optional<HaltRecord> halt_record_;
  std::size_t actions_applied_ = 0;
  std::size_t logical_time_ = 0;
  bool halted_ = false;
};

}  // namespace aiac::check
