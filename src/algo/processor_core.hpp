// The backend-agnostic per-processor state machine of the paper's
// Algorithms 1-7: one object holds a node's block of components plus every
// piece of algorithm state that used to be duplicated (and had drifted)
// between the virtual-time and threaded engines — boundary inboxes with
// the receive filter, migration queues and the famine guard, the residual
// load estimate, the OkToTryLB countdown and the lightest-loaded-neighbor
// migration decision, and the local-convergence persistence streak.
//
// A driver runs the lifecycle
//
//   ingest_boundary / enqueue_migration   (as messages arrive)
//   begin_iteration                       (absorb migrations, apply ghosts)
//   run_iteration                         (the numerics)
//   make_boundary / emit_boundaries       (outgoing ghost data)
//   finish_iteration                      (residual, streak, bookkeeping)
//   lb_trigger_due / plan_migration / extract_migration
//
// and owns everything else: scheduling, locking, message delivery and the
// mapping from work units to seconds (see runtime_ifaces.hpp). The core is
// not thread-safe; the threaded driver serializes access per processor
// with its block mutex.
#pragma once

#include <cstddef>
#include <deque>
#include <limits>
#include <memory>
#include <optional>

#include "algo/partitioner.hpp"
#include "algo/runtime_ifaces.hpp"
#include "algo/types.hpp"
#include "lb/balancer.hpp"
#include "lb/estimators.hpp"
#include "ode/boundary_delta.hpp"
#include "ode/ode_system.hpp"
#include "ode/waveform_block.hpp"

namespace aiac::algo {

/// Algorithm constants shared by every core of a run.
struct CoreParams {
  double tolerance = 1e-8;
  /// Consecutive undisturbed under-tolerance iterations before a node
  /// calls itself locally converged (the coordinator's guard).
  std::size_t persistence = 3;
  /// Famine guard: a migration never leaves the sender with fewer owned
  /// components than this (max of the balancer's min_components and
  /// stencil + 1).
  std::size_t min_keep = 2;
  /// OkToTryLB: iterations between load-balancing attempts.
  std::size_t lb_trigger_period = 20;
};

class ProcessorCore {
 public:
  ProcessorCore(std::size_t rank, std::size_t processors,
                const ode::OdeSystem& system,
                const ode::WaveformBlockConfig& block_config,
                const CoreParams& params, const lb::LoadEstimator& estimator,
                const lb::NeighborBalancer& balancer);

  ProcessorCore(const ProcessorCore&) = delete;
  ProcessorCore& operator=(const ProcessorCore&) = delete;

  // ---- Topology -----------------------------------------------------
  std::size_t rank() const noexcept { return rank_; }
  bool has_neighbor(Side side) const noexcept {
    return side == Side::kLeft ? rank_ > 0 : rank_ + 1 < processors_;
  }

  // ---- Message ingest (driver-side delivery) ------------------------

  /// Latest-value boundary delivery: overwrites the inbox for that side
  /// (ghost data is a value, not a stream) and records the piggybacked
  /// neighbor load and iteration stamp immediately — synchronous schemes
  /// gate on data_iteration before the data itself is applied.
  void ingest_boundary(Side from, const ode::BoundaryMessage& msg);

  /// Delta boundary delivery (DESIGN.md §14): patches the changed rows
  /// into the side's persistent inbox, which still holds the link's last
  /// full message (possibly already patched by earlier deltas of the same
  /// epoch), then performs ingest_boundary's bookkeeping. Returns false —
  /// inbox untouched — when no full message was ever ingested on that
  /// side or the delta's epoch/shape disagrees with it; the sender's
  /// forced full refresh resynchronizes such a link. The patched message
  /// flows through the same receive filter and stale-residual rule as a
  /// full one, so thinning never lets locally_converged() confirm on
  /// unseen data.
  bool ingest_boundary_delta(Side from,
                             const ode::BoundaryDeltaMessage& delta);

  /// Zero-copy ingest for drivers that parse wire payloads themselves:
  /// decode directly into inbox_storage(side) — its rows capacity
  /// persists across messages — then call commit_inbox(side) to apply
  /// ingest_boundary's bookkeeping to the decoded contents. The reference
  /// is invalidated by nothing short of core destruction.
  ode::BoundaryMessage& inbox_storage(Side side) noexcept {
    return side == Side::kLeft ? inbox_left_ : inbox_right_;
  }
  void commit_inbox(Side from);

  /// Migration payloads are a FIFO stream per side; they are absorbed in
  /// arrival order at the next begin_iteration.
  void enqueue_migration(Side from, ode::MigrationPayload payload);

  // ---- Iteration lifecycle ------------------------------------------

  struct BeginInfo {
    /// Which sides delivered a migration this iteration — the driver
    /// clears its per-link in-flight flag on these.
    bool absorbed_from_left = false;
    bool absorbed_from_right = false;
    /// A migration was absorbed or a boundary update passed the receive
    /// filter: this iterate runs on changed external data.
    bool external_input = false;
  };

  /// Absorbs queued migrations (marking the residual stale until the next
  /// finish_iteration covers the new rows), then applies the boundary
  /// inboxes through the receive filter.
  BeginInfo begin_iteration();

  /// The numerics: one outer waveform iteration over the local block.
  ode::WaveformBlock::IterationStats run_iteration();

  /// Completes the iteration at the driver's chosen instant: `clock.now()
  /// - start_time` becomes the iteration duration (virtual for the
  /// simulated driver, wall for the threaded one). Updates the residual,
  /// the under-tolerance persistence streak and the famine-guard
  /// instrumentation.
  void finish_iteration(const ode::WaveformBlock::IterationStats& stats,
                        double start_time, ClockModel& clock);

  // ---- Outgoing boundary data ---------------------------------------

  /// Boundary rows for the `toward`-side neighbor, stamped with this
  /// core's current iteration count, component count, residual and load
  /// estimate. The virtual-time driver calls this right after
  /// run_iteration (so the stamp carries the previous iteration's
  /// residual, the paper's "residual of previous iteration"); the
  /// threaded driver calls it after finish_iteration.
  ode::BoundaryMessage make_boundary(Side toward) const;

  /// Fill-into variant of make_boundary: overwrites `msg` in place,
  /// reusing msg.rows' capacity. With pool-recycled messages the threaded
  /// engine's per-iteration boundary send path is allocation-free.
  void fill_boundary(Side toward, ode::BoundaryMessage& msg) const;

  /// make_boundary + Transport::send_boundary for each existing neighbor.
  void emit_boundaries(Transport& transport);

  // ---- Load balancing (paper §5.2, Algorithms 4-6) ------------------

  /// The OkToTryLB countdown: false (and one tick consumed) while it is
  /// running, true once it has elapsed. It only rearms when a migration
  /// is actually extracted, so an elapsed trigger keeps retrying.
  bool lb_trigger_due();

  /// Chaos hook: pushes the elapsed trigger back by `iterations`.
  void defer_lb(std::size_t iterations);

  /// The migration decision from this core's view: own load estimate,
  /// latest piggybacked neighbor loads, and the driver-owned per-link
  /// busy flags.
  lb::BalanceDecision plan_migration(bool left_link_busy,
                                     bool right_link_busy) const;

  /// Clamps `amount` against the famine guard and extracts the payload;
  /// nullopt when the guard leaves nothing to send. On success rearms the
  /// trigger countdown and updates the migration counters and the
  /// min-components watermark (sampled at its tightest point, right after
  /// the extraction).
  std::optional<ode::MigrationPayload> extract_migration(Side toward,
                                                         std::size_t amount);

  /// Fill-into variant of extract_migration: on success overwrites
  /// `payload` (reusing payload.rows' capacity — pass pool-acquired rows)
  /// and returns true; false when the famine guard blocks the migration,
  /// leaving `payload` untouched.
  bool extract_migration_into(Side toward, std::size_t amount,
                              ode::MigrationPayload& payload);

  /// Absorbs everything still queued (result assembly after a stop, so
  /// the solution covers every component exactly once).
  void drain_pending_migrations();

  /// Current output of the load estimator on this core's state.
  double current_load() const;

  // ---- Observers ----------------------------------------------------

  std::size_t components() const noexcept { return block_.count(); }
  /// Completed (finished) iterations.
  std::size_t iteration() const noexcept { return iteration_; }
  double last_residual() const noexcept { return last_residual_; }
  double last_iteration_seconds() const noexcept { return last_seconds_; }
  /// Inputs were folded in (absorbed components or accepted ghost
  /// updates) that the last residual does not cover yet; clears when the
  /// covering iterate finishes.
  bool residual_stale() const noexcept { return residual_stale_; }
  std::size_t under_tol_streak() const noexcept { return under_tol_streak_; }
  /// The persistence streak is a convergence claim about the rows and
  /// ghosts the streak's residuals were measured on. While the residual
  /// is stale the claim does not transfer to the current state, so the
  /// core must not report converged: a coordinator verification landing
  /// between a migration's absorb and its covering iterate would
  /// otherwise halt the fleet on data nobody ever iterated.
  bool locally_converged() const noexcept {
    return under_tol_streak_ >= params_.persistence && !residual_stale_;
  }
  /// Nothing buffered: boundary inboxes empty and no queued migrations.
  bool inputs_quiescent() const noexcept {
    return !inbox_left_full_ && !inbox_right_full_ &&
           !has_pending_migrations();
  }
  bool has_pending_migrations() const noexcept {
    return !pending_from_left_.empty() || !pending_from_right_.empty();
  }
  /// Max-norm change the buffered (delivered, not yet absorbed) boundary
  /// inboxes would make to the block's ghost rows if folded in now; 0 when
  /// both inboxes are empty. Convergence detection uses this to tell
  /// harmless steady-state traffic from an unprocessed update that would
  /// break local convergence (see WaveformBlock::ghost_update_disturbance).
  double pending_input_disturbance() const;
  /// Components delivered but not yet absorbed (queued migrations). The
  /// model checker's conservation invariant counts these: every component
  /// is owned by a block, queued at a receiver, or in transit — never two
  /// of those at once.
  std::size_t pending_migration_components() const noexcept;
  /// Highest neighbor iteration whose data was delivered from `side`.
  std::size_t data_iteration(Side side) const noexcept {
    return side == Side::kLeft ? left_data_iteration_ : right_data_iteration_;
  }
  /// Famine-guard watermark: smallest owned count this core ever held.
  std::size_t min_components_seen() const noexcept { return min_seen_; }
  double total_work() const noexcept { return total_work_; }
  std::size_t migrations_out() const noexcept { return migrations_out_; }
  std::size_t components_out() const noexcept { return components_out_; }
  std::size_t lb_bytes_out() const noexcept { return lb_bytes_out_; }
  const ode::WaveformBlock& block() const noexcept { return block_; }

  /// Hands this core's block an intra-processor worker pool for its
  /// sharded iterate (nullptr detaches). Drivers own the pools — thread
  /// budgets depend on how many cores share the machine, which only the
  /// driver knows. The pool must outlive the core or be detached first.
  void set_worker_pool(runtime::WorkerPool* pool) noexcept {
    block_.set_worker_pool(pool);
  }

 private:
  std::size_t rank_;
  std::size_t processors_;
  CoreParams params_;
  const lb::LoadEstimator* estimator_;
  const lb::NeighborBalancer* balancer_;
  ode::WaveformBlock block_;

  std::size_t iteration_ = 0;
  /// Iterations whose numerics have run (>= iteration_; the virtual-time
  /// driver stamps outgoing data before the finish event).
  std::size_t computed_iterations_ = 0;
  double last_residual_ = std::numeric_limits<double>::infinity();
  double last_seconds_ = 0.0;
  double last_work_ = 0.0;
  double total_work_ = 0.0;
  std::size_t under_tol_streak_ = 0;
  bool residual_stale_ = false;
  std::size_t lb_countdown_ = 0;

  // Boundary inboxes: persistent storage plus a full/empty flag rather
  // than optionals, so ingest_boundary's copy-assignment reuses the rows
  // capacity of the previous message — overwriting an unread inbox (the
  // common case under asynchronous iteration) allocates nothing.
  ode::BoundaryMessage inbox_left_;
  ode::BoundaryMessage inbox_right_;
  bool inbox_left_full_ = false;
  bool inbox_right_full_ = false;
  // Delta-ingest base tracking: the sender-iteration stamp of the last
  // full message per side (the delta epoch), and whether one ever
  // arrived. The inbox storage itself is the receiver's baseline: rows a
  // delta does not carry keep their last full-frame value in place.
  std::size_t left_inbox_epoch_ = 0;
  std::size_t right_inbox_epoch_ = 0;
  bool left_has_base_ = false;
  bool right_has_base_ = false;
  std::deque<ode::MigrationPayload> pending_from_left_;
  std::deque<ode::MigrationPayload> pending_from_right_;
  std::optional<double> left_load_;
  std::optional<double> right_load_;
  std::size_t left_data_iteration_ = 0;
  std::size_t right_data_iteration_ = 0;

  std::size_t min_seen_ = 0;
  std::size_t migrations_out_ = 0;
  std::size_t components_out_ = 0;
  std::size_t lb_bytes_out_ = 0;
};

/// Everything needed to build one run's worth of cores; the engines fill
/// this from their EngineConfig (the driver layer owns that type).
struct FleetConfig {
  std::size_t processors = 0;
  InitialPartition partition = InitialPartition::kEven;
  /// Relative processor speeds for the speed-weighted partition; empty
  /// means uniform.
  std::vector<double> speeds;

  // WaveformBlock template (first/count come from the partition).
  std::size_t num_steps = 100;
  double t_end = 10.0;
  ode::LocalSolveMode solve_mode = ode::LocalSolveMode::kBlockNewton;
  ode::NewtonOptions newton = {};
  double receive_filter = 0.0;
  /// Chunk count for every core's sharded iterate (see
  /// WaveformBlockConfig::intra_chunks — numerics only; worker pools are
  /// attached separately by the driver via ProcessorCore::
  /// set_worker_pool, since thread budgets are a driver concern).
  std::size_t intra_chunks = 1;

  double tolerance = 1e-8;
  std::size_t persistence = 3;
  lb::EstimatorKind estimator = lb::EstimatorKind::kResidual;
  lb::BalancerConfig balancer = {};
};

/// Owns the estimator, the balancer and one ProcessorCore per rank, built
/// over the shared partitioner. Both engines construct exactly this, so
/// they cannot disagree on the initial split or the famine floor.
class CoreFleet {
 public:
  CoreFleet(const ode::OdeSystem& system, const FleetConfig& config);

  CoreFleet(const CoreFleet&) = delete;
  CoreFleet& operator=(const CoreFleet&) = delete;

  std::size_t size() const noexcept { return cores_.size(); }
  ProcessorCore& core(std::size_t rank) { return cores_[rank]; }
  const ProcessorCore& core(std::size_t rank) const { return cores_[rank]; }
  std::size_t min_keep() const noexcept { return min_keep_; }

 private:
  std::unique_ptr<lb::LoadEstimator> estimator_;
  std::unique_ptr<lb::NeighborBalancer> balancer_;
  std::size_t min_keep_ = 0;
  std::deque<ProcessorCore> cores_;  // address-stable, cores are pinned
};

/// Test-only algorithm mutations for the model checker's self-tests
/// (tests/test_model_check.cpp): deliberately breaking a guard and
/// asserting the checker reports the violation proves the detector has
/// teeth. Process-global, not thread-safe — flip only in single-threaded
/// test code, never in production paths.
namespace mutation {

/// While true, ProcessorCore::extract_migration ignores the famine guard
/// (params_.min_keep) and clamps only to the structural floor of one
/// owned component, so a migration can starve the sender.
void set_disable_famine_guard(bool disabled) noexcept;
bool famine_guard_disabled() noexcept;

/// RAII guard so a throwing test cannot leak the mutation into later
/// tests.
class ScopedFamineGuardDisabled {
 public:
  ScopedFamineGuardDisabled() { set_disable_famine_guard(true); }
  ~ScopedFamineGuardDisabled() { set_disable_famine_guard(false); }
  ScopedFamineGuardDisabled(const ScopedFamineGuardDisabled&) = delete;
  ScopedFamineGuardDisabled& operator=(const ScopedFamineGuardDisabled&) =
      delete;
};

}  // namespace mutation

}  // namespace aiac::algo
