// Shared configuration and result types for the parallel iterative
// engines (simulated, threaded and socket backends), and the driver
// plumbing they share around the algo layer.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "algo/types.hpp"
#include "lb/balancer.hpp"
#include "lb/estimators.hpp"
#include "ode/boundary_delta.hpp"
#include "ode/newton.hpp"
#include "ode/trajectory.hpp"
#include "ode/waveform_block.hpp"
#include "runtime/fault_injector.hpp"

namespace aiac::algo {
class CoreFleet;
struct FleetConfig;
}  // namespace aiac::algo

namespace aiac::core {

// The algorithm vocabulary (Scheme, DetectionMode, InitialPartition) lives
// with the backend-agnostic algorithm layer in algo/types.hpp; re-exported
// here so existing driver-level call sites keep reading core::Scheme etc.
using algo::DetectionMode;
using algo::InitialPartition;
using algo::Scheme;
using algo::to_string;

/// Bytes charged per detection control message (report, heartbeat,
/// verification request/ack, halt) by the simulated and threaded drivers.
inline constexpr std::size_t kControlMessageBytes = 64;
/// Sender-side delta thinning threshold as a fraction of the tolerance
/// (DESIGN.md §14): a row rides a delta only once some value moved more
/// than tolerance * kDeltaThresholdFactor from the last full frame. Equal
/// to the receive filter's default factor, so thinning introduces no
/// error the filter does not already tolerate.
inline constexpr double kDeltaThresholdFactor = 0.01;

struct EngineConfig {
  Scheme scheme = Scheme::kAIAC;

  // Problem discretization.
  std::size_t num_steps = 100;
  double t_end = 10.0;
  ode::LocalSolveMode solve_mode = ode::LocalSolveMode::kBlockNewton;
  ode::NewtonOptions newton = {};
  /// No engine reads this: every engine solves a rank's block whole, as
  /// one block-Newton system per time step. The sharded iterate is a
  /// WaveformBlock facility (WaveformBlockConfig::intra_chunks); only the
  /// end-to-end benchmark still sets this field, to size its worker-pool
  /// probes.
  std::size_t intra_threads = 1;

  // Outer convergence.
  double tolerance = 1e-8;
  /// Receive-side significance filter as a fraction of `tolerance`
  /// (flexible communication, the paper's ref [4]): boundary updates
  /// within tolerance * receive_filter_factor of the stored ghosts are
  /// not applied, letting converged regions stall exactly and iterate at
  /// near-zero cost. 0 disables.
  double receive_filter_factor = 0.01;

  // Delta-encoded boundary frames (DESIGN.md §14). The socket backend
  // thins each boundary send down to the rows that moved; the sim/thread
  // engines deliver full values but charge the same bytes-on-wire metric
  // so cross-engine byte accounting stays comparable. Threshold and
  // refresh period are the constants kDeltaThresholdFactor and
  // ode::kDeltaRefreshPeriod.
  /// Master switch: when false every backend sends and charges full
  /// frames. All socket ranks of a run share it; a Hello whose features
  /// differ is rejected.
  bool delta_boundaries = true;

  std::size_t max_iterations_per_processor = 500000;
  double max_virtual_time = 1e9;  // safety stop, virtual seconds

  // Load balancing (paper §5.2).
  bool load_balancing = false;
  lb::BalancerConfig balancer = {};
  lb::EstimatorKind estimator = lb::EstimatorKind::kResidual;

  InitialPartition initial_partition = InitialPartition::kEven;
  /// Relative processor speeds for the speed-weighted partition. The
  /// simulated backend defaults to its grid machines' peak speeds and
  /// treats a non-empty vector as an override; the threaded backend runs
  /// on identical cores, so empty means uniform (the speed-weighted split
  /// then degenerates to the even one). Size must match the processor
  /// count when non-empty.
  std::vector<double> processor_speeds;

  // Timing model.
  /// SIAC/AIAC dispatch the leftward boundary data early in the iteration
  /// (paper Fig. 2-4: "the first half of data is sent as soon as
  /// updated"); this is the fraction of the iteration after which it
  /// leaves, in [0, 1] (the sim rejects others). SISC sends everything at
  /// the end.
  double early_send_fraction = 0.1;

  /// Event-driven idling: an AIAC processor whose iteration changed
  /// nothing and whose inbox is empty sleeps until the next message
  /// arrives. The paper's runtime spins through such no-op iterations
  /// instead; disable to reproduce that behaviour (identical numerics,
  /// busy-looking execution flow). Only the sim and net drivers read it.
  /// The thread driver ignores it: it idles any no-progress AIAC rank for
  /// at most 2 ms, converged or not, because its coordinator detection is
  /// sound only by that timing (see idle_if_quiescent in thread_engine.cpp).
  bool event_driven_idle = true;

  // Fault injection (threaded backend only; the virtual-time engine's
  // perturbations come from its grid model instead). Off by default, in
  // which case the engine is bit-identical to a build without the chaos
  // layer. See runtime/fault_injector.hpp and DESIGN.md "Fault model".
  runtime::FaultConfig faults = {};

  // Convergence detection.
  DetectionMode detection = DetectionMode::kOracle;
  /// Consecutive under-tolerance iterations before a node reports local
  /// convergence to the coordinator (kCoordinator mode).
  std::size_t persistence = 3;
};

struct EngineResult {
  bool converged = false;
  /// Human-readable cause when the run stopped without converging (budget
  /// exhaustion, a peer process going down on the socket backend, ...);
  /// empty on a clean converged run. Shared by all three drivers so
  /// launchers report one field instead of backend-specific state.
  std::string failure_reason;
  /// Virtual seconds (simulated backend) or wall seconds (thread backend)
  /// from start to detected global convergence.
  double execution_time = 0.0;
  ode::Trajectory solution;

  std::size_t total_iterations = 0;
  std::vector<std::size_t> iterations_per_processor;
  std::vector<std::size_t> final_components;
  double total_work = 0.0;

  std::size_t data_messages = 0;
  std::size_t control_messages = 0;
  std::size_t bytes_sent = 0;
  std::size_t migrations = 0;
  std::size_t components_migrated = 0;

  double final_max_residual = 0.0;

  /// Chaos-layer events injected during the run (0 when disabled).
  std::size_t faults_injected = 0;
  /// Paper invariant instrumentation (both backends): smallest owned
  /// component count any processor ever held — after every iteration and,
  /// crucially, immediately after every migration extraction. The famine
  /// guard demands this never drops below the engine's minimum keep.
  std::size_t min_components_observed = 0;
  /// Detection audit (both backends, converged runs): the maximum
  /// interface gap and per-processor residual at the instant the halt
  /// decision was taken, over a quiescent view (every block lock held in
  /// the threaded backend). Under oracle detection both must be within
  /// tolerance or detection fired early; the coordinator records
  /// whatever the protocol actually guaranteed. -1 when not converged.
  double detection_gap = -1.0;
  double detection_max_residual = -1.0;
};

// ---- Driver plumbing shared by the engines --------------------------------

/// The algo layer's fleet settings for `processors` ranks. Speeds are
/// copied as given: the simulated driver fills its grid's peak speeds
/// when the partition is speed-weighted and none were given.
algo::FleetConfig fleet_config(const EngineConfig& config,
                               std::size_t processors);

/// The delta planner settings the byte accounting runs with; empty when
/// delta boundaries are disabled.
std::optional<ode::BoundaryDeltaSender::Config> delta_config(
    const EngineConfig& config);

/// The failure_reason of a run stopped by max_iterations_per_processor.
std::string iteration_budget_reason(const EngineConfig& config);

/// Drains every core's queued migrations, then folds the fleet into a
/// fresh result: solution rows, iterations, components, work, migrations
/// (and their bytes), the famine watermark and the final residual.
/// Everything else — convergence, time, message counters, the detection
/// audit — is the driver's to fill.
EngineResult fleet_result(algo::CoreFleet& fleet, std::size_t dimension,
                          std::size_t num_steps);

}  // namespace aiac::core
