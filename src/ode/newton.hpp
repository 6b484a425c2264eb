// Newton solvers for the implicit Euler stage (paper §5.1: "use the
// implicit Euler algorithm to approximate the derivative, use the Newton
// algorithm to solve the resulting nonlinear system").
//
// Two granularities are provided, matching the two readings of the
// paper's `Solve`:
//  * scalar: one nonlinear equation per component per time step, all other
//    components frozen at the previous outer iterate (the literal
//    Algorithm 1 `Solve`). The kernel solves all of a time step's rows in
//    lockstep (scalar_implicit_euler_solve_batch); with every neighbour
//    frozen, the rows of a step are independent, so this gives each row
//    exactly the values of Algorithm 1's component-outer loop;
//  * block: one banded Newton solve per time step over a processor's whole
//    local block, with only the *ghost* components frozen (faster outer
//    convergence; the default in this codebase).
//
// Both report the Newton iteration counts they consumed — this is the work
// measure the virtual-time simulation charges, and its decline as a
// component's trajectory converges is exactly the evolving workload the
// residual-driven load balancing exploits (paper §2).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/banded_matrix.hpp"
#include "ode/ode_system.hpp"

namespace aiac::ode {

/// How long a factorized Jacobian may serve Newton iterations before it is
/// rebuilt (the chord / modified-Newton family).
enum class JacobianReuse {
  /// Assemble and factorize every Newton iteration (classical Newton,
  /// quadratic convergence, one O(n b^2) factorization per iteration).
  kFresh,
  /// Chord Newton within a time step: factorize once per step, reuse the
  /// factorization for every Newton iteration of that step. Linear
  /// convergence at rate ||I - A0^{-1} A||, guarded by the refresh policy.
  kChord,
  /// Chord Newton across time steps (and outer waveform iterations): the
  /// workspace keeps the factorization until the refresh policy or a
  /// shape/dt change invalidates it. The fastest mode when trajectories
  /// evolve smoothly — typically one factorization serves many steps.
  kChordAcrossSteps,
};

struct NewtonOptions {
  double tolerance = 1e-10;      // on the Newton update max-norm
  std::size_t max_iterations = 25;
  /// Safety for the scalar solve when |g'| is tiny.
  double min_derivative = 1e-14;
  /// Jacobian reuse policy for the block solve; kFresh reproduces
  /// classical Newton bit-for-bit. Chord modes require the workspace
  /// overload of block_implicit_euler_step (the workspace owns the reused
  /// factorization) — through the legacy entry point they fall back to
  /// per-call reuse only.
  JacobianReuse jacobian_reuse = JacobianReuse::kFresh;
  /// Chord refresh policy: when the Newton update max-norm contracts by
  /// less than this factor per iteration (rate = |delta_k| / |delta_{k-1}|
  /// > chord_refresh_rate), the factorization is declared stale and
  /// rebuilt at the next iteration. 0.5 bounds the extra error of the
  /// update-norm stopping test by one bisection step.
  double chord_refresh_rate = 0.5;
  /// Hard cap on Newton iterations served by one factorization before a
  /// forced rebuild (chord modes).
  std::size_t chord_max_age = 64;
  /// Relative cost of the initial converged-check (one residual
  /// evaluation) versus a full Newton iteration (assembly + banded
  /// solve), per component. Warm starts that already satisfy the step
  /// equation cost only this much — the work-evolution effect the
  /// residual-driven load balancing exploits.
  double check_cost = 0.1;
  /// Flat cost (work units per *time step*, not per component) of the
  /// unchanged-inputs fast path in WaveformBlock: when a step's ghost
  /// inputs and the previous step's values are bitwise identical to the
  /// previous outer iterate and that iterate solved the step to
  /// tolerance, the step is skipped after O(stencil) comparisons.
  double step_skip_cost = 0.1;
};

/// Reusable storage for the implicit-Euler Newton solvers. One workspace
/// per solving context (a WaveformBlock owns one): the banded Jacobian,
/// its in-place factorization, the rhs and stencil-window buffers all live
/// here, so a steady-state solve performs zero heap allocations. The
/// workspace also carries the chord-Newton state — whether the currently
/// held factorization is still valid and how many iterations it served —
/// which is what lets JacobianReuse::kChordAcrossSteps amortize one
/// factorization over many time steps and outer iterations.
///
/// The buffer members are owned by the solver functions; callers only
/// construct, pass, and (on structural changes the solver cannot see)
/// invalidate. Reusing one workspace across different systems or blocks is
/// safe — size or dt changes invalidate the factorization automatically.
struct NewtonWorkspace {
  /// Drops the held factorization; the next chord solve refactorizes.
  /// Call after anything that changes the problem under the solver's feet
  /// (component migration, ghost-row jumps larger than the chord policy
  /// should paper over).
  void invalidate_jacobian() noexcept { jac_valid = false; }

  /// Total factorizations performed through this workspace (the work the
  /// chord policy saves shows up as this growing slower than the Newton
  /// iteration count).
  std::size_t factorizations = 0;

  // -- internals (solver-owned) --
  linalg::BandedMatrix jac;   // assembled, then factored in place
  std::vector<double> rhs;
  std::vector<double> window;
  std::vector<double> band;
  // Scalar batch: df/dy, y_prev, caller row index and global component of
  // each row still iterating (packed in step with `window` and `rhs`).
  std::vector<double> diag;
  std::vector<double> batch_y_prev;
  std::vector<std::size_t> batch_rows;
  std::vector<std::size_t> batch_components;
  bool jac_valid = false;     // chord: held factorization usable
  std::size_t jac_age = 0;    // Newton iterations served by it
  std::size_t jac_rows = 0;   // block size it was built for
  double jac_dt = 0.0;        // step size it was built with
};

struct ScalarSolveResult {
  double value = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Solves w = y_prev + dt * f_j(t_next, y | y_j := w) for component j.
/// `window` holds the stencil neighborhood of j at t_next from the frozen
/// iterate; its center entry provides the initial guess and is logically
/// replaced by the Newton iterate during the solve (the input span is not
/// modified).
ScalarSolveResult scalar_implicit_euler_solve(const OdeSystem& system,
                                              std::size_t j, double y_prev,
                                              std::span<const double> window,
                                              double t_next, double dt,
                                              const NewtonOptions& opts = {});

/// Workspace overload: allocation-free once warm. A batch of one row.
ScalarSolveResult scalar_implicit_euler_solve(const OdeSystem& system,
                                              std::size_t j, double y_prev,
                                              std::span<const double> window,
                                              double t_next, double dt,
                                              const NewtonOptions& opts,
                                              NewtonWorkspace& workspace);

/// Lockstep batched scalar solve: the single-row solve above for
/// components.size() independent rows of one time step. Row i is component
/// components[i] with y_prev[i] and its stencil window at windows[i *
/// (2s+1) ..] (centre = initial guess); its result lands in results[i].
///
/// Each pass evaluates f_j and df_j/dy_j of every row still iterating in
/// one OdeSystem::rhs_and_diagonal_batch call, then applies per row the
/// single-row operation sequence — residual, derivative clamp, update,
/// convergence test — and compacts the rows that converged or ran out of
/// budget out of the batch. Each row therefore gets bitwise the result the
/// single-row solve gives it. All storage lives in `workspace`; once warm
/// at a batch size, a call allocates nothing.
void scalar_implicit_euler_solve_batch(
    const OdeSystem& system, std::span<const std::size_t> components,
    std::span<const double> y_prev, std::span<const double> windows,
    double t_next, double dt, const NewtonOptions& opts,
    NewtonWorkspace& workspace, std::span<ScalarSolveResult> results);

struct BlockSolveResult {
  std::size_t newton_iterations = 0;  // banded solves performed
  std::size_t factorizations = 0;     // Jacobian assemblies + LU factors
  bool converged = false;
  double update_norm = 0.0;  // last Newton update max-norm
  /// True when the initial guess already satisfied the step equation and
  /// the solve was skipped after the residual check.
  bool skipped_by_check = false;
};

/// Advances components [first, first + y_next.size()) one implicit Euler
/// step with a banded Newton iteration.
///
/// `y_prev`  : block values at the previous time step.
/// `y_next`  : in: initial guess (typically the previous outer iterate at
///             t_next); out: the solution.
/// `ghost_left`/`ghost_right`: the `stencil_halfwidth()` components just
/// outside the block on each side, at t_next, from the frozen iterate.
/// They are only read when the block does not touch the corresponding
/// domain boundary; pass spans of the right size regardless.
BlockSolveResult block_implicit_euler_step(
    const OdeSystem& system, std::size_t first, std::span<const double> y_prev,
    std::span<double> y_next, std::span<const double> ghost_left,
    std::span<const double> ghost_right, double t_next, double dt,
    const NewtonOptions& opts = {});

/// Workspace overload — the hot path. All solver storage (Jacobian band,
/// factorization, rhs, stencil window, Jacobian row buffer) lives in
/// `workspace` and is reused across calls: after the first call at a given
/// block size the solve performs zero heap allocations. This is also the
/// only entry point where JacobianReuse::kChordAcrossSteps can reuse a
/// factorization across calls. Residual evaluation and Jacobian assembly
/// go through the batched OdeSystem::rhs_range / jacobian_band_range
/// entry points (one virtual call per block, not per component).
BlockSolveResult block_implicit_euler_step(
    const OdeSystem& system, std::size_t first, std::span<const double> y_prev,
    std::span<double> y_next, std::span<const double> ghost_left,
    std::span<const double> ghost_right, double t_next, double dt,
    const NewtonOptions& opts, NewtonWorkspace& workspace);

}  // namespace aiac::ode
