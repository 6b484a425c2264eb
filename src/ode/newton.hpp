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

struct NewtonOptions {
  double tolerance = 1e-10;      // on the Newton update max-norm
  std::size_t max_iterations = 25;
  /// Safety for the scalar solve when |g'| is tiny.
  double min_derivative = 1e-14;
};

/// Relative cost of the initial converged-check (one residual evaluation)
/// versus a full Newton iteration (assembly + banded solve), per
/// component. Warm starts that already satisfy the step equation cost
/// only this much — the work-evolution effect the residual-driven load
/// balancing exploits.
inline constexpr double kCheckCost = 0.1;

/// Flat cost (work units per *time step*, not per component) of the
/// unchanged-inputs fast path in WaveformBlock: when a step's ghost inputs
/// and the previous step's values are bitwise identical to the previous
/// outer iterate and that iterate solved the step to tolerance, the step
/// is skipped after O(stencil) comparisons.
inline constexpr double kStepSkipCost = 0.1;

/// Reusable storage for the implicit-Euler Newton solvers. One workspace
/// per solving context (a WaveformBlock owns one): the banded Jacobian,
/// its in-place factorization, the rhs and stencil-window buffers all live
/// here, so a steady-state solve performs zero heap allocations.
///
/// The members are owned by the solver functions; callers only construct
/// and pass a workspace. Reusing one workspace across different systems,
/// block sizes or step sizes is safe: every solve assembles and factors
/// its own Jacobian, and the buffers are resized to the block it is given.
struct NewtonWorkspace {
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
  bool converged = false;
  /// True when the initial guess already satisfied the step equation and
  /// the solve was skipped after the residual check.
  bool skipped_by_check = false;
};

/// Advances components [first, first + y_next.size()) one implicit Euler
/// step with a banded Newton iteration. Every iteration assembles and
/// factors a fresh Jacobian.
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
/// block size the solve performs zero heap allocations. Residual
/// evaluation and Jacobian assembly go through the batched
/// OdeSystem::rhs_range / jacobian_band_range entry points (one virtual
/// call per block, not per component).
BlockSolveResult block_implicit_euler_step(
    const OdeSystem& system, std::size_t first, std::span<const double> y_prev,
    std::span<double> y_next, std::span<const double> ghost_left,
    std::span<const double> ghost_right, double t_next, double dt,
    const NewtonOptions& opts, NewtonWorkspace& workspace);

}  // namespace aiac::ode
