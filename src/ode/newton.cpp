#include "ode/newton.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/banded_matrix.hpp"

namespace aiac::ode {

namespace {

/// One scalar Newton pass of one row at iteration `it`. `value` is the
/// row's iterate, the centre of the window `f` and `dfdy` were evaluated
/// on. Returns true when the row leaves the batch with `out` written:
/// converged (possibly on the initial check, at zero iterations — see
/// NewtonOptions::check_cost), with the final tiny correction applied, or
/// out of budget, with the value left as it was. Otherwise applies the
/// update to `value` and returns false.
bool scalar_newton_pass(double& value, double y_prev, double f, double dfdy,
                        double dt, std::size_t it, const NewtonOptions& opts,
                        ScalarSolveResult& out) {
  const double g = value - y_prev - dt * f;
  double gp = 1.0 - dt * dfdy;
  if (std::abs(gp) < opts.min_derivative)
    gp = gp < 0 ? -opts.min_derivative : opts.min_derivative;
  const double delta = g / gp;
  if (std::abs(delta) <= opts.tolerance) {
    out = {value - delta, it, true};
    return true;
  }
  if (it == opts.max_iterations) {
    out = {value, it, false};
    return true;
  }
  value -= delta;
  return false;
}

}  // namespace

void scalar_implicit_euler_solve_batch(
    const OdeSystem& system, std::span<const std::size_t> components,
    std::span<const double> y_prev, std::span<const double> windows,
    double t_next, double dt, const NewtonOptions& opts,
    NewtonWorkspace& ws, std::span<ScalarSolveResult> results) {
  const std::size_t n = components.size();
  const std::size_t s = system.stencil_halfwidth();
  const std::size_t width = 2 * s + 1;
  if (y_prev.size() != n || results.size() != n ||
      windows.size() != n * width)
    throw std::invalid_argument("scalar batch solve: size mismatch");
  if (n == 0) return;
  // Scalar-batch buffer roles: `window` packs the windows of the rows
  // still iterating, `rhs` and `diag` their f and df/dy. Grow-only, so a
  // warm workspace never allocates.
  if (ws.rhs.size() < n) ws.rhs.resize(n);
  if (ws.diag.size() < n) ws.diag.resize(n);
  if (ws.window.size() < n * width) ws.window.resize(n * width);
  if (ws.batch_y_prev.size() < n) ws.batch_y_prev.resize(n);
  if (ws.batch_rows.size() < n) ws.batch_rows.resize(n);
  if (ws.batch_components.size() < n) ws.batch_components.resize(n);
  const std::span<double> f(ws.rhs);
  const std::span<double> dfdy(ws.diag);
  const std::span<double> win(ws.window);

  // Pass 0 evaluates the caller's windows in place (their centres are the
  // initial guesses). Most rows of a nearly converged sweep leave here;
  // the rest are packed into the workspace for the later passes.
  system.rhs_and_diagonal_batch(components, t_next, windows, f.first(n),
                                dfdy.first(n));
  std::size_t active = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double value = windows[i * width + s];
    if (scalar_newton_pass(value, y_prev[i], f[i], dfdy[i], dt, 0, opts,
                           results[i]))
      continue;
    ws.batch_rows[active] = i;
    ws.batch_components[active] = components[i];
    ws.batch_y_prev[active] = y_prev[i];
    for (std::size_t slot = 0; slot < width; ++slot)
      win[active * width + slot] = windows[i * width + slot];
    win[active * width + s] = value;
    ++active;
  }
  // Passes 1..max_iterations over the shrinking active set; converged
  // rows are compacted out in order. Every row leaves by the last pass.
  for (std::size_t it = 1; active > 0; ++it) {
    system.rhs_and_diagonal_batch(
        std::span<const std::size_t>(ws.batch_components).first(active),
        t_next, win.first(active * width), f.first(active),
        dfdy.first(active));
    std::size_t kept = 0;
    for (std::size_t a = 0; a < active; ++a) {
      double value = win[a * width + s];
      if (scalar_newton_pass(value, ws.batch_y_prev[a], f[a], dfdy[a], dt, it,
                             opts, results[ws.batch_rows[a]]))
        continue;
      if (kept != a) {
        ws.batch_rows[kept] = ws.batch_rows[a];
        ws.batch_components[kept] = ws.batch_components[a];
        ws.batch_y_prev[kept] = ws.batch_y_prev[a];
        for (std::size_t slot = 0; slot < width; ++slot)
          win[kept * width + slot] = win[a * width + slot];
      }
      win[kept * width + s] = value;
      ++kept;
    }
    active = kept;
  }
}

ScalarSolveResult scalar_implicit_euler_solve(const OdeSystem& system,
                                              std::size_t j, double y_prev,
                                              std::span<const double> window,
                                              double t_next, double dt,
                                              const NewtonOptions& opts,
                                              NewtonWorkspace& workspace) {
  ScalarSolveResult result;
  scalar_implicit_euler_solve_batch(
      system, std::span<const std::size_t>(&j, 1),
      std::span<const double>(&y_prev, 1), window, t_next, dt, opts,
      workspace, std::span<ScalarSolveResult>(&result, 1));
  return result;
}

ScalarSolveResult scalar_implicit_euler_solve(const OdeSystem& system,
                                              std::size_t j, double y_prev,
                                              std::span<const double> window,
                                              double t_next, double dt,
                                              const NewtonOptions& opts) {
  NewtonWorkspace ws;
  return scalar_implicit_euler_solve(system, j, y_prev, window, t_next, dt,
                                     opts, ws);
}

namespace {

/// Assembles A = I - dt J into the workspace Jacobian and factors it in
/// place. One batched OdeSystem::jacobian_band_range call over the block
/// (ws.window holds the extended state for this iterate); the band slot
/// layout of each row (d in [-s, s] at slot d + s) coincides with the
/// band-storage slot layout for kl = ku = s, so rows are written at full
/// stride. Slots whose column falls outside the block are band-storage
/// padding for edge rows — writable, never read by factor/solve — so no
/// per-slot range check is needed. A = I - dt J is written branch-free in
/// two passes: `0.0 - dt * band` over every slot, then `1.0 - dt * band`
/// over the diagonal — the per-slot expressions of the one-pass form, so
/// the bits are the same.
void assemble_and_factor(const OdeSystem& system, std::size_t first,
                         std::size_t nb, double t_next, double dt,
                         NewtonWorkspace& ws) {
  const std::size_t s = system.stencil_halfwidth();
  const std::size_t width = 2 * s + 1;
  ws.jac.reshape(nb, s, s);
  system.jacobian_band_range(first, nb, t_next, ws.window, ws.band);
  double* data = ws.jac.band_data().data();
  const double* band = ws.band.data();
  const std::size_t slots = nb * width;
  for (std::size_t i = 0; i < slots; ++i) data[i] = 0.0 - dt * band[i];
  for (std::size_t i = s; i < slots; i += width) data[i] = 1.0 - dt * band[i];
  linalg::banded_lu_factor_in_place(ws.jac);
  ++ws.factorizations;
  ws.jac_age = 0;
  ws.jac_rows = nb;
  ws.jac_dt = dt;
}

}  // namespace

BlockSolveResult block_implicit_euler_step(
    const OdeSystem& system, std::size_t first, std::span<const double> y_prev,
    std::span<double> y_next, std::span<const double> ghost_left,
    std::span<const double> ghost_right, double t_next, double dt,
    const NewtonOptions& opts, NewtonWorkspace& ws) {
  const std::size_t nb = y_next.size();
  const std::size_t s = system.stencil_halfwidth();
  if (y_prev.size() != nb)
    throw std::invalid_argument("block step: y_prev size mismatch");
  if (first + nb > system.dimension())
    throw std::invalid_argument("block step: range exceeds dimension");
  if ((first > 0 && ghost_left.size() < s) ||
      (first + nb < system.dimension() && ghost_right.size() < s))
    throw std::invalid_argument("block step: ghost spans too small");

  const std::size_t width = 2 * s + 1;
  // Block-path buffer roles: `window` is the extended state y_ext of the
  // batched range calls (window of row r = window[r .. r+2s]); `band`
  // holds all nb Jacobian band rows. Resizes are no-ops once warm.
  if (ws.rhs.size() != nb) ws.rhs.resize(nb);
  if (ws.window.size() != nb + 2 * s) ws.window.resize(nb + 2 * s);
  if (ws.band.size() != nb * width) ws.band.resize(nb * width);

  // Ghost slots of the extended state are fixed for the whole solve; the
  // out-of-domain ones stay zero (never read by a correct system).
  const std::size_t dim = system.dimension();
  for (std::size_t g = 0; g < s; ++g) {
    ws.window[g] = first + g >= s ? ghost_left[g] : 0.0;
    ws.window[s + nb + g] =
        first + nb + g < dim ? ghost_right[g] : 0.0;
  }

  const bool chord = opts.jacobian_reuse != JacobianReuse::kFresh;
  // A held factorization only survives into this call in the across-steps
  // mode, and only when it was built for this block shape and step size.
  if (opts.jacobian_reuse != JacobianReuse::kChordAcrossSteps ||
      ws.jac_rows != nb || ws.jac_dt != dt)
    ws.jac_valid = false;

  BlockSolveResult result;
  const std::size_t factorizations_at_entry = ws.factorizations;
  double prev_update = 0.0;
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    // Residual F(w) = w - y_prev - dt f(t_next, w); checked before any
    // factorization so a converged warm start costs one evaluation only.
    // In chord mode this true-residual check is also what keeps the
    // stopping decision sound despite the approximate Jacobian.
    std::copy(y_next.begin(), y_next.end(),
              ws.window.begin() + static_cast<std::ptrdiff_t>(s));
    system.rhs_range(first, nb, t_next, ws.window, ws.rhs);
    double residual_norm = 0.0;
    for (std::size_t r = 0; r < nb; ++r) {
      ws.rhs[r] = -(y_next[r] - y_prev[r] - dt * ws.rhs[r]);
      residual_norm = std::max(residual_norm, std::abs(ws.rhs[r]));
    }
    if (residual_norm <= opts.tolerance) {
      result.converged = true;
      result.skipped_by_check = it == 0;
      break;
    }
    if (!ws.jac_valid || ws.jac_age >= opts.chord_max_age)
      assemble_and_factor(system, first, nb, t_next, dt, ws);
    ws.jac_valid = true;
    linalg::banded_lu_solve_in_place(ws.jac, ws.rhs);
    ++ws.jac_age;
    double update_norm = 0.0;
    for (std::size_t r = 0; r < nb; ++r) {
      y_next[r] += ws.rhs[r];
      update_norm = std::max(update_norm, std::abs(ws.rhs[r]));
    }
    ++result.newton_iterations;
    result.update_norm = update_norm;
    if (update_norm <= opts.tolerance) {
      result.converged = true;
      break;
    }
    // Chord refresh policy: when the reused factorization no longer
    // contracts the update by chord_refresh_rate per iteration, rebuild at
    // the next iteration. Fresh mode refactorizes unconditionally.
    if (!chord || (prev_update > 0.0 &&
                   update_norm > opts.chord_refresh_rate * prev_update))
      ws.jac_valid = false;
    prev_update = update_norm;
  }
  result.factorizations = ws.factorizations - factorizations_at_entry;
  // Never carry a factorization out of a failed solve or out of a mode
  // that did not ask for cross-call reuse.
  if (!result.converged ||
      opts.jacobian_reuse != JacobianReuse::kChordAcrossSteps)
    ws.jac_valid = false;
  return result;
}

BlockSolveResult block_implicit_euler_step(
    const OdeSystem& system, std::size_t first, std::span<const double> y_prev,
    std::span<double> y_next, std::span<const double> ghost_left,
    std::span<const double> ghost_right, double t_next, double dt,
    const NewtonOptions& opts) {
  // Legacy entry point: a throwaway workspace per call. Still faster than
  // the historical implementation (batched assembly, in-place LU), but the
  // hot path is the workspace overload; kChordAcrossSteps degrades to
  // kChord here because nothing survives the call.
  NewtonWorkspace ws;
  return block_implicit_euler_step(system, first, y_prev, y_next, ghost_left,
                                   ghost_right, t_next, dt, opts, ws);
}

}  // namespace aiac::ode
