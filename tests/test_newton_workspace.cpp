// Workspace-reuse tests for the block implicit-Euler solver, plus
// agreement checks for the batched OdeSystem range entry points
// (rhs_range / jacobian_band_range) against their per-component
// definitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "ode/brusselator.hpp"
#include "ode/fisher_kpp.hpp"
#include "ode/linear_diffusion.hpp"
#include "ode/newton.hpp"

namespace {

using namespace aiac::ode;

Brusselator small_brusselator() {
  Brusselator::Params params;
  params.grid_points = 16;
  return Brusselator(params);
}

FisherKpp small_fisher() {
  FisherKpp::Params params;
  params.grid_points = 32;
  return FisherKpp(params);
}

/// Integrates `steps` implicit-Euler steps of the whole domain as one
/// block, returning the final state. Uses `ws` when given, else the
/// legacy entry point's throwaway workspace.
std::vector<double> integrate_block(const OdeSystem& system, double dt,
                                    std::size_t steps,
                                    const NewtonOptions& opts,
                                    NewtonWorkspace* ws) {
  const std::size_t n = system.dimension();
  std::vector<double> y_prev(n), y_next(n);
  system.initial_state(y_prev);
  std::vector<double> ghost;  // whole-domain block: ghosts never read
  for (std::size_t k = 0; k < steps; ++k) {
    y_next = y_prev;  // warm start from the previous step
    const double t_next = dt * static_cast<double>(k + 1);
    BlockSolveResult result;
    if (ws != nullptr)
      result = block_implicit_euler_step(system, 0, y_prev, y_next, ghost,
                                         ghost, t_next, dt, opts, *ws);
    else
      result = block_implicit_euler_step(system, 0, y_prev, y_next, ghost,
                                         ghost, t_next, dt, opts);
    EXPECT_TRUE(result.converged) << "step " << k;
    y_prev = y_next;
  }
  return y_prev;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double best = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    best = std::max(best, std::abs(a[i] - b[i]));
  return best;
}

// ---- Workspace overload vs legacy entry point ---------------------------

TEST(NewtonWorkspace, WorkspaceOverloadMatchesLegacyBitForBit) {
  const auto system = small_brusselator();
  NewtonOptions opts;
  NewtonWorkspace ws;
  const auto legacy = integrate_block(system, 0.01, 8, opts, nullptr);
  const auto pooled = integrate_block(system, 0.01, 8, opts, &ws);
  // Same arithmetic in the same order: results are identical, not merely
  // close.
  EXPECT_EQ(max_abs_diff(legacy, pooled), 0.0);
}

TEST(NewtonWorkspace, BuffersAreReusedAcrossCalls) {
  const auto system = small_brusselator();
  NewtonOptions opts;
  NewtonWorkspace ws;
  (void)integrate_block(system, 0.01, 2, opts, &ws);
  const double* rhs_data = ws.rhs.data();
  const double* window_data = ws.window.data();
  const double* band_data = ws.band.data();
  (void)integrate_block(system, 0.01, 4, opts, &ws);
  // Same block shape: no buffer was reallocated.
  EXPECT_EQ(ws.rhs.data(), rhs_data);
  EXPECT_EQ(ws.window.data(), window_data);
  EXPECT_EQ(ws.band.data(), band_data);
}

TEST(NewtonWorkspace, ReuseAcrossBlockSizeAndDtMatchesThrowawayWorkspace) {
  const auto system = small_brusselator();
  const std::size_t n = system.dimension();
  const std::size_t s = system.stencil_halfwidth();
  std::vector<double> y0(n);
  system.initial_state(y0);
  NewtonOptions opts;
  NewtonWorkspace shared;
  struct Solve {
    std::size_t first;
    std::size_t rows;
    double dt;
  };
  // The whole domain, then a 3-row-smaller interior block (the buffers
  // shrink), then that block at twice the step, then the whole domain at
  // twice the step (the buffers grow back).
  const Solve solves[] = {
      {0, n, 0.01}, {2, n - 3, 0.01}, {2, n - 3, 0.02}, {0, n, 0.02}};
  for (const Solve& solve : solves) {
    const auto at = [&y0](std::size_t i) {
      return y0.begin() + static_cast<std::ptrdiff_t>(i);
    };
    const std::vector<double> y_prev(at(solve.first),
                                     at(solve.first + solve.rows));
    std::vector<double> ghost_left(s, 0.0), ghost_right(s, 0.0);
    if (solve.first >= s)
      std::copy(at(solve.first - s), at(solve.first), ghost_left.begin());
    if (solve.first + solve.rows + s <= n)
      std::copy(at(solve.first + solve.rows),
                at(solve.first + solve.rows + s), ghost_right.begin());

    std::vector<double> reused = y_prev;
    const auto r_reused = block_implicit_euler_step(
        system, solve.first, y_prev, reused, ghost_left, ghost_right,
        solve.dt, solve.dt, opts, shared);
    NewtonWorkspace throwaway;
    std::vector<double> fresh = y_prev;
    const auto r_fresh = block_implicit_euler_step(
        system, solve.first, y_prev, fresh, ghost_left, ghost_right,
        solve.dt, solve.dt, opts, throwaway);

    ASSERT_TRUE(r_fresh.converged) << solve.rows << " rows, dt " << solve.dt;
    EXPECT_GT(r_fresh.newton_iterations, 0u);
    EXPECT_EQ(r_reused.converged, r_fresh.converged);
    EXPECT_EQ(r_reused.newton_iterations, r_fresh.newton_iterations);
    EXPECT_EQ(r_reused.skipped_by_check, r_fresh.skipped_by_check);
    EXPECT_EQ(reused, fresh) << solve.rows << " rows, dt " << solve.dt;
    EXPECT_EQ(shared.rhs.size(), solve.rows);
  }
}

// ---- Batched range entry points vs per-component definitions ------------

/// Shared check: rhs_range and jacobian_band_range over a mid-domain block
/// must agree with rhs_component / rhs_partial on sliding windows.
void check_range_agreement(const OdeSystem& system) {
  const std::size_t n = system.dimension();
  const std::size_t s = system.stencil_halfwidth();
  const std::size_t width = system.window_size();
  std::vector<double> y(n);
  system.initial_state(y);
  // Perturb so products of distinct components differ.
  for (std::size_t i = 0; i < n; ++i)
    y[i] += 0.01 * static_cast<double>(i % 7);

  const std::size_t first = 2, count = n - 4;
  std::vector<double> y_ext(count + 2 * s);
  for (std::size_t i = 0; i < y_ext.size(); ++i) y_ext[i] = y[first - s + i];

  std::vector<double> out(count);
  system.rhs_range(first, count, 0.0, y_ext, out);
  std::vector<double> band_rows(count * width);
  system.jacobian_band_range(first, count, 0.0, y_ext, band_rows);

  std::vector<double> window(width), band(width);
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t j = first + r;
    system.extract_window(y, j, window);
    EXPECT_NEAR(out[r], system.rhs_component(j, 0.0, window), 1e-14)
        << "component " << j;
    system.jacobian_band_row(j, 0.0, window, band);
    for (std::size_t slot = 0; slot < width; ++slot) {
      EXPECT_NEAR(band_rows[r * width + slot], band[slot], 1e-14)
          << "component " << j << " slot " << slot;
      // jacobian_band_row itself against rhs_partial.
      const std::ptrdiff_t k = static_cast<std::ptrdiff_t>(j + slot) -
                               static_cast<std::ptrdiff_t>(s);
      if (k >= 0 && k < static_cast<std::ptrdiff_t>(n)) {
        EXPECT_NEAR(band[slot],
                    system.rhs_partial(j, static_cast<std::size_t>(k), 0.0,
                                       window),
                    1e-14)
            << "component " << j << " slot " << slot;
      }
    }
  }
}

TEST(OdeRangeApis, BrusselatorRangesMatchComponentwise) {
  check_range_agreement(small_brusselator());
}

TEST(OdeRangeApis, FisherKppRangesMatchComponentwise) {
  check_range_agreement(small_fisher());
}

TEST(OdeRangeApis, LinearDiffusionRangesMatchComponentwise) {
  LinearDiffusion::Params params;
  params.grid_points = 24;
  check_range_agreement(LinearDiffusion(params));
}

TEST(OdeRangeApis, BoundaryBlocksAgreeToo) {
  const auto system = small_brusselator();
  const std::size_t n = system.dimension();
  const std::size_t s = system.stencil_halfwidth();
  std::vector<double> y(n);
  system.initial_state(y);

  // Left-edge block: out-of-domain y_ext slots must be zero (never read).
  const std::size_t count = 6;
  std::vector<double> y_ext(count + 2 * s, 0.0);
  for (std::size_t i = 0; i < count + s; ++i) y_ext[s + i] = y[i];
  std::vector<double> out(count);
  system.rhs_range(0, count, 0.0, y_ext, out);
  std::vector<double> window(system.window_size());
  for (std::size_t j = 0; j < count; ++j) {
    system.extract_window(y, j, window);
    EXPECT_NEAR(out[j], system.rhs_component(j, 0.0, window), 1e-14);
  }

  // Right-edge block.
  const std::size_t first = n - count;
  std::fill(y_ext.begin(), y_ext.end(), 0.0);
  for (std::size_t i = 0; i < count + s; ++i) y_ext[i] = y[first - s + i];
  system.rhs_range(first, count, 0.0, y_ext, out);
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t j = first + r;
    system.extract_window(y, j, window);
    EXPECT_NEAR(out[r], system.rhs_component(j, 0.0, window), 1e-14);
  }
}

TEST(OdeRangeApis, RangeSizeMismatchesThrow) {
  const auto system = small_brusselator();
  std::vector<double> y_ext(10), out(4), band(20);
  // y_ext must be count + 2*stencil = 8.
  EXPECT_THROW(system.rhs_range(0, 4, 0.0, y_ext, out),
               std::invalid_argument);
  std::vector<double> y_ext_ok(8);
  std::vector<double> out_bad(3);
  EXPECT_THROW(system.rhs_range(0, 4, 0.0, y_ext_ok, out_bad),
               std::invalid_argument);
  std::vector<double> band_bad(19);
  EXPECT_THROW(system.jacobian_band_range(0, 4, 0.0, y_ext_ok, band_bad),
               std::invalid_argument);
}

}  // namespace
