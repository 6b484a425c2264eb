// Bitwise parity of the lockstep batched scalar Newton kernel.
//
// The batched solve must give every row exactly the bits of the per-row
// scalar Newton loop of paper Algorithm 1 (reproduced below as the
// reference), including rows that run out of iterations, rows whose
// derivative is clamped, and rows at the domain edge. The fused
// rhs_and_diagonal_batch overrides must match the componentwise default
// bit for bit, and a wrapper that overrides nothing must stay correct and
// see every row it evaluates. Finally a scalar-mode WaveformBlock iterate
// (time outer, rows batched) must match Algorithm 1's component-outer
// sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "ode/brusselator.hpp"
#include "ode/fisher_kpp.hpp"
#include "ode/linear_diffusion.hpp"
#include "ode/newton.hpp"
#include "ode/trajectory.hpp"
#include "ode/waveform_block.hpp"

namespace {

using namespace aiac;
using ode::NewtonOptions;
using ode::OdeSystem;
using ode::ScalarSolveResult;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Algorithm 1's scalar Newton for one component, one virtual call per
/// evaluation: the loop the batched kernel must reproduce.
ScalarSolveResult reference_solve(const OdeSystem& system, std::size_t j,
                                  double y_prev,
                                  std::span<const double> window,
                                  double t_next, double dt,
                                  const NewtonOptions& opts) {
  const std::size_t s = system.stencil_halfwidth();
  std::vector<double> w(window.begin(), window.end());
  ScalarSolveResult result;
  result.value = w[s];
  for (std::size_t it = 0; it <= opts.max_iterations; ++it) {
    w[s] = result.value;
    const double f = system.rhs_component(j, t_next, w);
    const double g = result.value - y_prev - dt * f;
    double gp = 1.0 - dt * system.rhs_partial(j, j, t_next, w);
    if (std::abs(gp) < opts.min_derivative)
      gp = gp < 0 ? -opts.min_derivative : opts.min_derivative;
    const double delta = g / gp;
    if (std::abs(delta) <= opts.tolerance) {
      result.value -= delta;
      result.converged = true;
      break;
    }
    if (it == opts.max_iterations) break;
    result.value -= delta;
    ++result.iterations;
  }
  return result;
}

std::unique_ptr<OdeSystem> make_system(int kind) {
  if (kind == 0) {
    ode::Brusselator::Params p;
    p.grid_points = 11;
    return std::make_unique<ode::Brusselator>(p);
  }
  if (kind == 1) {
    ode::FisherKpp::Params p;
    p.grid_points = 17;
    return std::make_unique<ode::FisherKpp>(p);
  }
  ode::LinearDiffusion::Params p;
  p.grid_points = 13;
  p.sigma = 0.5;
  p.left_boundary = 1.0;
  p.right_boundary = -0.5;
  return std::make_unique<ode::LinearDiffusion>(p);
}

const char* system_name(int kind) {
  return kind == 0 ? "Brusselator" : kind == 1 ? "FisherKpp" : "LinearDiffusion";
}

/// A batch over every component (edges included) in shuffled order, with
/// some components repeated, windows around the initial state with noise.
struct Batch {
  std::vector<std::size_t> components;
  std::vector<double> y_prev;
  std::vector<double> windows;
};

Batch make_batch(const OdeSystem& system, std::uint64_t seed) {
  const std::size_t n = system.dimension();
  const std::size_t width = system.window_size();
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> noise(-0.3, 0.3);
  std::vector<double> y0(n);
  system.initial_state(y0);
  Batch batch;
  batch.components.resize(n);
  std::iota(batch.components.begin(), batch.components.end(), 0);
  for (std::size_t k = 0; k < n / 3; ++k)
    batch.components.push_back(rng() % n);
  std::shuffle(batch.components.begin(), batch.components.end(), rng);
  std::vector<double> window(width);
  for (const std::size_t j : batch.components) {
    system.extract_window(y0, j, window);
    for (double& v : window) v += noise(rng);
    batch.windows.insert(batch.windows.end(), window.begin(), window.end());
    batch.y_prev.push_back(y0[j] + noise(rng));
  }
  return batch;
}

/// Option sets covering every exit of the Newton loop.
struct OptionCase {
  const char* name;
  NewtonOptions opts;
  double dt;
};

std::vector<OptionCase> option_cases() {
  std::vector<OptionCase> cases;
  cases.push_back({"default", NewtonOptions{}, 0.05});
  NewtonOptions stiff;
  stiff.tolerance = 1e-13;
  cases.push_back({"stiff", stiff, 2.0});
  NewtonOptions exhaust;
  exhaust.max_iterations = 1;
  cases.push_back({"exhausts_budget", exhaust, 0.5});
  NewtonOptions no_budget;
  no_budget.max_iterations = 0;
  cases.push_back({"zero_budget", no_budget, 0.5});
  NewtonOptions clamp;
  clamp.min_derivative = 1e3;  // every derivative is clamped
  clamp.max_iterations = 6;
  cases.push_back({"clamped_derivative", clamp, 0.05});
  return cases;
}

class ScalarBatchParity : public ::testing::TestWithParam<int> {};

TEST_P(ScalarBatchParity, BatchMatchesPerRowSolveBitwise) {
  const auto system = make_system(GetParam());
  ode::NewtonWorkspace ws;  // shared across cases: warm reuse included
  bool saw_exhausted = false;
  bool saw_converged = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Batch batch = make_batch(*system, seed);
    const std::size_t width = system->window_size();
    for (const OptionCase& c : option_cases()) {
      const double t_next = c.dt * 3.0;
      std::vector<ScalarSolveResult> results(batch.components.size());
      ode::scalar_implicit_euler_solve_batch(*system, batch.components,
                                             batch.y_prev, batch.windows,
                                             t_next, c.dt, c.opts, ws, results);
      for (std::size_t i = 0; i < batch.components.size(); ++i) {
        const std::span<const double> window(batch.windows.data() + i * width,
                                             width);
        const std::size_t j = batch.components[i];
        const auto ref = reference_solve(*system, j, batch.y_prev[i], window,
                                         t_next, c.dt, c.opts);
        const auto single = ode::scalar_implicit_euler_solve(
            *system, j, batch.y_prev[i], window, t_next, c.dt, c.opts, ws);
        for (const ScalarSolveResult& got : {results[i], single}) {
          EXPECT_TRUE(same_bits(got.value, ref.value))
              << c.name << " row " << i << " (component " << j << ")";
          EXPECT_EQ(got.iterations, ref.iterations) << c.name << " row " << i;
          EXPECT_EQ(got.converged, ref.converged) << c.name << " row " << i;
        }
        saw_exhausted |= !ref.converged;
        saw_converged |= ref.converged;
      }
    }
  }
  EXPECT_TRUE(saw_exhausted) << "no case ran a row out of budget";
  EXPECT_TRUE(saw_converged);
}

TEST_P(ScalarBatchParity, FusedOverrideMatchesDefaultLoopBitwise) {
  const auto system = make_system(GetParam());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Batch batch = make_batch(*system, seed);
    const std::size_t n = batch.components.size();
    std::vector<double> f(n), dfdy(n), f_ref(n), dfdy_ref(n);
    system->rhs_and_diagonal_batch(batch.components, 0.5, batch.windows, f,
                                   dfdy);
    system->OdeSystem::rhs_and_diagonal_batch(batch.components, 0.5,
                                              batch.windows, f_ref, dfdy_ref);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_bits(f[i], f_ref[i])) << "f row " << i;
      EXPECT_TRUE(same_bits(dfdy[i], dfdy_ref[i])) << "dfdy row " << i;
    }
  }
}

TEST_P(ScalarBatchParity, RejectsBadShapesAndComponents) {
  const auto system = make_system(GetParam());
  const std::size_t width = system->window_size();
  std::vector<std::size_t> bad = {system->dimension()};
  std::vector<double> windows(width, 1.0), out(1), out2(1);
  EXPECT_THROW(system->rhs_and_diagonal_batch(bad, 0.0, windows, out, out2),
               std::out_of_range);
  std::vector<std::size_t> ok = {0};
  std::vector<double> short_windows(width - 1, 1.0);
  EXPECT_THROW(
      system->rhs_and_diagonal_batch(ok, 0.0, short_windows, out, out2),
      std::invalid_argument);
  ode::NewtonWorkspace ws;
  std::vector<ScalarSolveResult> results(2);
  std::vector<double> y_prev = {1.0};
  EXPECT_THROW(ode::scalar_implicit_euler_solve_batch(
                   *system, ok, y_prev, windows, 0.1, 0.1, {}, ws, results),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Systems, ScalarBatchParity, ::testing::Values(0, 1, 2),
                         [](const auto& param_info) {
                           return std::string(system_name(param_info.param));
                         });

/// Forwards rhs_component/rhs_partial and counts them; overrides no batched
/// entry point, so the solver reaches it through the default loop.
class CountingWrapper final : public OdeSystem {
 public:
  explicit CountingWrapper(const OdeSystem& inner) : inner_(&inner) {}
  std::size_t dimension() const noexcept override {
    return inner_->dimension();
  }
  std::size_t stencil_halfwidth() const noexcept override {
    return inner_->stencil_halfwidth();
  }
  double rhs_component(std::size_t j, double t,
                       std::span<const double> w) const override {
    ++rhs_calls;
    return inner_->rhs_component(j, t, w);
  }
  double rhs_partial(std::size_t j, std::size_t k, double t,
                     std::span<const double> w) const override {
    ++partial_calls;
    return inner_->rhs_partial(j, k, t, w);
  }
  void initial_state(std::span<double> y) const override {
    inner_->initial_state(y);
  }
  mutable std::size_t rhs_calls = 0;
  mutable std::size_t partial_calls = 0;

 private:
  const OdeSystem* inner_;
};

TEST(ScalarBatchWrapper, DefaultPathStaysCorrectAndCounted) {
  const auto system = make_system(0);
  const CountingWrapper wrapper(*system);
  const Batch batch = make_batch(*system, 3);
  const std::size_t n = batch.components.size();
  const double dt = 0.5;
  ode::NewtonWorkspace ws;
  std::vector<ScalarSolveResult> direct(n), wrapped(n);
  ode::scalar_implicit_euler_solve_batch(*system, batch.components,
                                         batch.y_prev, batch.windows, dt, dt,
                                         {}, ws, direct);
  ode::scalar_implicit_euler_solve_batch(wrapper, batch.components,
                                         batch.y_prev, batch.windows, dt, dt,
                                         {}, ws, wrapped);
  // Each row is evaluated once per pass: the check plus every iteration.
  std::size_t passes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(same_bits(direct[i].value, wrapped[i].value)) << i;
    EXPECT_EQ(direct[i].iterations, wrapped[i].iterations) << i;
    passes += wrapped[i].iterations + 1;
  }
  EXPECT_EQ(wrapper.rhs_calls, passes);
  EXPECT_EQ(wrapper.partial_calls, passes);
}

/// Algorithm 1's outer iteration on a whole-domain block: component outer,
/// time inner, every neighbour from the frozen previous iterate.
struct ReferenceSweep {
  ode::Trajectory old_iterate;
  std::size_t newton_iterations = 0;
  bool all_converged = true;
  double residual = 0.0;
};

void reference_iterate(const OdeSystem& system, std::size_t num_steps,
                       double dt, const NewtonOptions& opts,
                       ReferenceSweep& state) {
  const std::size_t n = system.dimension();
  const std::size_t width = system.window_size();
  ode::Trajectory next = state.old_iterate;
  std::vector<double> column(n), window(width);
  state.newton_iterations = 0;
  state.all_converged = true;
  state.residual = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t step = 1; step <= num_steps; ++step) {
      for (std::size_t k = 0; k < n; ++k)
        column[k] = state.old_iterate.at(k, step);
      system.extract_window(column, j, window);
      const auto r =
          reference_solve(system, j, next.at(j, step - 1), window,
                          dt * static_cast<double>(step), dt, opts);
      next.at(j, step) = r.value;
      state.residual = std::max(
          state.residual, std::abs(r.value - state.old_iterate.at(j, step)));
      state.newton_iterations += r.iterations;
      state.all_converged &= r.converged;
    }
  }
  state.old_iterate = next;
}

TEST(ScalarBatchSweep, LockstepIterateMatchesComponentOuterSweep) {
  for (const int kind : {0, 1, 2}) {
    const auto system = make_system(kind);
    const std::size_t n = system->dimension();
    for (const std::size_t chunks : {std::size_t{1}, std::size_t{3}}) {
      ode::WaveformBlockConfig config;
      config.count = n;
      config.num_steps = 8;
      config.t_end = 2.0;
      config.mode = ode::LocalSolveMode::kScalarJacobi;
      config.newton.max_iterations = 4;  // some rows exhaust early on
      config.intra_chunks = chunks;
      ode::WaveformBlock block(*system, config);
      ReferenceSweep ref;
      ref.old_iterate = ode::Trajectory(n, config.num_steps);
      std::vector<double> y0(n);
      system->initial_state(y0);
      for (std::size_t step = 0; step <= config.num_steps; ++step)
        ref.old_iterate.set_column(step, y0);
      for (int iter = 0; iter < 4; ++iter) {
        const auto stats = block.iterate();
        reference_iterate(*system, config.num_steps, block.dt(),
                          config.newton, ref);
        EXPECT_EQ(stats.newton_iterations, ref.newton_iterations)
            << system_name(kind) << " iter " << iter;
        EXPECT_EQ(stats.all_converged, ref.all_converged);
        EXPECT_TRUE(same_bits(stats.residual, ref.residual));
        for (std::size_t j = 0; j < n; ++j) {
          const auto row = block.owned_row(j);
          for (std::size_t step = 0; step <= config.num_steps; ++step)
            ASSERT_TRUE(same_bits(row[step], ref.old_iterate.at(j, step)))
                << system_name(kind) << " chunks " << chunks << " iter "
                << iter << " component " << j << " step " << step;
        }
      }
    }
  }
}

}  // namespace
