// Shared setup for the paper-reproduction benchmark harnesses.
//
// Every bench binary reproduces one table or figure of the paper
// (see DESIGN.md section 4) and prints the same rows/series the paper
// reports, in an ASCII table plus optional CSV (--csv=<path>).
#pragma once

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "core/config.hpp"
#include "core/sim_engine.hpp"
#include "grid/grid.hpp"
#include "ode/brusselator.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace aiac::bench {

/// The Brusselator instance used by the experiments. The paper fixes the
/// time interval [0, 10] and alpha = 1/50 and leaves N as "a parameter of
/// the problem"; these defaults are chosen so a full bench run completes
/// in minutes on one core while exhibiting the paper's regimes.
struct ProblemSpec {
  std::size_t grid_points = 96;    // N (state dimension is 2N)
  std::size_t num_steps = 40;      // time discretization of [0, t_end]
  double t_end = 10.0;
  double tolerance = 1e-6;
};

/// Background multi-user load used by the paper-reproduction benches:
/// competing jobs that live longer than one whole execution, so the load
/// imbalance is persistent within a run ("the machines were subject to a
/// multi-users utilization directly influencing their load"). A loaded
/// machine retains `loaded_fraction` of its speed.
inline grid::OnOffAvailability::Params bench_load(double loaded_fraction =
                                                      0.15) {
  grid::OnOffAvailability::Params load;
  load.loaded_fraction = loaded_fraction;
  load.mean_busy_period = 5000.0;
  load.mean_idle_period = 5000.0;
  return load;
}

inline ode::Brusselator make_problem(const ProblemSpec& spec) {
  ode::Brusselator::Params p;
  p.grid_points = spec.grid_points;
  p.time_end = spec.t_end;
  return ode::Brusselator(p);
}

inline core::EngineConfig engine_config(const ProblemSpec& spec,
                                        core::Scheme scheme,
                                        bool load_balancing) {
  core::EngineConfig config;
  config.scheme = scheme;
  config.num_steps = spec.num_steps;
  config.t_end = spec.t_end;
  config.tolerance = spec.tolerance;
  config.load_balancing = load_balancing;
  // The paper's literal solver: one scalar Newton per component per time
  // step, all other components frozen at the previous iterate (Algorithm
  // 1). Its convergence is independent of the partitioning, which is what
  // gives Figure 5 its parallel log-log curves. The banded block solver
  // (LocalSolveMode::kBlockNewton, this library's default elsewhere)
  // converges in far fewer outer iterations but couples convergence speed
  // to the block layout — see bench/ablation_solve_mode.
  config.solve_mode = ode::LocalSolveMode::kScalarJacobi;
  // Balancer tuning found by the calibration sweeps (see EXPERIMENTS.md):
  // our virtual iterations are chunky (whole-window sweeps), so reacting
  // every iteration with moderate transfers works best. The paper's
  // OkToTryLB=20 is explored in bench/ablation_lb_frequency.
  config.balancer.threshold_ratio = 1.5;
  config.balancer.trigger_period = 2;
  config.balancer.migration_fraction = 1.0;
  config.balancer.max_fraction_per_migration = 0.5;
  config.balancer.min_components = 3;
  return config;
}

/// Execution times of one configuration's series of runs. A run that did
/// not converge or that stopped with a failure_reason is counted as failed
/// and kept out of the mean, so a table row can say how many runs its
/// figure rests on.
struct SeriesStats {
  util::OnlineStats times;  // execution times of the successful runs
  std::size_t runs = 0;
  std::size_t failed = 0;

  double mean() const noexcept { return times.mean(); }
};

/// "k/n" for a table's failed column: failed runs over all runs of the
/// series the row reports.
template <typename... Series>
std::string failed_cell(const Series&... series) {
  const std::size_t failed = (series.failed + ... + std::size_t{0});
  const std::size_t runs = (series.runs + ... + std::size_t{0});
  return std::to_string(failed) + "/" + std::to_string(runs);
}

/// Runs one configuration `repeats` times with different seeds ("our
/// results correspond to the average of a series of executions") and
/// returns execution-time statistics.
template <typename GridFactory>
SeriesStats run_series(const ode::OdeSystem& system,
                       const core::EngineConfig& config,
                       GridFactory&& make_grid, std::size_t repeats,
                       std::uint64_t seed0 = 1000) {
  SeriesStats stats;
  for (std::size_t r = 0; r < repeats; ++r) {
    auto grid = make_grid(seed0 + 17 * r);
    const auto result = core::run_simulated(system, *grid, config);
    ++stats.runs;
    if (!result.converged || !result.failure_reason.empty()) {
      ++stats.failed;
      std::cerr << "warning: run failed (scheme "
                << core::to_string(config.scheme) << ", seed "
                << seed0 + 17 * r << "): "
                << (result.failure_reason.empty() ? "did not converge"
                                                  : result.failure_reason)
                << "\n";
      continue;
    }
    stats.times.add(result.execution_time);
  }
  return stats;
}

/// Prints the table and optionally writes it as CSV.
inline void emit(const util::Table& table, const util::CliParser& cli) {
  table.print(std::cout);
  const std::string csv_path = cli.get_string("csv");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    table.write_csv(out);
    std::cout << "(csv written to " << csv_path << ")\n";
  }
}

inline ProblemSpec problem_from_cli(const util::CliParser& cli,
                                    ProblemSpec spec = {}) {
  spec.grid_points = static_cast<std::size_t>(
      cli.get_int("grid-points", static_cast<std::int64_t>(spec.grid_points)));
  spec.num_steps = static_cast<std::size_t>(
      cli.get_int("steps", static_cast<std::int64_t>(spec.num_steps)));
  spec.tolerance = cli.get_double("tolerance", spec.tolerance);
  return spec;
}

/// Declares the options problem_from_cli and repeats_from_cli read. The
/// printed defaults are the values those functions fall back to — `spec`
/// (the bench's problem defaults, ProblemSpec{} unless it overrides some)
/// and `default_repeats` (0 when the bench has no --repeats) — so the help
/// text cannot drift from them.
inline void describe_common(util::CliParser& cli,
                            std::size_t default_repeats = 0,
                            const ProblemSpec& spec = {}) {
  std::ostringstream tolerance;
  tolerance << spec.tolerance;
  std::ostringstream t_end;
  t_end << spec.t_end;
  cli.describe("grid-points", "Brusselator interior grid points N",
               std::to_string(spec.grid_points));
  cli.describe("steps", "time steps over [0, " + t_end.str() + "]",
               std::to_string(spec.num_steps));
  cli.describe("tolerance", "outer residual tolerance", tolerance.str());
  if (default_repeats > 0)
    cli.describe("repeats", "runs averaged per configuration",
                 std::to_string(default_repeats));
  cli.describe("csv", "also write results to this CSV file", "");
}

inline std::size_t repeats_from_cli(const util::CliParser& cli,
                                    std::size_t default_repeats) {
  return static_cast<std::size_t>(
      cli.get_int("repeats", static_cast<std::int64_t>(default_repeats)));
}

}  // namespace aiac::bench
