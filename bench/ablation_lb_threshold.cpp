// Section 6, condition 4: "the accuracy of the load balancing ... depends
// on the network load. If the network is heavily loaded (or slow) it may
// be preferable to perform a coarse load balancing with less data
// migration. On the other hand, an accurate load balancing will tend to
// speed up the global convergence."
//
// Sweeps the ratio threshold and the migration fraction (coarse vs
// accurate balancing) under a light and a heavily loaded network, and
// also compares the load estimators of §5.2 (residual vs iteration time
// vs component count).
#include <iostream>

#include "bench_common.hpp"

using namespace aiac;

namespace {

template <typename Factory>
void sweep_accuracy(const ode::OdeSystem& system,
                    const bench::ProblemSpec& spec, Factory&& factory,
                    std::size_t repeats, const std::string& label,
                    util::Table& table) {
  const auto baseline =
      bench::run_series(system, bench::engine_config(spec, core::Scheme::kAIAC, false),
                        factory, repeats);
  for (const double threshold : {1.5, 4.0}) {
    for (const double fraction : {0.25, 1.0}) {
      auto config = bench::engine_config(spec, core::Scheme::kAIAC, true);
      config.balancer.threshold_ratio = threshold;
      config.balancer.migration_fraction = fraction;
      const auto lb = bench::run_series(system, config, factory, repeats);
      table.add_row({label, util::Table::num(threshold, 1),
                     fraction < 0.5 ? "coarse" : "accurate",
                     util::Table::num(lb.mean()),
                     util::Table::num(baseline.mean() / lb.mean(), 2),
                     bench::failed_cell(baseline, lb)});
    }
    std::cout << label << " threshold=" << threshold << " done\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Ablation: balancing accuracy (threshold ratio, migration fraction) "
      "vs network load, plus the load-estimator comparison of paper §5.2");
  constexpr std::size_t kRepeats = 1;
  bench::describe_common(cli, kRepeats);
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }

  auto spec = bench::problem_from_cli(cli);
  const auto repeats = bench::repeats_from_cli(cli, kRepeats);
  const auto system = bench::make_problem(spec);

  auto factory_for = [&](grid::LinkParams wan) {
    return [&, wan](std::uint64_t seed) {
      grid::HeterogeneousGridParams params;
      params.machines = 8;
      params.sites = 3;
      params.multi_user = true;
      params.load = bench::bench_load(0.25);
      params.wan = wan;
      params.seed = seed;
      return grid::make_heterogeneous_grid(params);
    };
  };

  util::Table accuracy("Balancing accuracy vs network load (speedup over "
                       "unbalanced AIAC)");
  accuracy.set_header(
      {"network", "threshold", "migration", "time (s)", "speedup", "failed"});
  sweep_accuracy(system, spec, factory_for(grid::campus_wan()), repeats,
                 "light", accuracy);
  sweep_accuracy(system, spec, factory_for(grid::loaded_wan()), repeats,
                 "loaded", accuracy);
  bench::emit(accuracy, cli);

  // Estimator comparison (paper §5.2 argues the residual beats the
  // "time of the k last iterations" criterion).
  util::Table estimators("Load estimator comparison (heterogeneous grid)");
  estimators.set_header({"estimator", "time (s)", "speedup", "failed"});
  auto factory = factory_for(grid::campus_wan());
  const auto baseline = bench::run_series(
      system, bench::engine_config(spec, core::Scheme::kAIAC, false),
      factory, repeats);
  for (const auto kind :
       {lb::EstimatorKind::kResidual, lb::EstimatorKind::kIterationTime,
        lb::EstimatorKind::kComponentCount,
        lb::EstimatorKind::kResidualTime}) {
    auto config = bench::engine_config(spec, core::Scheme::kAIAC, true);
    config.estimator = kind;
    const auto lb_stats = bench::run_series(system, config, factory, repeats);
    estimators.add_row({lb::to_string(kind),
                        util::Table::num(lb_stats.mean()),
                        util::Table::num(baseline.mean() / lb_stats.mean(), 2),
                        bench::failed_cell(baseline, lb_stats)});
    std::cout << "estimator " << lb::to_string(kind) << " done\n";
  }
  std::cout << '\n';
  estimators.print(std::cout);
  return 0;
}
