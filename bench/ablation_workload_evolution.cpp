// Ablation: pure workload evolution (paper §2).
//
// "Even in a homogeneous context, this coupling has the great advantage
// to deal with the evolution of the computation during the iterative
// process ... some components reach the fixed point faster than others."
//
// The Brusselator's evolution is mild (everything oscillates until global
// convergence). The Fisher-KPP traveling front is the extreme case: only
// the components around the front are evolving at any moment. This bench
// runs both problems on a *dedicated, perfectly homogeneous* cluster —
// no machine heterogeneity, no multi-user load — so any balancing gain
// is attributable to workload evolution alone.
#include <iostream>

#include "bench_common.hpp"
#include "ode/fisher_kpp.hpp"

using namespace aiac;

namespace {

void run_case(const ode::OdeSystem& system, const char* label,
              std::size_t num_steps, double t_end, std::size_t repeats,
              util::Table& table) {
  bench::ProblemSpec spec;
  spec.num_steps = num_steps;
  spec.t_end = t_end;
  spec.tolerance = 1e-6;
  auto factory = [&](std::uint64_t seed) {
    grid::HomogeneousClusterParams params;
    params.processes = 8;
    params.multi_user = false;  // dedicated: isolate the evolution effect
    params.seed = seed;
    return grid::make_homogeneous_cluster(params);
  };
  auto no_lb_cfg = bench::engine_config(spec, core::Scheme::kAIAC, false);
  auto lb_cfg = bench::engine_config(spec, core::Scheme::kAIAC, true);
  no_lb_cfg.t_end = t_end;
  lb_cfg.t_end = t_end;
  const auto no_lb = bench::run_series(system, no_lb_cfg, factory, repeats);
  const auto with_lb = bench::run_series(system, lb_cfg, factory, repeats);
  table.add_row({label, util::Table::num(no_lb.mean()),
                 util::Table::num(with_lb.mean()),
                 util::Table::num(no_lb.mean() / with_lb.mean(), 2),
                 bench::failed_cell(no_lb, with_lb)});
  std::cout << label << " done\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Ablation: balancing gain from workload evolution alone (dedicated "
      "homogeneous cluster, AIAC)");
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
  const auto repeats = bench::repeats_from_cli(cli, kRepeats);

  util::Table table(
      "Workload-evolution gains on a dedicated homogeneous cluster");
  table.set_header(
      {"problem", "without LB (s)", "with LB (s)", "ratio", "failed"});

  {
    ode::Brusselator::Params p;
    p.grid_points = 96;
    const ode::Brusselator system(p);
    run_case(system, "Brusselator (oscillating everywhere)", 40, 10.0,
             repeats, table);
  }
  {
    ode::FisherKpp::Params p;
    p.grid_points = 192;
    const ode::FisherKpp system(p);
    run_case(system, "Fisher-KPP (traveling front)", 60, 1.2, repeats,
             table);
  }
  bench::emit(table, cli);
  std::cout << "(expected: the sharper the spatial concentration of work, "
               "the larger the residual-driven balancing gain)\n";
  return 0;
}
