// Ablation: memory pressure.
//
// EXPERIMENTS.md hypothesizes that part of the paper's very large
// balancing gains (6.8x on a homogeneous cluster, 4.88x on the grid)
// comes from 2003-era memory limits: with an even component
// distribution, small machines (the PII-400 class) can be pushed into
// paging, which slows them superlinearly — and shedding components is
// then worth far more than the pure compute-speed ratio suggests. This
// bench turns the memory model on and sweeps how tight it is.
#include <iostream>

#include "bench_common.hpp"

using namespace aiac;

int main(int argc, char** argv) {
  util::CliParser cli(
      "Ablation: balancing gain vs memory tightness on the heterogeneous "
      "grid (capacity scales with machine speed)");
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
  const double even_share = static_cast<double>(system.dimension()) / 8.0;

  util::Table table(
      "Balancing gain vs memory tightness (8-machine grid; capacity = "
      "tightness x even share on the slowest node, scaling with speed)");
  table.set_header({"slow-node capacity / even share", "without LB (s)",
                    "with LB (s)", "ratio", "failed"});

  // infinity = memory model off; then increasingly tight.
  const double tightness_values[] = {0.0, 1.0, 0.7};
  for (const double tightness : tightness_values) {
    auto factory = [&](std::uint64_t seed) {
      grid::HeterogeneousGridParams params;
      params.machines = 8;
      params.sites = 3;
      params.multi_user = true;
      params.load = bench::bench_load(0.25);
      params.seed = seed;
      if (tightness > 0.0)
        params.memory = grid::MemoryPressure{
            .capacity = tightness * even_share, .penalty = 10.0};
      return grid::make_heterogeneous_grid(params);
    };
    const auto no_lb = bench::run_series(
        system, bench::engine_config(spec, core::Scheme::kAIAC, false),
        factory, repeats);
    const auto with_lb = bench::run_series(
        system, bench::engine_config(spec, core::Scheme::kAIAC, true),
        factory, repeats);
    table.add_row({tightness == 0.0 ? "off" : util::Table::num(tightness, 1),
                   util::Table::num(no_lb.mean()),
                   util::Table::num(with_lb.mean()),
                   util::Table::num(no_lb.mean() / with_lb.mean(), 2),
                   bench::failed_cell(no_lb, with_lb)});
    std::cout << "tightness=" << tightness << " done\n";
  }
  bench::emit(table, cli);
  std::cout << "(the tighter the memory, the closer the ratio climbs "
               "toward the paper's 4.88)\n";
  return 0;
}
