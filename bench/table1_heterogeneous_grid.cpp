// Table 1 reproduction: execution times of the non-balanced and balanced
// AIAC algorithm on a heterogeneous multi-site grid.
//
// Paper setup: fifteen machines over three sites (Belfort, Montbéliard,
// Grenoble), machine types from a PII 400MHz to an Athlon 1.4GHz, sharply
// varying inter-site network speed, multi-user background load, and an
// irregular logical organization "not favorable to load balancing".
// Paper result: 515.3 s non-balanced vs 105.5 s balanced, ratio 4.88.
#include <iostream>

#include "bench_common.hpp"

using namespace aiac;

int main(int argc, char** argv) {
  util::CliParser cli(
      "Table 1: AIAC on a 3-site heterogeneous grid, with and without "
      "dynamic load balancing");
  constexpr std::size_t kRepeats = 2;
  // 15 machines need larger blocks than the global default.
  bench::ProblemSpec defaults;
  defaults.grid_points = 128;
  bench::describe_common(cli, kRepeats, defaults);
  cli.describe("machines", "grid size", "15");
  cli.describe("sites", "number of sites", "3");
  cli.describe("speed-spread", "fastest/slowest machine speed ratio", "3.5");
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

  const auto spec = bench::problem_from_cli(cli, defaults);
  const auto repeats = bench::repeats_from_cli(cli, kRepeats);
  const auto system = bench::make_problem(spec);

  auto factory = [&](std::uint64_t seed) {
    grid::HeterogeneousGridParams params;
    params.machines = static_cast<std::size_t>(cli.get_int("machines", 15));
    params.sites = static_cast<std::size_t>(cli.get_int("sites", 3));
    params.speed_spread = cli.get_double("speed-spread", 3.5);
    params.multi_user = true;
    params.load = bench::bench_load(0.25);
    params.irregular_mapping = true;
    params.seed = seed;
    return grid::make_heterogeneous_grid(params);
  };

  const auto no_lb = bench::run_series(
      system, bench::engine_config(spec, core::Scheme::kAIAC, false),
      factory, repeats);
  const auto with_lb = bench::run_series(
      system, bench::engine_config(spec, core::Scheme::kAIAC, true), factory,
      repeats);

  util::Table table("Table 1: execution times (s) on a heterogeneous system");
  table.set_header({"version", "execution time", "ratio", "failed"});
  table.add_row({"non-balanced", util::Table::num(no_lb.mean()), "",
                 bench::failed_cell(no_lb)});
  table.add_row({"balanced", util::Table::num(with_lb.mean()), "",
                 bench::failed_cell(with_lb)});
  table.add_row({"", "", util::Table::num(no_lb.mean() / with_lb.mean(), 2),
                 ""});
  bench::emit(table, cli);
  std::cout << "(paper: non-balanced 515.3, balanced 105.5, ratio 4.88 — "
               "see EXPERIMENTS.md for the shape-vs-magnitude discussion)\n";
  return 0;
}
