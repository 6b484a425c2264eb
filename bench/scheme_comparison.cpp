// Section 6 claims: "in the homogeneous context the synchronous and
// asynchronous iterative algorithms have almost the same behavior and
// performances whereas in the global context of grid computing the
// asynchronous version reveals all its interest"; and the load-balanced
// AIAC "will obtain the very best performances".
//
// This bench runs every scheme (SISC / SIAC / AIAC) with and without load
// balancing in both contexts (local homogeneous cluster, multi-site grid)
// and prints the full matrix.
#include <iostream>
#include <vector>

#include "bench_common.hpp"

using namespace aiac;

int main(int argc, char** argv) {
  util::CliParser cli(
      "Scheme comparison: SISC/SIAC/AIAC x {no LB, LB} x {local cluster, "
      "heterogeneous grid}");
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

  auto local_factory = [&](std::uint64_t seed) {
    grid::HomogeneousClusterParams params;
    params.processes = 8;
    params.multi_user = true;
    params.load = bench::bench_load(0.3);
    params.seed = seed;
    return grid::make_homogeneous_cluster(params);
  };
  auto grid_factory = [&](std::uint64_t seed) {
    grid::HeterogeneousGridParams params;
    params.machines = 8;
    params.sites = 3;
    params.multi_user = true;
    params.load = bench::bench_load(0.25);
    params.seed = seed;
    return grid::make_heterogeneous_grid(params);
  };

  util::Table table(
      "Execution times (s): schemes x load balancing x context");
  table.set_header(
      {"scheme", "LB", "local cluster", "heterogeneous grid", "failed"});
  double best_local = 0.0, best_grid = 0.0;
  std::string best_local_name, best_grid_name;
  for (const auto scheme :
       {core::Scheme::kSISC, core::Scheme::kSIAC, core::Scheme::kAIAC}) {
    for (const bool lb : {false, true}) {
      const auto config = bench::engine_config(spec, scheme, lb);
      const auto local =
          bench::run_series(system, config, local_factory, repeats);
      const auto grid_time =
          bench::run_series(system, config, grid_factory, repeats, 2000);
      table.add_row({core::to_string(scheme), lb ? "yes" : "no",
                     util::Table::num(local.mean()),
                     util::Table::num(grid_time.mean()),
                     bench::failed_cell(local, grid_time)});
      const std::string name =
          core::to_string(scheme) + (lb ? "+LB" : "");
      if (best_local == 0.0 || local.mean() < best_local) {
        best_local = local.mean();
        best_local_name = name;
      }
      if (best_grid == 0.0 || grid_time.mean() < best_grid) {
        best_grid = grid_time.mean();
        best_grid_name = name;
      }
      std::cout << core::to_string(scheme) << (lb ? "+LB" : "") << " done\n";
    }
  }
  bench::emit(table, cli);
  std::cout << "best on local cluster: " << best_local_name
            << "; best on grid: " << best_grid_name
            << "  (paper: load-balanced AIAC obtains the very best "
               "performances)\n";
  return 0;
}
