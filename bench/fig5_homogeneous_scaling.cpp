// Figure 5 reproduction: execution times (virtual seconds) of the AIAC
// algorithm with and without load balancing on a local homogeneous
// cluster, as a function of the number of processors.
//
// Paper result: both versions scale well on a log-log plot, with a large
// constant vertical offset — the non-balanced / balanced ratio varies
// between 6.2 and 7.4 (average 6.8). Machines in the paper's lab cluster
// are shared (multi-user), which the machine model reflects.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

using namespace aiac;

int main(int argc, char** argv) {
  util::CliParser cli(
      "Figure 5: AIAC execution time vs processors on a homogeneous "
      "cluster, with and without dynamic load balancing");
  constexpr std::size_t kRepeats = 2;
  bench::describe_common(cli, kRepeats);
  cli.describe("max-procs", "largest processor count (powers of two up to)",
               "16");
  cli.describe("loaded-fraction",
               "speed retained by a machine while other users run", "0.15");
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

  const auto spec = bench::problem_from_cli(cli);
  const auto repeats = bench::repeats_from_cli(cli, kRepeats);
  const auto max_procs =
      static_cast<std::size_t>(cli.get_int("max-procs", 16));
  const double loaded_fraction = cli.get_double("loaded-fraction", 0.15);
  const auto system = bench::make_problem(spec);

  util::Table table("Figure 5: execution times (s) on a homogeneous cluster");
  table.set_header({"processors", "without LB", "with LB", "ratio",
                    "failed"});

  util::OnlineStats ratio_stats;
  for (std::size_t procs = 2; procs <= max_procs; procs *= 2) {
    auto factory = [&](std::uint64_t seed) {
      grid::HomogeneousClusterParams params;
      params.processes = procs;
      params.multi_user = true;
      params.load = bench::bench_load(loaded_fraction);
      params.seed = seed;
      return grid::make_homogeneous_cluster(params);
    };
    const auto no_lb = bench::run_series(
        system, bench::engine_config(spec, core::Scheme::kAIAC, false),
        factory, repeats);
    const auto with_lb = bench::run_series(
        system, bench::engine_config(spec, core::Scheme::kAIAC, true),
        factory, repeats);
    const double ratio = no_lb.mean() / with_lb.mean();
    ratio_stats.add(ratio);
    table.add_row({std::to_string(procs), util::Table::num(no_lb.mean()),
                   util::Table::num(with_lb.mean()),
                   util::Table::num(ratio, 2),
                   bench::failed_cell(no_lb, with_lb)});
    std::cout << "procs=" << procs << " done\n";
  }
  bench::emit(table, cli);
  std::cout << "ratio range: " << util::Table::num(ratio_stats.min(), 2)
            << " .. " << util::Table::num(ratio_stats.max(), 2)
            << ", average " << util::Table::num(ratio_stats.mean(), 2)
            << "  (paper: 6.2 .. 7.4, average 6.8)\n";
  return 0;
}
