// Section 6, condition 3: "the frequency of load balancing operations
// must be neither too high (to avoid an overloading of the system) nor
// too low (to avoid a too large imbalance)". The paper tunes this via the
// OkToTryLB counter (20 in Algorithm 4) and defers the frequency study to
// future work; this ablation performs it: sweep the trigger period on a
// fast LAN and on a slow, loaded WAN.
#include <iostream>
#include <vector>

#include "bench_common.hpp"

using namespace aiac;

int main(int argc, char** argv) {
  util::CliParser cli(
      "Ablation: load-balancing trigger period (OkToTryLB) on fast and "
      "slow networks");
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
  auto fast_factory = factory_for(grid::campus_wan());
  auto slow_factory = factory_for(grid::loaded_wan());

  const auto baseline_cfg =
      bench::engine_config(spec, core::Scheme::kAIAC, false);
  const auto base_fast =
      bench::run_series(system, baseline_cfg, fast_factory, repeats);
  const auto base_slow =
      bench::run_series(system, baseline_cfg, slow_factory, repeats, 3000);

  util::Table table(
      "Execution time (s) vs load-balancing trigger period (no LB "
      "baseline: fast " +
      util::Table::num(base_fast.mean()) + ", slow " +
      util::Table::num(base_slow.mean()) + ", failed " +
      bench::failed_cell(base_fast, base_slow) + ")");
  table.set_header({"trigger period", "fast WAN", "speedup", "slow WAN",
                    "speedup", "failed"});

  for (const std::size_t period : {1u, 2u, 5u, 20u}) {
    auto config = bench::engine_config(spec, core::Scheme::kAIAC, true);
    config.balancer.trigger_period = period;
    const auto fast =
        bench::run_series(system, config, fast_factory, repeats);
    const auto slow =
        bench::run_series(system, config, slow_factory, repeats, 3000);
    table.add_row({std::to_string(period), util::Table::num(fast.mean()),
                   util::Table::num(base_fast.mean() / fast.mean(), 2),
                   util::Table::num(slow.mean()),
                   util::Table::num(base_slow.mean() / slow.mean(), 2),
                   bench::failed_cell(fast, slow)});
    std::cout << "period=" << period << " done\n";
  }
  bench::emit(table, cli);
  std::cout << "(expected shape: frequent balancing pays on the fast "
               "network; on the slow network migration traffic erodes the "
               "gain, pushing the optimum toward longer periods)\n";
  return 0;
}
