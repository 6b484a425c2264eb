// Real-concurrency demo: the PM²-like threaded backend running the
// paper's algorithms with actual threads, mailboxes and asynchronous
// message passing (as opposed to the virtual-time simulation used for the
// measurements). Compares SISC and AIAC wall-clock behaviour and verifies
// the computed solution.
//
//   ./build/examples/threaded_pm2_demo --threads=4
//
// Pass --chaos to run the same algorithms under the fault-injection
// layer (delayed/stale boundary messages, migration jitter, compute
// stalls, skewed balancing triggers) and watch the solution stay pinned:
//
//   ./build/examples/threaded_pm2_demo --threads=4 --chaos
//       --chaos-intensity=2 --chaos-seed=7
#include <iostream>

#include "core/thread_engine.hpp"
#include "ode/brusselator.hpp"
#include "ode/waveform.hpp"
#include "runtime/fault_injector.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace aiac;
  util::CliParser cli("PM2-like threaded backend demo");
  cli.describe("threads", "worker threads (virtual processors)", "4");
  cli.describe("grid-points", "Brusselator grid points", "48");
  runtime::describe_chaos_cli(cli);
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
  const auto threads = static_cast<std::size_t>(cli.get_int("threads", 4));

  ode::Brusselator::Params problem;
  problem.grid_points =
      static_cast<std::size_t>(cli.get_int("grid-points", 48));
  const ode::Brusselator system(problem);

  core::EngineConfig config;
  config.num_steps = 60;
  config.t_end = 2.0;
  config.tolerance = 1e-8;
  config.load_balancing = true;
  config.balancer.trigger_period = 3;
  config.balancer.threshold_ratio = 1.5;
  config.balancer.min_components = 3;
  config.faults = runtime::fault_config_from_cli(cli);

  // Sequential reference for validation.
  ode::WaveformOptions ref_opts;
  ref_opts.blocks = 1;
  ref_opts.num_steps = config.num_steps;
  ref_opts.t_end = config.t_end;
  ref_opts.tolerance = config.tolerance;
  const auto reference = ode::waveform_relaxation(system, ref_opts);

  util::Table table("Threaded backend, " + std::to_string(threads) +
                    " threads (wall-clock; single-core container, so no "
                    "speedups expected — this demonstrates correctness "
                    "under real asynchronism)");
  table.set_header({"scheme", "wall time (s)", "iterations", "migrations",
                    "faults", "max error vs reference"});
  for (const auto scheme : {core::Scheme::kSISC, core::Scheme::kAIAC}) {
    config.scheme = scheme;
    const auto result = core::run_threaded(system, threads, config);
    if (!result.converged) {
      std::cerr << core::to_string(scheme) << " did not converge\n";
      return 1;
    }
    table.add_row(
        {core::to_string(scheme), util::Table::num(result.execution_time, 3),
         std::to_string(result.total_iterations),
         std::to_string(result.migrations),
         std::to_string(result.faults_injected),
         util::Table::num(
             result.solution.max_abs_diff(reference.trajectory), 10)});
  }
  table.print(std::cout);
  std::cout << "final components per thread (AIAC run was last)\n";
  return 0;
}
