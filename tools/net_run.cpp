// net_run — launcher for the socket backend (src/net): forks N worker
// processes over TCP loopback and runs AIAC (± load balancing) on a real
// reaction-diffusion problem, aggregating results in the parent.
//
//   net_run --ranks=4 --problem=brusselator --lb=true
//   net_run --ranks=3 --compare-sim=true
//   net_run --ranks=4 --kill-rank=2            # fault demo: clean failure
//
// Exit status: 0 converged, 1 failed (reason printed), 2 usage error.
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <string>

#include "core/config.hpp"
#include "core/sim_engine.hpp"
#include "grid/grid.hpp"
#include "net/net_engine.hpp"
#include "ode/brusselator.hpp"
#include "ode/fisher_kpp.hpp"
#include "ode/ode_system.hpp"
#include "trace/execution_trace.hpp"
#include "util/cli.hpp"

namespace {

using namespace aiac;

std::unique_ptr<ode::OdeSystem> make_system(const util::CliParser& cli) {
  const std::string problem = cli.get_string("problem", "brusselator");
  const auto grid_points =
      static_cast<std::size_t>(cli.get_int("grid-points", 60));
  if (problem == "brusselator") {
    ode::Brusselator::Params params;
    params.grid_points = grid_points;
    return std::make_unique<ode::Brusselator>(params);
  }
  if (problem == "fisher") {
    ode::FisherKpp::Params params;
    params.grid_points = grid_points;
    return std::make_unique<ode::FisherKpp>(params);
  }
  throw std::invalid_argument("unknown --problem: " + problem);
}

core::EngineConfig config_from_cli(const util::CliParser& cli) {
  core::EngineConfig config;
  config.scheme = core::Scheme::kAIAC;
  config.num_steps = static_cast<std::size_t>(cli.get_int("steps", 30));
  config.t_end = cli.get_double("t-end", 0.8);
  config.tolerance = cli.get_double("tol", 1e-8);
  config.max_iterations_per_processor =
      static_cast<std::size_t>(cli.get_int("iters", 200000));
  config.load_balancing = cli.get_bool("lb", true);
  config.balancer.trigger_period =
      static_cast<std::size_t>(cli.get_int("lb-period", 3));
  config.balancer.threshold_ratio = cli.get_double("lb-threshold", 1.5);
  config.balancer.min_components =
      static_cast<std::size_t>(cli.get_int("lb-min-components", 3));
  config.persistence = static_cast<std::size_t>(cli.get_int("persistence", 3));
  // The socket backend always runs the coordinator protocol; the
  // --compare-sim reference runs it too.
  config.detection = core::DetectionMode::kCoordinator;
  return config;
}

void print_result(const char* label, const core::EngineResult& result) {
  std::printf("[%s] %s  time=%.3fs  iterations=%zu  residual=%.3e\n", label,
              result.converged ? "converged" : "FAILED", result.execution_time,
              result.total_iterations, result.final_max_residual);
  if (!result.failure_reason.empty())
    std::printf("[%s] failure: %s\n", label, result.failure_reason.c_str());
  std::printf("[%s] messages: data=%zu lb=%zu control=%zu bytes=%zu\n", label,
              result.data_messages, result.migrations,
              result.control_messages, result.bytes_sent);
  if (result.migrations > 0)
    std::printf("[%s] migrations=%zu components_moved=%zu\n", label,
                result.migrations, result.components_migrated);
  std::printf("[%s] final partition:", label);
  for (std::size_t c : result.final_components) std::printf(" %zu", c);
  std::printf("\n");
}

void write_trace_csvs(const trace::ExecutionTrace& trace,
                      const std::string& prefix) {
  const struct {
    const char* suffix;
    void (trace::ExecutionTrace::*writer)(std::ostream&) const;
  } outputs[] = {
      {"iterations.csv", &trace::ExecutionTrace::write_iterations_csv},
      {"messages.csv", &trace::ExecutionTrace::write_messages_csv},
      {"migrations.csv", &trace::ExecutionTrace::write_migrations_csv},
  };
  for (const auto& output : outputs) {
    const std::string path = prefix + output.suffix;
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    (trace.*(output.writer))(out);
    std::printf("wrote %s\n", path.c_str());
  }
}

int run(const util::CliParser& cli) {
  const auto ranks = static_cast<std::size_t>(cli.get_int("ranks", 4));
  const std::unique_ptr<ode::OdeSystem> system = make_system(cli);
  const core::EngineConfig config = config_from_cli(cli);

  net::NetConfig net_config;
  net_config.deadline_seconds = cli.get_double("deadline", 120.0);
  net_config.kill_rank = cli.get_int("kill-rank", -1);
  net_config.kill_after_seconds = cli.get_double("kill-after", 0.25);

  const std::string trace_prefix = cli.get_string("trace-prefix", "");
  trace::ExecutionTrace trace;
  trace::ExecutionTrace* trace_ptr =
      trace_prefix.empty() ? nullptr : &trace;

  const core::EngineResult result =
      net::run_net(*system, ranks, config, net_config, trace_ptr);
  print_result("net", result);
  if (trace_ptr) write_trace_csvs(trace, trace_prefix);

  if (cli.get_bool("compare-sim", false)) {
    grid::HomogeneousClusterParams cluster;
    cluster.processes = ranks;
    cluster.multi_user = false;
    std::unique_ptr<grid::Grid> grid = grid::make_homogeneous_cluster(cluster);
    const core::EngineResult reference =
        core::run_simulated(*system, *grid, config);
    print_result("sim", reference);
    if (reference.converged && result.converged) {
      const double diff = result.solution.max_abs_diff(reference.solution);
      std::printf("max |net - sim| = %.3e\n", diff);
    }
  }

  return result.converged ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Socket-backend launcher: N worker processes over TCP loopback.");
  cli.describe("ranks", "number of worker processes", "4");
  cli.describe("problem", "brusselator | fisher", "brusselator");
  cli.describe("grid-points", "spatial grid points", "60");
  cli.describe("steps", "waveform time steps", "30");
  cli.describe("t-end", "integration horizon", "0.8");
  cli.describe("tol", "convergence tolerance", "1e-8");
  cli.describe("iters", "per-processor iteration budget", "200000");
  cli.describe("lb", "enable load balancing", "true");
  cli.describe("lb-period", "balancer trigger period (iterations)", "3");
  cli.describe("lb-threshold", "balancer imbalance threshold ratio", "1.5");
  cli.describe("lb-min-components", "famine guard: minimum keep", "3");
  cli.describe("persistence", "consecutive quiet iterations before local"
               " convergence is reported", "3");
  cli.describe("deadline", "parent watchdog (seconds)", "120");
  cli.describe("kill-rank", "SIGKILL this rank mid-run (fault demo)", "-1");
  cli.describe("kill-after", "seconds into the run to kill", "0.25");
  cli.describe("compare-sim", "also run the virtual-time engine and report"
               " the solution gap", "false");
  cli.describe("trace-prefix", "write <prefix>{iterations,messages,"
               "migrations}.csv from the merged trace");

  try {
    cli.parse(argc, argv);
    if (cli.help_requested()) {
      std::fputs(cli.help_text().c_str(), stdout);
      return 0;
    }
    return run(cli);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "net_run: %s\n", error.what());
    return 2;
  }
}
