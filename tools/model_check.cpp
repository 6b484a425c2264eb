// model_check — deterministic schedule exploration of the AIAC + load
// balancing protocol (see DESIGN.md §9).
//
// Modes:
//   --mode=exhaustive   enumerate every interleaving of a tiny config
//   --mode=random       seeded random schedules at paper-ish scale
//   --replay=FILE       strict replay of a recorded failing schedule
//
// Exit status: 0 all explored schedules clean (or replay reproduces
// nothing), 1 an invariant violation was found (and, with --out, the
// failing schedule plus its shrunk form were written), 2 usage error.
#include <cstdio>
#include <exception>
#include <string>

#include "check/explorer.hpp"
#include "check/invariants.hpp"
#include "check/model.hpp"
#include "check/schedule.hpp"
#include "util/cli.hpp"

namespace {

using namespace aiac;

check::ModelConfig config_from_cli(const util::CliParser& cli) {
  check::ModelConfig config;
  config.processors =
      static_cast<std::size_t>(cli.get_int("procs", 2));
  config.dimension = static_cast<std::size_t>(cli.get_int("dim", 6));
  config.num_steps = static_cast<std::size_t>(cli.get_int("steps", 4));
  config.tolerance = cli.get_double("tol", 1e-4);
  config.persistence =
      static_cast<std::size_t>(cli.get_int("persistence", 2));
  config.load_balancing = cli.get_bool("lb", true);
  config.max_iterations =
      static_cast<std::size_t>(cli.get_int("iters", 6));
  config.mutate_disable_famine_guard = cli.get_bool("mutate-famine", false);

  config.detection =
      algo::parse_detection(cli.get_string("detection", "oracle"));
  return config;
}

void print_failure(const check::ExploreReport& report) {
  const check::RunResult& failure = *report.first_failure;
  std::printf("VIOLATION after %zu actions: %s\n", failure.actions,
              failure.violations.front().to_string().c_str());
  if (report.shrunk_failure) {
    std::printf("shrunk to %zu actions: %s\n",
                report.shrunk_failure->actions,
                report.shrunk_failure->violations.front().to_string().c_str());
  }
}

int save_failure(const check::ExploreReport& report, const std::string& out) {
  if (out.empty()) return 0;
  report.first_failure->schedule.save(out + "/failure.schedule");
  std::printf("wrote %s/failure.schedule\n", out.c_str());
  if (report.shrunk_failure) {
    report.shrunk_failure->schedule.save(out + "/failure.shrunk.schedule");
    std::printf("wrote %s/failure.shrunk.schedule\n", out.c_str());
  }
  return 0;
}

int run_replay(const std::string& path) {
  const check::Schedule schedule = check::Schedule::load(path);
  const check::InvariantSuite suite = check::InvariantSuite::standard();
  const check::RunResult result = check::replay(schedule, suite);
  std::printf("replayed %zu actions (%s)\n", result.actions,
              result.schedule.note.c_str());
  if (result.violated()) {
    std::printf("VIOLATION: %s\n",
                result.violations.front().to_string().c_str());
    return 1;
  }
  std::printf("clean replay — recorded failure did not reproduce\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Deterministic model checker for the AIAC + load-balancing protocol.");
  cli.describe("mode", "exhaustive | random", "exhaustive");
  cli.describe("replay", "strict replay of a recorded schedule file");
  cli.describe("procs", "number of processors", "2");
  cli.describe("dim", "grid components", "6");
  cli.describe("steps", "waveform time steps", "4");
  cli.describe("tol", "convergence tolerance", "1e-4");
  cli.describe("persistence", "detection persistence", "2");
  cli.describe("lb", "enable load balancing", "true");
  cli.describe("detection", "oracle | coordinator", "oracle");
  cli.describe("iters", "per-processor iteration horizon", "6");
  cli.describe("schedules", "schedule budget (runs)", "10000");
  cli.describe("depth", "action budget per run", "200");
  cli.describe("seed", "base seed (random mode)", "1");
  cli.describe("shrink", "shrink attempt budget", "400");
  cli.describe("out", "directory for failing-schedule files");
  cli.describe("mutate-famine",
               "disable the famine guard (demo: the checker catches it)",
               "false");

  try {
    cli.parse(argc, argv);
    if (cli.help_requested()) {
      std::fputs(cli.help_text().c_str(), stdout);
      return 0;
    }

    if (cli.has("replay")) return run_replay(cli.get_string("replay"));

    const check::ModelConfig config = config_from_cli(cli);
    const check::InvariantSuite suite = check::InvariantSuite::standard();
    check::ExploreOptions options;
    options.max_schedules =
        static_cast<std::size_t>(cli.get_int("schedules", 10000));
    options.max_actions = static_cast<std::size_t>(cli.get_int("depth", 200));
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    options.shrink_attempts =
        static_cast<std::size_t>(cli.get_int("shrink", 400));

    const std::string mode = cli.get_string("mode", "exhaustive");
    check::ExploreReport report;
    if (mode == "exhaustive")
      report = check::explore_exhaustive(config, suite, options);
    else if (mode == "random")
      report = check::explore_random(config, suite, options);
    else
      throw std::invalid_argument("unknown --mode: " + mode);

    std::printf(
        "%s: %zu schedule(s), max fanout %zu, %zu hit the action budget%s\n",
        mode.c_str(), report.schedules_explored, report.max_enabled_actions,
        report.runs_hitting_action_budget,
        report.complete ? ", tree fully enumerated" : "");
    if (!report.first_failure) {
      std::printf("no invariant violations\n");
      return 0;
    }
    print_failure(report);
    save_failure(report, cli.get_string("out"));
    return 1;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "model_check: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "model_check: %s\n", e.what());
    return 2;
  }
}
