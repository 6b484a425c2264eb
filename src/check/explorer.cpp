#include "check/explorer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace aiac::check {

namespace {

/// Deterministic per-run stream: SplitMix64 over (base seed, run index),
/// so runs are independent and insensitive to each other's draw counts.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t run) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (run + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool same_failure(const RunResult& result, const std::string& invariant) {
  return result.violated() &&
         result.violations.front().invariant == invariant;
}

/// Strictly-better order for shrink candidates: fewer entries first, then
/// lexicographically smaller choice sequences.
bool shrink_improves(const RunResult& candidate, const RunResult& best) {
  const auto& c = candidate.schedule.entries;
  const auto& b = best.schedule.entries;
  if (c.size() != b.size()) return c.size() < b.size();
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i].choice != b[i].choice) return c[i].choice < b[i].choice;
  }
  return false;
}

}  // namespace

RunResult run_schedule(const ModelConfig& config, const InvariantSuite& suite,
                       const RunOptions& options) {
  std::optional<algo::mutation::ScopedFamineGuardDisabled> mutation;
  if (config.mutate_disable_famine_guard) mutation.emplace();

  CheckedModel model(config);
  RunResult result;
  result.schedule.config = config;

  std::size_t decision = 0;
  while (result.actions < options.max_actions) {
    const auto enabled = model.enabled_actions();
    if (enabled.empty()) break;
    if (options.fanout_out) options.fanout_out->push_back(enabled.size());

    std::size_t choice = 0;
    if (decision < options.forced.size()) {
      choice = options.forced[decision];
      if (choice >= enabled.size()) {
        if (options.strict)
          throw std::runtime_error(
              "replay divergence at decision " + std::to_string(decision) +
              ": choice " + std::to_string(choice) + " of " +
              std::to_string(enabled.size()) + " enabled actions");
        choice %= enabled.size();
      }
    } else if (options.stop_after_forced) {
      break;
    } else if (options.chooser) {
      choice = options.chooser(enabled.size());
    }

    std::string described = model.describe(enabled[choice]);
    if (options.strict && options.expected_actions &&
        decision < options.expected_actions->size() &&
        described != (*options.expected_actions)[decision])
      throw std::runtime_error(
          "replay divergence at decision " + std::to_string(decision) +
          ": recorded " + (*options.expected_actions)[decision] +
          ", model offers " + described);

    model.apply(enabled[choice]);
    result.schedule.entries.push_back({choice, std::move(described)});
    ++result.actions;
    ++decision;

    result.violations = suite.evaluate(model);
    if (result.violated()) break;
  }

  result.halted = model.halted();
  result.hit_action_budget =
      result.actions >= options.max_actions && !result.violated();
  result.schedule.note = result.violated()
                             ? result.violations.front().to_string()
                             : "clean";
  return result;
}

ExploreReport explore_exhaustive(const ModelConfig& config,
                                 const InvariantSuite& suite,
                                 const ExploreOptions& options) {
  ExploreReport report;
  std::vector<std::size_t> prefix;
  while (report.schedules_explored < options.max_schedules) {
    std::vector<std::size_t> fanout;
    RunOptions run_options;
    run_options.forced = prefix;
    run_options.max_actions = options.max_actions;
    run_options.fanout_out = &fanout;
    const RunResult result = run_schedule(config, suite, run_options);

    ++report.schedules_explored;
    if (result.hit_action_budget) ++report.runs_hitting_action_budget;
    for (std::size_t width : fanout)
      report.max_enabled_actions = std::max(report.max_enabled_actions, width);
    if (result.violated()) {
      ++report.schedules_with_violations;
      if (!report.first_failure) report.first_failure = result;
    }

    // Backtrack: deepest decision with an untried alternative becomes the
    // next prefix. The recorded choices (not the forced prefix) are the
    // authoritative path — a run may have ended before using it all.
    const std::vector<std::size_t> path = result.schedule.choices();
    bool advanced = false;
    for (std::size_t i = path.size(); i-- > 0;) {
      if (path[i] + 1 < fanout[i]) {
        prefix.assign(path.begin(),
                      path.begin() + static_cast<std::ptrdiff_t>(i));
        prefix.push_back(path[i] + 1);
        advanced = true;
        break;
      }
    }
    if (!advanced) {
      report.complete = true;
      break;
    }
  }

  if (report.first_failure && options.shrink_attempts > 0)
    report.shrunk_failure =
        shrink_failure(report.first_failure->schedule, suite, options);
  return report;
}

ExploreReport explore_random(const ModelConfig& config,
                             const InvariantSuite& suite,
                             const ExploreOptions& options) {
  ExploreReport report;
  for (std::size_t run = 0; run < options.max_schedules; ++run) {
    util::Rng rng(derive_seed(options.seed, run));
    RunOptions run_options;
    run_options.max_actions = options.max_actions;
    run_options.chooser = [&rng](std::size_t enabled) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(enabled) - 1));
    };
    std::vector<std::size_t> fanout;
    run_options.fanout_out = &fanout;
    const RunResult result = run_schedule(config, suite, run_options);

    ++report.schedules_explored;
    if (result.hit_action_budget) ++report.runs_hitting_action_budget;
    for (std::size_t width : fanout)
      report.max_enabled_actions = std::max(report.max_enabled_actions, width);
    if (result.violated()) {
      ++report.schedules_with_violations;
      if (!report.first_failure) {
        report.first_failure = result;
        break;  // record, replay and shrink the first failure found
      }
    }
  }

  if (report.first_failure && options.shrink_attempts > 0)
    report.shrunk_failure =
        shrink_failure(report.first_failure->schedule, suite, options);
  return report;
}

RunResult replay(const Schedule& schedule, const InvariantSuite& suite) {
  std::vector<std::string> expected;
  expected.reserve(schedule.entries.size());
  for (const ScheduleEntry& entry : schedule.entries)
    expected.push_back(entry.action);

  RunOptions options;
  options.forced = schedule.choices();
  options.max_actions = schedule.entries.size();
  options.stop_after_forced = true;
  options.strict = true;
  options.expected_actions = &expected;
  return run_schedule(schedule.config, suite, options);
}

RunResult shrink_failure(const Schedule& failing, const InvariantSuite& suite,
                         const ExploreOptions& options) {
  // Re-establish the failure canonically (and learn which invariant to
  // hold on to while shrinking).
  RunOptions base;
  base.forced = failing.choices();
  base.max_actions = std::max<std::size_t>(options.max_actions,
                                           failing.entries.size());
  RunResult best = run_schedule(failing.config, suite, base);
  if (!best.violated()) return best;
  const std::string target = best.violations.front().invariant;

  std::size_t attempts = 0;
  const auto attempt =
      [&](const std::vector<std::size_t>& forced) -> std::optional<RunResult> {
    if (attempts >= options.shrink_attempts) return std::nullopt;
    ++attempts;
    RunOptions run_options;
    run_options.forced = forced;
    run_options.max_actions = base.max_actions;
    RunResult result = run_schedule(failing.config, suite, run_options);
    if (same_failure(result, target) && shrink_improves(result, best))
      return result;
    return std::nullopt;
  };

  bool improved = true;
  while (improved && attempts < options.shrink_attempts) {
    improved = false;
    // Deletion pass: drop one decision at a time; later choices are
    // re-interpreted against the shifted run (choices wrap when out of
    // range, see RunOptions::strict).
    std::vector<std::size_t> current = best.schedule.choices();
    for (std::size_t i = 0; i < current.size(); ++i) {
      std::vector<std::size_t> candidate = current;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (auto result = attempt(candidate)) {
        best = std::move(*result);
        improved = true;
        break;
      }
    }
    if (improved) continue;
    // Lowering pass: smaller choice indices mean earlier-listed actions
    // (steps before deliveries), i.e. a more canonical schedule.
    current = best.schedule.choices();
    for (std::size_t i = 0; i < current.size() && !improved; ++i) {
      for (std::size_t lower = 0; lower < current[i]; ++lower) {
        std::vector<std::size_t> candidate = current;
        candidate[i] = lower;
        if (auto result = attempt(candidate)) {
          best = std::move(*result);
          improved = true;
          break;
        }
      }
    }
  }
  return best;
}

}  // namespace aiac::check
