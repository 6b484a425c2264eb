// Tests for the deterministic model checker (src/check): the exhaustive
// proof over the tiny config, the seeded random explorer with
// record/replay/shrink, and the mutation self-test that proves the famine
// invariant actually has teeth.
//
// AIAC_CHECK_SCHEDULES scales the random sweeps (the sanitizer jobs run a
// reduced budget; see scripts/ci.sh), mirroring AIAC_CHAOS_SEEDS.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "check/explorer.hpp"
#include "check/invariants.hpp"
#include "check/model.hpp"
#include "check/schedule.hpp"
#include "golden_hash.hpp"

namespace {

using namespace aiac;
using check::CheckedModel;
using check::ExploreOptions;
using check::ExploreReport;
using check::InvariantSuite;
using check::ModelConfig;
using check::RunResult;
using check::Schedule;

std::size_t random_schedule_budget() {
  if (const char* env = std::getenv("AIAC_CHECK_SCHEDULES")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 500;
}

ModelConfig mutant_config() {
  ModelConfig config;
  config.mutate_disable_famine_guard = true;
  return config;
}

TEST(InvariantSuiteTest, StandardSuiteCoversTheFourProperties) {
  const InvariantSuite suite = InvariantSuite::standard();
  ASSERT_EQ(suite.size(), 4u);
  const auto names = suite.names();
  EXPECT_EQ(names[0], "component-conservation");
  EXPECT_EQ(names[1], "famine-guard");
  EXPECT_EQ(names[2], "migration-flag-discipline");
  EXPECT_EQ(names[3], "detection-safety");
}

// The acceptance bar for the harness: every interleaving of the 2-proc
// AIAC + aggressive-LB config within the horizon, no violations. Horizon 3
// is the shortest that reaches the balancer (it first fires at a rank's
// third finish). The tree is pinned: a change to the machine's channels
// or to the enumeration shows up here.
TEST(ModelCheckExhaustive, TwoProcAiacWithLbIsCleanOverTheFullTree) {
  ModelConfig config;
  config.max_iterations = 3;
  ExploreOptions options;
  options.max_schedules = 100000;
  const ExploreReport report =
      check::explore_exhaustive(config, InvariantSuite::standard(), options);
  EXPECT_TRUE(report.complete)
      << "decision tree not fully enumerated within the budget";
  EXPECT_EQ(report.schedules_with_violations, 0u);
  EXPECT_FALSE(report.first_failure.has_value());
  EXPECT_EQ(report.runs_hitting_action_budget, 0u);
  EXPECT_EQ(report.schedules_explored, 19802u);
  EXPECT_GE(report.max_enabled_actions, 3u);
}

TEST(ModelCheckExhaustive, NoLbConfigIsCleanToo) {
  ModelConfig config;
  config.load_balancing = false;
  config.max_iterations = 3;
  ExploreOptions options;
  options.max_schedules = 100000;
  const ExploreReport report =
      check::explore_exhaustive(config, InvariantSuite::standard(), options);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.schedules_with_violations, 0u);
  EXPECT_EQ(report.schedules_explored, 18732u);
}

TEST(ModelCheckRandom, DefaultConfigSurvivesTheSweep) {
  ModelConfig config;
  ExploreOptions options;
  options.max_schedules = random_schedule_budget();
  options.seed = 42;
  const ExploreReport report =
      check::explore_random(config, InvariantSuite::standard(), options);
  EXPECT_EQ(report.schedules_explored, options.max_schedules);
  EXPECT_EQ(report.schedules_with_violations, 0u);
}

TEST(ModelCheckRandom, ThreeProcessorsSurviveTheSweep) {
  ModelConfig config;
  config.processors = 3;
  config.dimension = 9;
  ExploreOptions options;
  options.max_schedules = random_schedule_budget() / 2;
  options.seed = 3;
  const ExploreReport report =
      check::explore_random(config, InvariantSuite::standard(), options);
  EXPECT_EQ(report.schedules_with_violations, 0u);
}

TEST(ModelCheckRandom, SameSeedSameResult) {
  const ModelConfig config = mutant_config();
  ExploreOptions options;
  options.max_schedules = 200;
  options.seed = 7;
  const InvariantSuite suite = InvariantSuite::standard();
  const ExploreReport a = check::explore_random(config, suite, options);
  const ExploreReport b = check::explore_random(config, suite, options);
  ASSERT_TRUE(a.first_failure.has_value());
  ASSERT_TRUE(b.first_failure.has_value());
  EXPECT_EQ(a.first_failure->schedule.serialize(),
            b.first_failure->schedule.serialize());
  EXPECT_EQ(a.schedules_explored, b.schedules_explored);
}

// ---- Mutation self-test -------------------------------------------------
// Disable the famine guard (test-only hook, algo::mutation) and the
// checker must catch the famine within a bounded budget — proof that a
// clean report means something.

TEST(MutationSelfTest, FamineMutantIsCaughtByRandomSearch) {
  ExploreOptions options;
  options.max_schedules = 200;  // caught on schedule 1 in practice
  options.seed = 7;
  const ExploreReport report = check::explore_random(
      mutant_config(), InvariantSuite::standard(), options);
  ASSERT_TRUE(report.first_failure.has_value())
      << "famine mutant survived " << report.schedules_explored
      << " schedules";
  EXPECT_EQ(report.first_failure->violations.front().invariant,
            "famine-guard");
}

TEST(MutationSelfTest, FamineMutantIsCaughtExhaustively) {
  ModelConfig config = mutant_config();
  config.max_iterations = 4;
  ExploreOptions options;
  options.max_schedules = 600000;
  const ExploreReport report =
      check::explore_exhaustive(config, InvariantSuite::standard(), options);
  ASSERT_TRUE(report.first_failure.has_value());
  EXPECT_EQ(report.first_failure->violations.front().invariant,
            "famine-guard");
}

// Hide the link flags from the planner (test-only hook, algo::mutation):
// ranks then plan migrations onto links a neighbour already claimed, the
// fleet's claim refuses them, and the checker must report the breach.
TEST(MutationSelfTest, HiddenLinkFlagsAreCaughtAsDisciplineBreach) {
  const algo::mutation::ScopedLinkFlagsHidden hidden;
  ExploreOptions options;
  options.max_schedules = 200;
  options.seed = 7;
  const ExploreReport report = check::explore_random(
      ModelConfig{}, InvariantSuite::standard(), options);
  ASSERT_TRUE(report.first_failure.has_value())
      << "hidden flags survived " << report.schedules_explored
      << " schedules";
  EXPECT_EQ(report.first_failure->violations.front().invariant,
            "migration-flag-discipline");
}

TEST(MutationSelfTest, RecordedFailureReplaysByteIdentically) {
  ExploreOptions options;
  options.max_schedules = 200;
  options.seed = 7;
  const InvariantSuite suite = InvariantSuite::standard();
  const ExploreReport report =
      check::explore_random(mutant_config(), suite, options);
  ASSERT_TRUE(report.first_failure.has_value());

  const Schedule& recorded = report.first_failure->schedule;
  const RunResult replayed = check::replay(recorded, suite);
  ASSERT_TRUE(replayed.violated());
  EXPECT_EQ(replayed.schedule.serialize(), recorded.serialize());
}

TEST(MutationSelfTest, ShrunkFailureIsSmallerAndFiresTheSameInvariant) {
  ExploreOptions options;
  options.max_schedules = 200;
  options.seed = 7;
  const InvariantSuite suite = InvariantSuite::standard();
  const ExploreReport report =
      check::explore_random(mutant_config(), suite, options);
  ASSERT_TRUE(report.first_failure.has_value());
  ASSERT_TRUE(report.shrunk_failure.has_value());

  const RunResult& original = *report.first_failure;
  const RunResult& shrunk = *report.shrunk_failure;
  EXPECT_LE(shrunk.actions, original.actions);
  EXPECT_EQ(shrunk.violations.front().invariant,
            original.violations.front().invariant);
  // The shrunk schedule is itself a valid recording: replay reproduces it.
  const RunResult replayed = check::replay(shrunk.schedule, suite);
  ASSERT_TRUE(replayed.violated());
  EXPECT_EQ(replayed.schedule.serialize(), shrunk.schedule.serialize());
}

// ---- Schedule file format ----------------------------------------------

TEST(ScheduleFormat, SerializeParseRoundTripIsByteIdentical) {
  ExploreOptions options;
  options.max_schedules = 200;
  options.seed = 7;
  const ExploreReport report = check::explore_random(
      mutant_config(), InvariantSuite::standard(), options);
  ASSERT_TRUE(report.first_failure.has_value());

  const std::string text = report.first_failure->schedule.serialize();
  const Schedule parsed = Schedule::parse(text);
  EXPECT_EQ(parsed.serialize(), text);
}

TEST(ScheduleFormat, ParseRejectsMissingHeader) {
  EXPECT_THROW(Schedule::parse("processors=2\nschedule:\n"),
               std::invalid_argument);
}

TEST(ScheduleFormat, ParseRejectsUnknownKey) {
  EXPECT_THROW(
      Schedule::parse("# model_check schedule v1\nbogus=1\nschedule:\n"),
      std::invalid_argument);
}

TEST(ScheduleFormat, ReplayDetectsTamperedActions) {
  ExploreOptions options;
  options.max_schedules = 200;
  options.seed = 7;
  const InvariantSuite suite = InvariantSuite::standard();
  const ExploreReport report =
      check::explore_random(mutant_config(), suite, options);
  ASSERT_TRUE(report.first_failure.has_value());

  Schedule tampered = report.first_failure->schedule;
  ASSERT_FALSE(tampered.entries.empty());
  tampered.entries.front().action = "deliver-control(9)";
  EXPECT_THROW((void)check::replay(tampered, suite), std::runtime_error);
}

// ---- Findings the checker is expected to surface ------------------------
// Under fully adversarial message delivery, coordinator detection can
// halt prematurely: a node sitting at a stale local fixed point reports
// convergence for `persistence` consecutive iterations while its true
// residual is far above tolerance. This is the classic async
// false-convergence weakness (the oracle mode, which snapshots ground
// truth, is immune — and is what the engines' convergence tests use). The
// veto is the production one, ProcessorCore::can_confirm: it sees only
// delivered data, so a verification round can still close over a
// boundary in flight. The checker finding such a halt within a handful of
// schedules is evidence the detection-safety invariant is armed, so pin
// it as a regression test (ROADMAP item 5 is the fix).

TEST(ModelCheckFindings, CoordinatorPrematureHaltIsExposed) {
  ModelConfig config;
  config.detection = algo::DetectionMode::kCoordinator;
  ExploreOptions options;
  options.max_schedules = 500;
  options.seed = 5;
  const ExploreReport report =
      check::explore_random(config, InvariantSuite::standard(), options);
  ASSERT_TRUE(report.first_failure.has_value());
  EXPECT_EQ(report.first_failure->violations.front().invariant,
            "detection-safety");
  // Search fingerprint: the same seed must explore the same schedules.
  EXPECT_EQ(report.schedules_explored, 4u);
  EXPECT_EQ(golden::text_hash(report.first_failure->schedule.serialize()),
            0x85ac38e783b32148ULL);
}

// The exhaustive trees above run oracle detection, which sends no control
// messages; this one enumerates every interleaving of coordinator control
// deliveries too, and pins the explored state space.
TEST(ModelCheckFindings, CoordinatorExhaustiveTreeIsPinned) {
  ModelConfig config;
  config.detection = algo::DetectionMode::kCoordinator;
  // Horizon 3 enumerates fully in ~25 s (Release, 4-vCPU VM): each
  // departure skipped on a busy link adds the retry's delivery to the
  // interleavings. Reaching further needs state caching (ROADMAP item 3).
  config.max_iterations = 3;
  ExploreOptions options;
  options.max_schedules = 2000000;
  const ExploreReport report =
      check::explore_exhaustive(config, InvariantSuite::standard(), options);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.schedules_explored, 1864989u);
  EXPECT_EQ(report.schedules_with_violations, 0u);
}

// ---- Model basics -------------------------------------------------------

TEST(CheckedModelTest, InitialStateHasActionsAndConservedComponents) {
  const ModelConfig config;
  CheckedModel model(config);
  EXPECT_FALSE(model.enabled_actions().empty());
  EXPECT_EQ(model.in_transit_components(), 0u);
  std::size_t owned = 0;
  for (std::size_t p = 0; p < config.processors; ++p)
    owned += model.fleet().core(p).components();
  EXPECT_EQ(owned, config.dimension);
}

TEST(CheckedModelTest, StepZeroFirstScheduleRunsToQuiescence) {
  const ModelConfig config;
  const InvariantSuite suite = InvariantSuite::standard();
  check::RunOptions options;
  options.max_actions = 500;  // default chooser: always pick action 0
  const RunResult result =
      check::run_schedule(config, suite, options);
  EXPECT_FALSE(result.violated()) << result.schedule.note;
  EXPECT_FALSE(result.hit_action_budget);
  EXPECT_GT(result.actions, 0u);
}

}  // namespace
