// Property tests of the chaos layer: across hundreds of seeded adversarial
// fault plans, the threaded backend must preserve every paper invariant —
// the solution converges to the fault-free trajectory, the famine guard is
// never violated at any instant, and convergence detection never fires
// before the verified residual criterion holds.
//
// The seed count defaults to 200 and can be lowered via the
// AIAC_CHAOS_SEEDS environment variable for expensive instrumented builds
// (the sanitizer CI jobs run a reduced sweep; see scripts/ci.sh).
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <sstream>

#include "algo/processor_core.hpp"
#include "core/thread_engine.hpp"
#include "ode/brusselator.hpp"
#include "ode/waveform.hpp"
#include "runtime/fault_injector.hpp"
#include "trace/execution_trace.hpp"
#include "util/cli.hpp"

namespace {

using namespace aiac;
using core::EngineConfig;
using core::Scheme;
using runtime::FaultConfig;
using runtime::FaultInjector;
using runtime::FaultKind;
using runtime::FaultPlan;

std::size_t chaos_seed_count() {
  if (const char* env = std::getenv("AIAC_CHAOS_SEEDS")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 200;
}

ode::Brusselator chaos_system() {
  ode::Brusselator::Params p;
  p.grid_points = 16;
  return ode::Brusselator(p);
}

EngineConfig chaos_config() {
  EngineConfig config;
  config.scheme = Scheme::kAIAC;
  config.num_steps = 16;
  config.t_end = 0.4;
  config.tolerance = 1e-6;
  config.persistence = 3;
  config.load_balancing = true;
  config.balancer.trigger_period = 2;
  config.balancer.threshold_ratio = 1.5;
  config.balancer.min_components = 3;
  // Short fault magnitudes keep the ≥200-seed sweep fast; the adversarial
  // content is in the probabilities and interleavings, not in how long a
  // single delay lasts.
  config.faults.enabled = true;
  config.faults.max_delay_ms = 0.3;
  config.faults.max_mailbox_jitter_ms = 0.2;
  config.faults.max_stall_ms = 0.5;
  return config;
}

ode::Trajectory reference_solution(const ode::OdeSystem& system,
                                   const EngineConfig& config) {
  ode::WaveformOptions opts;
  opts.blocks = 1;
  opts.num_steps = config.num_steps;
  opts.t_end = config.t_end;
  opts.tolerance = config.tolerance;
  return ode::waveform_relaxation(system, opts).trajectory;
}

// --- The headline property sweep -----------------------------------------

/// Runs `seeds` seeded fault plans of `base` on `processors` threads and
/// checks the paper invariants on each run. Returns the faults injected.
std::size_t sweep_chaos(const ode::OdeSystem& system, std::size_t processors,
                        const EngineConfig& base, std::size_t seeds) {
  const auto reference = reference_solution(system, base);
  // min_keep in the engine: max(min_components, stencil + 1).
  const std::size_t min_keep =
      std::max<std::size_t>(base.balancer.min_components,
                            system.stencil_halfwidth() + 1);
  std::size_t total_faults = 0;
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    auto config = base;
    config.faults.seed = seed;
    // Sweep intensity too: benign (0.5) through harsh (2.0) grids.
    config.faults.intensity = 0.5 + 0.5 * static_cast<double>(seed % 4);
    const auto result = core::run_threaded(system, processors, config);
    SCOPED_TRACE("chaos seed " + std::to_string(seed));

    // The run terminates and was detected, not aborted.
    EXPECT_TRUE(result.converged) << result.failure_reason;
    if (!result.converged) continue;

    // (a) Trajectory match: the perturbed fixed point is the fault-free
    // fixed point.
    EXPECT_LT(result.solution.max_abs_diff(reference), 1e-4);

    // (b) Famine guard: no processor ever dropped below min_keep, not
    // even transiently right after a migration extraction.
    EXPECT_GE(result.min_components_observed, min_keep);

    // No components were lost or duplicated along the way.
    const std::size_t total = std::accumulate(
        result.final_components.begin(), result.final_components.end(),
        std::size_t{0});
    EXPECT_EQ(total, system.dimension());

    // (c) No early detection: at the halt instant (all block locks held)
    // every residual and every interface gap was within tolerance. Only
    // the oracle verifies both; the coordinator's guarantee is the
    // trajectory match above.
    if (config.detection == core::DetectionMode::kOracle) {
      EXPECT_GE(result.detection_gap, 0.0);
      EXPECT_LE(result.detection_gap, config.tolerance);
      EXPECT_GE(result.detection_max_residual, 0.0);
      EXPECT_LE(result.detection_max_residual, config.tolerance);
    }

    total_faults += result.faults_injected;
  }
  return total_faults;
}

TEST(FaultInjectionProperties, PaperInvariantsHoldAcrossRandomizedPlans) {
  const std::size_t seeds = chaos_seed_count();
  // The sweep must actually have been adversarial.
  EXPECT_GT(sweep_chaos(chaos_system(), 3, chaos_config(), seeds), seeds);
}

// Coordinator detection on a paper-size block: a rank asked to verify
// must weigh the boundary already waiting in its slot, not only its
// convergence streak, or the fleet halts with that rank unconverged. The
// long stalls hold a rank between iterations while its neighbor's update
// lands, which is when that race opens.
TEST(FaultInjectionProperties, CoordinatorNeverHaltsOnADeliveredUpdate) {
  ode::Brusselator::Params params;
  params.grid_points = 200;
  auto base = chaos_config();
  base.num_steps = 40;
  base.t_end = 10.0;
  base.detection = core::DetectionMode::kCoordinator;
  base.faults.max_stall_ms = 5.0;
  // An eighth of the sweep: each solve here costs ~0.1 s.
  sweep_chaos(ode::Brusselator(params), 2, base,
              std::max<std::size_t>(1, chaos_seed_count() / 8));
}

/// Wall-clock stand-in for driving one core by hand.
struct ManualClock final : algo::ClockModel {
  double now() const override { return 0.0; }
  double work_to_seconds(std::size_t, double, double, double) override {
    return -1.0;
  }
};

// The veto every driver shares: a locally converged core must not confirm
// while a delivered boundary it has not folded in would move its ghosts
// by more than the tolerance; a delivered copy of what it already holds
// does not veto.
TEST(ProcessorCoreVeto, DisturbingInboxBlocksConfirmation) {
  const auto system = chaos_system();
  algo::FleetConfig fc;
  fc.processors = 2;
  fc.num_steps = 16;
  fc.t_end = 0.4;
  fc.tolerance = 1e-6;
  fc.persistence = 3;
  algo::CoreFleet fleet(system, fc);
  algo::ProcessorCore& core = fleet.core(0);
  ManualClock clock;
  for (int i = 0; i < 100 && !core.locally_converged(); ++i) {
    core.begin_iteration();
    core.finish_iteration(core.run_iteration(), 0.0, clock);
  }
  ASSERT_TRUE(core.locally_converged());
  EXPECT_TRUE(core.can_confirm());

  // Rank 1 has not iterated, so its boundary rows are still the ghosts
  // rank 0 converged against.
  ode::BoundaryMessage msg = fleet.core(1).make_boundary(algo::Side::kLeft);
  core.ingest_boundary(algo::Side::kRight, msg);
  EXPECT_EQ(core.pending_input_disturbance(), 0.0);
  EXPECT_TRUE(core.can_confirm());

  for (double& v : msg.rows) v += 1e-3;
  core.ingest_boundary(algo::Side::kRight, msg);
  EXPECT_TRUE(core.locally_converged());
  EXPECT_FALSE(core.can_confirm());
}

TEST(FaultInjectionProperties, SynchronousSchemesSurviveDelaysAndStalls) {
  const auto system = chaos_system();
  const auto base = chaos_config();
  const auto reference = reference_solution(system, base);
  for (const auto scheme : {Scheme::kSISC, Scheme::kSIAC}) {
    for (std::size_t seed = 0; seed < 10; ++seed) {
      auto config = base;
      config.scheme = scheme;
      config.faults.seed = 1000 + seed;
      // (Stale replay is auto-disabled by the engine for blocking
      // schemes; delays, jitter, stalls and skew all stay on.)
      const auto result = core::run_threaded(system, 3, config);
      SCOPED_TRACE(core::to_string(scheme) + " seed " + std::to_string(seed));
      ASSERT_TRUE(result.converged);
      EXPECT_LT(result.solution.max_abs_diff(reference), 1e-4);
    }
  }
}

// --- Determinism, replayability, zero-cost-off ---------------------------

TEST(FaultInjection, PlanDecisionStreamIsAPureFunctionOfSeed) {
  FaultConfig config;
  config.enabled = true;
  config.seed = 7;
  const auto stream = [&] {
    FaultInjector injector(config, 4);
    std::ostringstream out;
    for (int i = 0; i < 300; ++i) {
      const auto fault =
          injector.boundary_plan(1, FaultInjector::Direction::kToRight)
              ->on_deliver();
      out << fault.delay.count() << '/' << fault.replay_stale << ';';
      out << injector.compute_plan(2)->compute_stall().count() << ';';
      out << injector.compute_plan(2)->lb_trigger_skew() << ';';
    }
    return out.str();
  };
  EXPECT_EQ(stream(), stream());
}

TEST(FaultInjection, DistinctPlansAreIndependentStreams) {
  FaultConfig config;
  config.enabled = true;
  FaultInjector injector(config, 3);
  std::ostringstream a, b;
  for (int i = 0; i < 200; ++i) {
    a << injector.boundary_plan(0, FaultInjector::Direction::kToRight)
             ->on_deliver()
             .delay.count()
      << ';';
    b << injector.boundary_plan(1, FaultInjector::Direction::kToRight)
             ->on_deliver()
             .delay.count()
      << ';';
  }
  EXPECT_NE(a.str(), b.str());
}

TEST(FaultInjection, DisabledConfigInjectsNothing) {
  FaultConfig config;  // enabled = false
  FaultInjector injector(config, 2);
  for (int i = 0; i < 100; ++i) {
    const auto fault =
        injector.boundary_plan(0, FaultInjector::Direction::kToRight)
            ->on_deliver();
    EXPECT_EQ(fault.delay.count(), 0);
    EXPECT_FALSE(fault.replay_stale);
    EXPECT_EQ(injector.compute_plan(1)->compute_stall().count(), 0);
    EXPECT_EQ(injector.compute_plan(1)->lb_trigger_skew(), 0u);
  }
  EXPECT_EQ(injector.log().total(), 0u);
}

TEST(FaultInjection, ZeroIntensityDisablesEverything) {
  FaultConfig config;
  config.enabled = true;
  config.intensity = 0.0;
  EXPECT_FALSE(config.resolved().enabled);
}

TEST(FaultInjection, IntensityScalesProbabilitiesWithClamping) {
  FaultConfig config;
  config.enabled = true;
  config.intensity = 10.0;
  const auto r = config.resolved();
  EXPECT_EQ(r.intensity, 1.0);
  EXPECT_LE(r.delay_probability, 1.0);
  EXPECT_GT(r.delay_probability, config.delay_probability);
  EXPECT_DOUBLE_EQ(r.max_delay_ms, 10.0 * config.max_delay_ms);
}

TEST(FaultInjection, EngineWithFaultsOffReportsNoFaults) {
  const auto system = chaos_system();
  auto config = chaos_config();
  config.faults.enabled = false;
  const auto result = core::run_threaded(system, 3, config);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.faults_injected, 0u);
}

TEST(FaultInjection, InjectedEventsAreRecordedInTheTrace) {
  const auto system = chaos_system();
  auto config = chaos_config();
  config.faults.seed = 5;
  config.faults.intensity = 2.0;
  trace::ExecutionTrace trace;
  const auto result = core::run_threaded(system, 3, config, &trace);
  ASSERT_TRUE(result.converged);
  ASSERT_GT(result.faults_injected, 0u);
  EXPECT_EQ(trace.faults().size(), result.faults_injected);
  for (const auto& fault : trace.faults()) {
    EXPECT_LT(fault.source, 3u);
    EXPECT_GE(fault.time, 0.0);
    EXPECT_FALSE(fault.kind.empty());
  }
  std::ostringstream csv;
  trace.write_faults_csv(csv);
  EXPECT_NE(csv.str().find("stale-replay"), std::string::npos);
}

TEST(FaultInjection, ChaosCliRoundTrip) {
  util::CliParser cli("test");
  runtime::describe_chaos_cli(cli);
  const char* argv[] = {"prog", "--chaos", "--chaos-seed=17",
                        "--chaos-intensity=2.5"};
  cli.parse(4, argv);
  const auto config = runtime::fault_config_from_cli(cli);
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.seed, 17u);
  EXPECT_DOUBLE_EQ(config.intensity, 2.5);

  util::CliParser off("test");
  runtime::describe_chaos_cli(off);
  const char* argv_off[] = {"prog"};
  off.parse(1, argv_off);
  EXPECT_FALSE(runtime::fault_config_from_cli(off).enabled);
}

}  // namespace
