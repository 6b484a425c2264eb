// Kernel + end-to-end microbenchmark of the solver hot path, emitting the
// machine-readable BENCH_kernels.json baseline every perf PR is judged
// against (see EXPERIMENTS.md "Kernel benchmarks and the perf baseline").
//
// Three kinds of numbers per kernel:
//   * ns_per_step           — wall time per implicit-Euler step (or per
//                             outer iteration for the waveform benches),
//   * newton_iterations     — inner-solve work behind that time,
//   * allocs_per_step       — heap allocations observed by the counting
//                             global operator new below.
// Absolute nanoseconds are hardware-dependent; the regression guard
// (`--baseline=FILE`, run by `scripts/ci.sh bench-smoke`) therefore fails
// only on the hardware-normalized metrics — allocation counts and the
// speedup ratios of the workspace/chord kernels over the fresh-allocation
// kernel — plus same-machine ns regressions beyond 25%.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/sim_engine.hpp"
#include "grid/grid.hpp"
#include "linalg/banded_matrix.hpp"
#include "ode/brusselator.hpp"
#include "ode/newton.hpp"
#include "ode/waveform_block.hpp"
#include "runtime/worker_pool.hpp"
#include "util/cli.hpp"

// ---- Counting allocator -------------------------------------------------
// Every benchmark snapshots this counter around its timed region, so
// "allocations per step" is exact, not sampled. Relaxed ordering is enough:
// the benches are single-threaded and the end-to-end run only needs a
// total.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC flags std::free on pointers from a replaced operator new as a
// mismatched pair; the pairing here is intentional (new uses malloc).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace aiac;
using Clock = std::chrono::steady_clock;

std::uint64_t allocs() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

struct BenchResult {
  std::string name;
  double ns_per_step = 0.0;
  double newton_iterations_per_step = 0.0;
  double allocs_per_step = 0.0;
  /// Same-run wall-time ratio of the fresh-allocation kernel over this
  /// kernel (>1 = faster than fresh). 0 when not applicable.
  double speedup_vs_fresh = 0.0;
  /// Hardware cores the bench could use (parallel benches only; 0 for
  /// serial kernels). A par bench on a 1-core host degenerates to inline
  /// chunked execution, so its speedup carries no signal there — the
  /// baseline comparator skips the speedup gate when either side ran
  /// with cores == 1.
  std::size_t cores = 0;
};

/// Shared problem: the paper's Brusselator at bench scale, one processor's
/// 3-way share of the domain (the shape the engines hand to the kernel).
struct KernelProblem {
  ode::Brusselator system;
  std::size_t first = 64;
  std::size_t nb = 64;
  std::size_t num_steps = 40;
  double t_end = 10.0;

  KernelProblem()
      : system([] {
          ode::Brusselator::Params p;
          p.grid_points = 96;
          return p;
        }()) {}
  double dt() const { return t_end / static_cast<double>(num_steps); }
};

/// One waveform outer sweep over the time window with the given options,
/// using the legacy (workspace-free) entry point. Trajectory rows are the
/// per-step solutions; the constant-at-y0 start is the waveform-relaxation
/// initial iterate, so the Newton work per step is what a real first outer
/// iteration pays.
struct SweepStats {
  double seconds = 0.0;
  std::uint64_t newton_iterations = 0;
  std::uint64_t allocations = 0;
  std::vector<double> final_state;
};

template <typename StepFn>
SweepStats run_sweep(const KernelProblem& prob, std::size_t repeats,
                     StepFn&& step_fn) {
  const std::size_t nb = prob.nb;
  std::vector<double> y0(prob.system.dimension());
  prob.system.initial_state(y0);
  std::vector<double> ghost_left(prob.system.stencil_halfwidth());
  std::vector<double> ghost_right(prob.system.stencil_halfwidth());
  for (std::size_t g = 0; g < ghost_left.size(); ++g) {
    ghost_left[g] = y0[prob.first - ghost_left.size() + g];
    ghost_right[g] = y0[prob.first + nb + g];
  }
  std::vector<double> y_prev(nb);
  std::vector<double> y_next(nb);
  SweepStats stats;
  const std::uint64_t a0 = allocs();
  const auto t0 = Clock::now();
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    for (std::size_t r = 0; r < nb; ++r) y_prev[r] = y0[prob.first + r];
    for (std::size_t step = 1; step <= prob.num_steps; ++step) {
      const double t_next = prob.dt() * static_cast<double>(step);
      // Warm start from the previous time step (the constant initial
      // waveform iterate provides the ghost values).
      y_next = y_prev;
      stats.newton_iterations +=
          step_fn(prob, y_prev, y_next, ghost_left, ghost_right, t_next);
      y_prev = y_next;
    }
  }
  stats.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  stats.allocations = allocs() - a0;
  stats.final_state = y_prev;
  return stats;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

// ---- JSON emission and the baseline comparison --------------------------

std::string json_escape_number(double v) {
  std::ostringstream out;
  out << std::setprecision(6) << v;
  return out.str();
}

void write_json(const std::string& path, bool quick,
                const std::vector<BenchResult>& results,
                double end_to_end_seconds, double end_to_end_intra4) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"aiac-bench-kernels-v1\",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  // Cores of the host that produced the numbers (nproc).
  out << "  \"cores\": "
      << std::max(1u, std::thread::hardware_concurrency()) << ",\n";
  out << "  \"benches\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"ns_per_step\": "
        << json_escape_number(r.ns_per_step)
        << ", \"newton_iterations_per_step\": "
        << json_escape_number(r.newton_iterations_per_step)
        << ", \"allocs_per_step\": " << json_escape_number(r.allocs_per_step)
        << ", \"speedup_vs_fresh\": "
        << json_escape_number(r.speedup_vs_fresh);
    if (r.cores > 0) out << ", \"cores\": " << r.cores;
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"end_to_end\": {\"name\": \"fig5_sim_aiac_lb_3proc\", "
      << "\"seconds\": " << json_escape_number(end_to_end_seconds)
      << "},\n";
  // The same run with --intra-threads=4 (wall seconds; the virtual-time
  // result is identical by construction). Extra object, so comparators
  // iterating `benches` are unaffected.
  out << "  \"end_to_end_intra4\": {\"name\": \"fig5_sim_aiac_lb_3proc_"
      << "intra4\", \"seconds\": " << json_escape_number(end_to_end_intra4)
      << "}\n}\n";
}

/// Minimal extractor for the schema this binary itself writes: finds the
/// bench object for `name` and reads `field` out of it. Returns NaN when
/// absent (treated as "baseline does not cover this metric").
double extract_metric(const std::string& json, const std::string& name,
                      const std::string& field) {
  const std::string tag = "\"name\": \"" + name + "\"";
  const auto at = json.find(tag);
  if (at == std::string::npos) return std::nan("");
  const auto end = json.find('}', at);
  const std::string key = "\"" + field + "\": ";
  const auto kat = json.find(key, at);
  if (kat == std::string::npos || kat > end) return std::nan("");
  return std::strtod(json.c_str() + kat + key.size(), nullptr);
}

/// Compares this run against a checked-in baseline. Returns the number of
/// regressions. Hardware-normalized metrics (allocation counts, speedup
/// ratios) regress hard; raw nanoseconds only fail when the baseline was
/// produced on this machine class — controlled by AIAC_BENCH_STRICT_NS
/// (scripts/ci.sh bench-smoke leaves it on; cross-machine users unset it).
int compare_against_baseline(const std::string& baseline_path,
                             const std::vector<BenchResult>& results) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::cerr << "bench_kernels: cannot read baseline " << baseline_path
              << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  if (json.find("aiac-bench-kernels-v1") == std::string::npos) {
    std::cerr << "bench_kernels: baseline has wrong schema\n";
    return 1;
  }
  const char* strict_env = std::getenv("AIAC_BENCH_STRICT_NS");
  const bool strict_ns = strict_env != nullptr &&
                         std::string(strict_env) != "0" &&
                         std::string(strict_env) != "";
  int regressions = 0;
  constexpr double kMargin = 1.25;  // >25% worse fails
  for (const auto& r : results) {
    const double base_allocs =
        extract_metric(json, r.name, "allocs_per_step");
    if (!std::isnan(base_allocs) &&
        r.allocs_per_step > base_allocs * kMargin + 0.01) {
      std::cerr << "REGRESSION " << r.name << ": allocs_per_step "
                << r.allocs_per_step << " > baseline " << base_allocs
                << "\n";
      ++regressions;
    }
    const double base_speedup =
        extract_metric(json, r.name, "speedup_vs_fresh");
    const double base_cores = extract_metric(json, r.name, "cores");
    // A parallel bench on a single-core host (either now or when the
    // baseline was recorded) ran its chunks inline; its speedup is
    // honest noise around 1.0, not a gateable metric.
    const bool single_core_side =
        r.cores == 1 || (!std::isnan(base_cores) && base_cores <= 1.0);
    if (!std::isnan(base_speedup) && base_speedup > 0.0 &&
        r.speedup_vs_fresh > 0.0 && r.cores > 0 && single_core_side) {
      std::cerr << "note: " << r.name << " speedup_vs_fresh "
                << r.speedup_vs_fresh
                << " not gated (single-core host on one side)\n";
    } else if (!std::isnan(base_speedup) && base_speedup > 0.0 &&
               r.speedup_vs_fresh > 0.0 &&
               r.speedup_vs_fresh < base_speedup / kMargin) {
      std::cerr << "REGRESSION " << r.name << ": speedup_vs_fresh "
                << r.speedup_vs_fresh << " < baseline " << base_speedup
                << " / " << kMargin << "\n";
      ++regressions;
    }
    const double base_ns = extract_metric(json, r.name, "ns_per_step");
    if (!std::isnan(base_ns) && base_ns > 0.0 &&
        r.ns_per_step > base_ns * kMargin) {
      if (strict_ns) {
        std::cerr << "REGRESSION " << r.name << ": ns_per_step "
                  << r.ns_per_step << " > baseline " << base_ns << " * "
                  << kMargin << "\n";
        ++regressions;
      } else {
        std::cerr << "note: " << r.name << " ns_per_step " << r.ns_per_step
                  << " above baseline " << base_ns
                  << " (ignored: AIAC_BENCH_STRICT_NS unset)\n";
      }
    }
  }
  return regressions;
}

// ---- Sharded waveform sweep ---------------------------------------------

/// Times forced full sweeps of a whole-domain WaveformBlock at the given
/// chunk count, with a worker pool attached when the machine has room
/// (workers = min(chunks - 1, hardware_concurrency - 1) — the engines'
/// oversubscription cap; on a single-core host the pool degenerates to
/// inline chunked execution, which is exactly what the engines run
/// there). The block is converged first, so each forced sweep performs
/// the same chord-Newton re-solve of every step — a stable, repeatable
/// workload with zero steady-state allocations.
struct SweepBenchStats {
  double seconds = 0.0;
  std::uint64_t allocations = 0;
  std::size_t workers = 0;
};

SweepBenchStats run_waveform_sweeps(const KernelProblem& prob,
                                    std::size_t chunks, std::size_t iters) {
  ode::WaveformBlockConfig config;
  config.first = 0;
  config.count = prob.system.dimension();
  config.num_steps = prob.num_steps;
  config.t_end = 1.0;
  config.intra_chunks = chunks;
  ode::WaveformBlock block(prob.system, config);
  SweepBenchStats stats;
  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  stats.workers = std::min(chunks > 0 ? chunks - 1 : 0, hw - 1);
  std::unique_ptr<runtime::WorkerPool> pool;
  if (stats.workers > 0) {
    pool = std::make_unique<runtime::WorkerPool>(stats.workers);
    block.set_worker_pool(pool.get());
  }
  while (block.iterate().residual > 1e-12) {
  }
  // One warm forced sweep sizes every chunk's staging buffers; the timed
  // loop after it is allocation-free.
  block.force_full_sweep();
  block.iterate();
  double sink = 0.0;
  const std::uint64_t a0 = allocs();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    block.force_full_sweep();
    sink += block.iterate().work;
  }
  stats.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  stats.allocations = allocs() - a0;
  if (sink < 0.0) std::cerr << "";  // keep `sink` observable
  return stats;
}

// ---- Pentadiagonal LU ----------------------------------------------------

/// Fills a kl = ku = 2 matrix (the Brusselator Newton shape) with a
/// diagonally dominant band.
void fill_penta(linalg::BandedMatrix& m) {
  const std::size_t rows = m.size();
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t c_lo = r >= 2 ? r - 2 : 0;
    const std::size_t c_hi = std::min(rows - 1, r + 2);
    for (std::size_t c = c_lo; c <= c_hi; ++c)
      m.ref(r, c) = r == c ? 4.0 + 0.01 * static_cast<double>(r) : -0.4;
  }
}

/// Times in-place factor+solve of one n x n pentadiagonal system `reps`
/// times. Each rep restores the band and right-hand side from pristine
/// copies (a copy is a small fraction of the LU), so every rep factors
/// the same matrix. Reports ns per row of factor+solve and allocations
/// per rep.
struct LuBenchStats {
  double ns_per_row = 0.0;
  double allocs_per_rep = 0.0;
};

LuBenchStats run_penta_lu(std::size_t n, std::size_t reps) {
  linalg::BandedMatrix pristine(n, 2, 2);
  fill_penta(pristine);
  std::vector<double> rhs0(n);
  for (std::size_t i = 0; i < n; ++i)
    rhs0[i] = 1.0 + 0.001 * static_cast<double>(i);
  linalg::BandedMatrix lu = pristine;
  std::vector<double> rhs = rhs0;
  const auto band0 = pristine.band_data();
  const auto band = lu.band_data();
  double sink = 0.0;
  const std::uint64_t a0 = allocs();
  const auto t0 = Clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    std::copy(band0.begin(), band0.end(), band.begin());
    std::copy(rhs0.begin(), rhs0.end(), rhs.begin());
    linalg::banded_lu_factor_in_place(lu);
    linalg::banded_lu_solve_in_place(lu, rhs);
    sink += rhs[n / 2];
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  LuBenchStats stats;
  stats.ns_per_row = secs * 1e9 / (static_cast<double>(reps) *
                                   static_cast<double>(n));
  stats.allocs_per_rep =
      static_cast<double>(allocs() - a0) / static_cast<double>(reps);
  if (sink < 0.0) std::cerr << "";  // keep `sink` observable
  return stats;
}

// ---- End-to-end: a small fig5-style run ---------------------------------

double end_to_end_seconds(bool quick, std::size_t intra_threads) {
  ode::Brusselator::Params p;
  p.grid_points = quick ? 48 : 96;
  const ode::Brusselator system(p);
  core::EngineConfig config;
  config.scheme = core::Scheme::kAIAC;
  config.num_steps = quick ? 20 : 40;
  config.t_end = 10.0;
  config.tolerance = 1e-6;
  config.load_balancing = true;
  config.solve_mode = ode::LocalSolveMode::kBlockNewton;
  config.balancer.trigger_period = 2;
  config.balancer.threshold_ratio = 1.5;
  config.balancer.min_components = 3;
  config.intra_threads = intra_threads;
  grid::HomogeneousClusterParams cluster;
  cluster.processes = 3;
  cluster.multi_user = false;
  auto grid = grid::make_homogeneous_cluster(cluster);
  const auto t0 = Clock::now();
  const auto result = core::run_simulated(system, *grid, config);
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!result.converged)
    std::cerr << "warning: end-to-end run did not converge\n";
  return wall;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Solver hot-path kernel benchmark; writes BENCH_kernels.json");
  cli.describe("quick", "reduced repetitions for the CI smoke stage", "off");
  cli.describe("out", "output JSON path", "BENCH_kernels.json");
  cli.describe("baseline",
               "compare against this baseline JSON; exit 1 on regression",
               "");
  cli.describe("repeats", "outer-sweep repetitions per kernel", "50");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  const bool quick = cli.get_bool("quick");
  const std::size_t repeats = static_cast<std::size_t>(
      cli.get_int("repeats", quick ? 8 : 50));
  const std::string out_path = cli.get_string("out", "BENCH_kernels.json");

  KernelProblem prob;
  std::vector<BenchResult> results;
  const double steps_total =
      static_cast<double>(repeats) * static_cast<double>(prob.num_steps);

  // -- Kernel 1: legacy entry point, fresh matrix + factorization per
  //    Newton iteration and fresh buffers per call (the pre-workspace
  //    behaviour this PR series measures against).
  const auto fresh = run_sweep(
      prob, repeats,
      [](const KernelProblem& kp, std::span<const double> y_prev,
         std::span<double> y_next, std::span<const double> gl,
         std::span<const double> gr, double t_next) {
        ode::NewtonOptions opts;
        opts.tolerance = 1e-10;
        const auto r = ode::block_implicit_euler_step(
            kp.system, kp.first, y_prev, y_next, gl, gr, t_next, kp.dt(),
            opts);
        return r.newton_iterations;
      });
  {
    BenchResult r;
    r.name = "block_newton_fresh";
    r.ns_per_step = fresh.seconds * 1e9 / steps_total;
    r.newton_iterations_per_step =
        static_cast<double>(fresh.newton_iterations) / steps_total;
    r.allocs_per_step = static_cast<double>(fresh.allocations) / steps_total;
    r.speedup_vs_fresh = 1.0;
    results.push_back(r);
  }

  // -- Kernel 2: workspace reuse, full Newton (fresh Jacobian per
  //    iteration, but storage reused across steps and calls).
  {
    ode::NewtonWorkspace ws;
    const auto sweep = run_sweep(
        prob, repeats,
        [&ws](const KernelProblem& kp, std::span<const double> y_prev,
              std::span<double> y_next, std::span<const double> gl,
              std::span<const double> gr, double t_next) {
          ode::NewtonOptions opts;
          opts.tolerance = 1e-10;
          const auto r = ode::block_implicit_euler_step(
              kp.system, kp.first, y_prev, y_next, gl, gr, t_next, kp.dt(),
              opts, ws);
          return r.newton_iterations;
        });
    BenchResult r;
    r.name = "block_newton_workspace";
    r.ns_per_step = sweep.seconds * 1e9 / steps_total;
    r.newton_iterations_per_step =
        static_cast<double>(sweep.newton_iterations) / steps_total;
    r.allocs_per_step = static_cast<double>(sweep.allocations) / steps_total;
    r.speedup_vs_fresh = fresh.seconds / sweep.seconds;
    results.push_back(r);
    const double drift = max_abs_diff(sweep.final_state, fresh.final_state);
    if (drift > 1e-9) {
      std::cerr << "bench_kernels: workspace kernel diverged from fresh by "
                << drift << "\n";
      return 1;
    }
  }

  // -- Kernel 3: chord Newton — the factorized Jacobian is reused across
  //    Newton iterations and time steps until the convergence-rate refresh
  //    policy triggers.
  {
    ode::NewtonWorkspace ws;
    const auto sweep = run_sweep(
        prob, repeats,
        [&ws](const KernelProblem& kp, std::span<const double> y_prev,
              std::span<double> y_next, std::span<const double> gl,
              std::span<const double> gr, double t_next) {
          ode::NewtonOptions opts;
          opts.tolerance = 1e-10;
          opts.jacobian_reuse = ode::JacobianReuse::kChordAcrossSteps;
          const auto r = ode::block_implicit_euler_step(
              kp.system, kp.first, y_prev, y_next, gl, gr, t_next, kp.dt(),
              opts, ws);
          return r.newton_iterations;
        });
    BenchResult r;
    r.name = "block_newton_chord";
    r.ns_per_step = sweep.seconds * 1e9 / steps_total;
    r.newton_iterations_per_step =
        static_cast<double>(sweep.newton_iterations) / steps_total;
    r.allocs_per_step = static_cast<double>(sweep.allocations) / steps_total;
    r.speedup_vs_fresh = fresh.seconds / sweep.seconds;
    results.push_back(r);
    const double drift = max_abs_diff(sweep.final_state, fresh.final_state);
    if (drift > 1e-8) {
      std::cerr << "bench_kernels: chord kernel diverged from fresh by "
                << drift << "\n";
      return 1;
    }
  }

  // -- Waveform steady state: a fully converged block's outer iteration
  //    (the fast path) plus a boundary exchange cycle; the steady-state
  //    allocation count the zero-alloc test pins to 0 is measured here.
  {
    ode::WaveformBlockConfig config;
    config.first = 0;
    config.count = prob.system.dimension();
    config.num_steps = prob.num_steps;
    config.t_end = 1.0;
    ode::WaveformBlock block(prob.system, config);
    while (block.iterate().residual > 1e-12) {
    }
    const std::size_t iters = quick ? 200 : 2000;
    const std::uint64_t a0 = allocs();
    const auto t0 = Clock::now();
    double sink = 0.0;
    for (std::size_t i = 0; i < iters; ++i) sink += block.iterate().work;
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const std::uint64_t da = allocs() - a0;
    BenchResult r;
    r.name = "waveform_steady_iterate";
    r.ns_per_step = secs * 1e9 / static_cast<double>(iters);
    r.allocs_per_step =
        static_cast<double>(da) / static_cast<double>(iters);
    results.push_back(r);
    if (sink < 0.0) std::cerr << "";  // keep `sink` observable
  }

  // -- Scalar-Jacobi sweep: paper Algorithm 1's `Solve`, the kernel of
  //    the fig5 benches. Scalar mode has no skip path, so every iterate
  //    re-solves all row-steps of the processor's share; timing starts
  //    after three iterates (buffers sized, past the cold start) and runs
  //    a fixed sequence of iterates, so the Newton work behind the number
  //    is the same on every run. Reported per row-step.
  {
    ode::WaveformBlockConfig config;
    config.first = prob.first;
    config.count = prob.nb;
    config.num_steps = prob.num_steps;
    config.t_end = prob.t_end;
    config.mode = ode::LocalSolveMode::kScalarJacobi;
    ode::WaveformBlock block(prob.system, config);
    for (int warm = 0; warm < 3; ++warm) block.iterate();
    const std::size_t iters = quick ? 20 : 200;
    std::uint64_t newton = 0;
    const std::uint64_t a0 = allocs();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i)
      newton += block.iterate().newton_iterations;
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const std::uint64_t da = allocs() - a0;
    const double row_steps = static_cast<double>(iters) *
                             static_cast<double>(prob.nb) *
                             static_cast<double>(prob.num_steps);
    BenchResult r;
    r.name = "scalar_jacobi_full_sweep";
    r.ns_per_step = secs * 1e9 / row_steps;
    r.newton_iterations_per_step = static_cast<double>(newton) / row_steps;
    r.allocs_per_step = static_cast<double>(da) / row_steps;
    results.push_back(r);
  }

  // -- Sharded sweep: the intra-processor parallel iterate. A forced
  //    full sweep re-solves every time step, which is the workload the
  //    chunk sharding parallelizes; the serial chunk-1 run is the
  //    reference the par benches' speedup_vs_fresh is measured against.
  //    On a multi-core host the par4 speedup is the headline number; on
  //    a single-core host the oversubscription cap leaves the pool empty
  //    and the ratio honestly reports chunked-inline ~= serial.
  {
    const std::size_t iters = quick ? 30 : 200;
    const auto serial = run_waveform_sweeps(prob, 1, iters);
    {
      BenchResult r;
      r.name = "waveform_full_sweep";
      r.ns_per_step = serial.seconds * 1e9 / static_cast<double>(iters);
      r.allocs_per_step =
          static_cast<double>(serial.allocations) / static_cast<double>(iters);
      results.push_back(r);
    }
    for (const std::size_t chunks : {std::size_t{2}, std::size_t{4}}) {
      const auto par = run_waveform_sweeps(prob, chunks, iters);
      BenchResult r;
      r.name = "waveform_steady_iterate_par" + std::to_string(chunks);
      r.ns_per_step = par.seconds * 1e9 / static_cast<double>(iters);
      r.allocs_per_step =
          static_cast<double>(par.allocations) / static_cast<double>(iters);
      r.speedup_vs_fresh = serial.seconds / par.seconds;
      r.cores = std::max<std::size_t>(1, std::thread::hardware_concurrency());
      results.push_back(r);
      std::cout << "(waveform par" << chunks << ": " << par.workers
                << " pool worker(s) on this host)\n";
    }
  }

  // -- Chunked LU: the fixed-bandwidth banded factor+solve (the
  //    Brusselator Jacobian shape, kl = ku = 2) on one full-size system
  //    vs the same rows as four independent chunk-size systems — the
  //    linear-algebra cost model behind the sharded iterate (LU on a
  //    band is linear in n, so chunking is near-free).
  {
    const std::size_t n = 2 * prob.nb;
    constexpr std::size_t kChunks = 4;
    const std::size_t reps = quick ? 2000 : 20000;
    linalg::BandedMatrix full(n, 2, 2);
    std::vector<linalg::BandedMatrix> parts(kChunks,
                                            linalg::BandedMatrix(n / kChunks,
                                                                 2, 2));
    std::vector<double> rhs(n);
    const auto fill_rhs = [&rhs] {
      for (std::size_t i = 0; i < rhs.size(); ++i)
        rhs[i] = 1.0 + 0.001 * static_cast<double>(i);
    };
    const auto t_full0 = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      fill_penta(full);
      fill_rhs();
      linalg::banded_lu_factor_in_place(full);
      linalg::banded_lu_solve_in_place(full, rhs);
    }
    const double full_secs =
        std::chrono::duration<double>(Clock::now() - t_full0).count();
    const std::uint64_t a0 = allocs();
    const auto t_chunk0 = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      fill_rhs();
      for (std::size_t c = 0; c < kChunks; ++c) {
        fill_penta(parts[c]);
        linalg::banded_lu_factor_in_place(parts[c]);
        linalg::banded_lu_solve_in_place(
            parts[c], std::span<double>(rhs).subspan(c * (n / kChunks),
                                                     n / kChunks));
      }
    }
    const double chunk_secs =
        std::chrono::duration<double>(Clock::now() - t_chunk0).count();
    const std::uint64_t da = allocs() - a0;
    BenchResult r;
    r.name = "banded_lu_chunked";
    r.ns_per_step = chunk_secs * 1e9 / static_cast<double>(reps);
    r.allocs_per_step =
        static_cast<double>(da) / static_cast<double>(reps);
    r.speedup_vs_fresh = full_secs / chunk_secs;
    results.push_back(r);
  }

  // -- Pentadiagonal factor+solve at the two block sizes the benchmark
  //    workloads hand the block Newton: n = 4 (a 2-point sim-grid16
  //    block) and n = 100 (a 50-point thread/net intra chunk). Reported
  //    per row (ns_per_step is ns per row here).
  for (const std::size_t n : {std::size_t{4}, std::size_t{100}}) {
    const std::size_t rows = quick ? 200000 : 4000000;
    const auto lu = run_penta_lu(n, rows / n);
    BenchResult r;
    r.name = "banded_lu_penta_n" + std::to_string(n);
    r.ns_per_step = lu.ns_per_row;
    r.allocs_per_step = lu.allocs_per_rep;
    results.push_back(r);
  }

  // -- Boundary exchange: two adjacent blocks trading ghost trajectories,
  //    the per-iteration send path of the threaded engine.
  {
    const std::size_t half = prob.system.dimension() / 2;
    ode::WaveformBlockConfig lc, rc;
    lc.first = 0;
    lc.count = half;
    lc.num_steps = prob.num_steps;
    lc.t_end = 1.0;
    rc = lc;
    rc.first = half;
    rc.count = prob.system.dimension() - half;
    ode::WaveformBlock left(prob.system, lc);
    ode::WaveformBlock right(prob.system, rc);
    const std::size_t cycles = quick ? 2000 : 20000;
    // Fill-into variants over recycled messages: the warm-up fill sizes
    // the rows once, the timed loop then runs allocation-free.
    ode::BoundaryMessage to_right, to_left;
    left.boundary_for_right(to_right);
    right.boundary_for_left(to_left);
    const std::uint64_t a0 = allocs();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < cycles; ++i) {
      left.boundary_for_right(to_right);
      right.boundary_for_left(to_left);
      right.accept_left_ghosts(to_right);
      left.accept_right_ghosts(to_left);
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const std::uint64_t da = allocs() - a0;
    BenchResult r;
    r.name = "boundary_exchange";
    r.ns_per_step = secs * 1e9 / static_cast<double>(cycles);
    r.allocs_per_step =
        static_cast<double>(da) / static_cast<double>(cycles);
    results.push_back(r);
  }

  const double e2e = end_to_end_seconds(quick, 1);
  const double e2e_intra4 = end_to_end_seconds(quick, 4);

  std::cout << std::left;
  std::cout << "kernel                          ns/step   newton/step  "
               "allocs/step  speedup\n";
  for (const auto& r : results) {
    std::cout << std::setw(30) << r.name << "  " << std::setw(9)
              << static_cast<std::uint64_t>(r.ns_per_step) << std::setw(13)
              << r.newton_iterations_per_step << std::setw(13)
              << r.allocs_per_step << r.speedup_vs_fresh << "\n";
  }
  std::cout << "end-to-end fig5-style sim run: " << e2e << " s\n";
  std::cout << "end-to-end fig5-style sim run (intra-threads=4): "
            << e2e_intra4 << " s\n";

  write_json(out_path, quick, results, e2e, e2e_intra4);
  std::cout << "(json written to " << out_path << ")\n";

  const std::string baseline = cli.get_string("baseline");
  if (!baseline.empty()) {
    const int regressions = compare_against_baseline(baseline, results);
    if (regressions > 0) {
      std::cerr << "bench_kernels: " << regressions
                << " regression(s) vs " << baseline << "\n";
      return 1;
    }
    std::cout << "baseline check vs " << baseline << ": ok\n";
  }
  return 0;
}
