// End-to-end benchmark of the AIAC + load-balancing solver on its three
// backends: the virtual-time simulator (core::run_simulated), real threads
// (core::run_threaded) and forked ranks over TCP loopback (net::run_net).
//
// A workload solves the Brusselator for a sequence of instances generated
// from --seed (grid seeds for the simulator, skewed processor speeds for
// the real backends), in blocks of 20: at least five, then while another
// block fits in --seconds. Every solve is timed from outside and checked
// against the sequential implicit-Euler reference. The last line of stdout
// is one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// A traced run alternates plain and instrumented solves of the same
// instances (so their ratio is the instrumentation overhead) and then
// probes each layer's public functions on the workload's shapes.
// README.md documents every metric.
//
//   aiac_bench --workload sim-fig5 --seed 1 --seconds 20 --trace 0
//   aiac_bench --smoke      every workload at a tiny size, plus the probes
//   aiac_bench --self-test  the checker must reject corrupted solutions
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/sim_engine.hpp"
#include "core/thread_engine.hpp"
#include "des/simulator.hpp"
#include "grid/grid.hpp"
#include "linalg/banded_matrix.hpp"
#include "net/net_engine.hpp"
#include "net/socket_transport.hpp"
#include "net/wire.hpp"
#include "ode/brusselator.hpp"
#include "ode/integrators.hpp"
#include "ode/waveform_block.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/worker_pool.hpp"
#include "trace/execution_trace.hpp"
#include "util/rng.hpp"

// ---- Counters shared with forked ranks --------------------------------
// The socket backend forks its ranks without exec, so counters living in
// a MAP_SHARED page keep counting inside the children and the parent
// reads the fleet-wide totals after run_net returns. Lock-free atomics are
// address-free, which is what makes them valid across processes.
namespace {

struct SharedCounters {
  std::atomic<std::uint64_t> allocations{0};
  std::atomic<std::uint64_t> rhs_rows{0};
  std::atomic<std::uint64_t> jac_rows{0};
  std::atomic<bool> count_allocations{false};
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);

SharedCounters* g_counters = nullptr;

SharedCounters* map_shared_counters() {
  void* page = ::mmap(nullptr, sizeof(SharedCounters), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (page == MAP_FAILED) throw std::runtime_error("mmap of counters failed");
  return new (page) SharedCounters();
}

}  // namespace

// Counting operator new: on only around instrumented solves.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (g_counters != nullptr &&
      g_counters->count_allocations.load(std::memory_order_relaxed))
    g_counters->allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
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

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds (user + system) of this process and of every child it has
/// reaped — run_net waits for its ranks before returning.
double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    ::getrusage(who, &usage);
    const timeval& u = usage.ru_utime;
    const timeval& k = usage.ru_stime;
    total += static_cast<double>(u.tv_sec + k.tv_sec) +
             1e-6 * static_cast<double>(u.tv_usec + k.tv_usec);
  }
  return total;
}

/// Peak resident set in MB: the larger of this process and its largest
/// reaped child. The own peak comes from VmHWM, not RUSAGE_SELF, whose
/// ru_maxrss survives exec and would report the launching process.
double peak_rss_mb() {
  long kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) kb = std::stol(line.substr(6));
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  kb = std::max(kb, children.ru_maxrss);
  return static_cast<double>(kb) / 1024.0;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---- Counting decorator -------------------------------------------------

/// Forwards every OdeSystem entry point to the wrapped system (batched
/// calls stay batched, so the solver's call shape is unchanged) and counts
/// the rows each one evaluates: right-hand-side rows, and Jacobian rows
/// (band rows in block mode, diagonal partials in scalar mode).
class CountingSystem final : public ode::OdeSystem {
 public:
  explicit CountingSystem(const ode::OdeSystem& inner) : inner_(&inner) {}

  std::size_t dimension() const noexcept override {
    return inner_->dimension();
  }
  std::size_t stencil_halfwidth() const noexcept override {
    return inner_->stencil_halfwidth();
  }
  double rhs_component(std::size_t j, double t,
                       std::span<const double> window) const override {
    add_rhs(1);
    return inner_->rhs_component(j, t, window);
  }
  double rhs_partial(std::size_t j, std::size_t k, double t,
                     std::span<const double> window) const override {
    add_jac(1);
    return inner_->rhs_partial(j, k, t, window);
  }
  void jacobian_band_row(std::size_t j, double t,
                         std::span<const double> window,
                         std::span<double> band) const override {
    add_jac(1);
    inner_->jacobian_band_row(j, t, window, band);
  }
  void rhs_range(std::size_t first, std::size_t count, double t,
                 std::span<const double> y_ext,
                 std::span<double> out) const override {
    add_rhs(count);
    inner_->rhs_range(first, count, t, y_ext, out);
  }
  void jacobian_band_range(std::size_t first, std::size_t count, double t,
                           std::span<const double> y_ext,
                           std::span<double> band_rows) const override {
    add_jac(count);
    inner_->jacobian_band_range(first, count, t, y_ext, band_rows);
  }
  void initial_state(std::span<double> y) const override {
    inner_->initial_state(y);
  }
  void rhs_full(double t, std::span<const double> y,
                std::span<double> dydt) const override {
    add_rhs(y.size());
    inner_->rhs_full(t, y, dydt);
  }

 private:
  static void add_rhs(std::size_t n) {
    g_counters->rhs_rows.fetch_add(n, std::memory_order_relaxed);
  }
  static void add_jac(std::size_t n) {
    g_counters->jac_rows.fetch_add(n, std::memory_order_relaxed);
  }
  const ode::OdeSystem* inner_;
};

// ---- Workloads ----------------------------------------------------------

enum class Backend { kSim, kThread, kNet };

struct Workload {
  std::string_view name;
  Backend backend;
  std::size_t grid_points;  // Brusselator N; the state dimension is 2N
  std::size_t ranks;        // logical processors
  std::size_t intra;        // row chunks per rank (EngineConfig::intra_threads)
  ode::LocalSolveMode mode;
  bool grid_model;  // sim: 3-site heterogeneous grid instead of a cluster
};

// Why each workload exists is in README.md. At most 4 threads or ranks
// compute at once in any of them.
constexpr Workload kWorkloads[] = {
    {"sim-fig5", Backend::kSim, 32, 4, 1, ode::LocalSolveMode::kScalarJacobi,
     false},
    {"sim-grid16", Backend::kSim, 32, 16, 1, ode::LocalSolveMode::kBlockNewton,
     true},
    {"thread-p2x2", Backend::kThread, 200, 2, 2,
     ode::LocalSolveMode::kBlockNewton, false},
    {"net-p4", Backend::kNet, 200, 4, 1, ode::LocalSolveMode::kBlockNewton,
     false},
};

constexpr std::size_t kNumSteps = 40;
constexpr double kTEnd = 10.0;
constexpr double kTolerance = 1e-6;
constexpr double kMaxError = 1e-4;  // vs the sequential reference
constexpr std::size_t kBlock = 20;  // instances per unit of measured work
// At least 100 timed solves, so at least 10 lie beyond the 90th percentile.
constexpr std::size_t kMinBlocks = 5;
constexpr std::size_t kWarmups = 3;
constexpr std::size_t kSetupRepeats = 3;

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

core::EngineConfig engine_config(const Workload& w) {
  core::EngineConfig config;
  config.scheme = core::Scheme::kAIAC;
  config.num_steps = kNumSteps;
  config.t_end = kTEnd;
  config.tolerance = kTolerance;
  config.solve_mode = w.mode;
  config.intra_threads = w.intra;
  config.load_balancing = true;
  // The paper-reproduction balancer tuning (reacting every other
  // iteration with moderate transfers), fixed here so the workload does
  // not drift with the paper benches' defaults.
  config.balancer.threshold_ratio = 1.5;
  config.balancer.trigger_period = 2;
  config.balancer.migration_fraction = 1.0;
  config.balancer.max_fraction_per_migration = 0.5;
  config.balancer.min_components = 3;
  if (w.backend != Backend::kSim) {
    // Real backends: distributed detection, and a speed-weighted initial
    // split from skewed speeds the cores do not have, so the balancer has
    // real imbalance to correct.
    config.detection = core::DetectionMode::kCoordinator;
    config.initial_partition = core::InitialPartition::kSpeedWeighted;
  }
  return config;
}

/// One generated input. The program receives only these values.
struct Instance {
  std::uint64_t grid_seed = 0;
  std::vector<double> speeds;  // real backends: relative speeds in [0.5, 2]
};

/// Instance `index` of the sequence `seed` generates; the same pair always
/// yields the same instance.
Instance make_instance(const Workload& w, std::uint64_t seed,
                       std::size_t index) {
  util::Rng rng =
      util::Rng(seed).split(w.name).split(static_cast<std::uint64_t>(index));
  Instance inst;
  inst.grid_seed = rng.next();
  if (w.backend != Backend::kSim) {
    inst.speeds.resize(w.ranks);
    for (double& s : inst.speeds) s = std::exp2(rng.uniform(-1.0, 1.0));
  }
  return inst;
}

std::unique_ptr<grid::Grid> make_grid(const Workload& w,
                                      const Instance& inst) {
  grid::OnOffAvailability::Params load;
  if (w.grid_model) {
    // Table 1: heterogeneous speeds plus competing jobs that outlive a run.
    grid::HeterogeneousGridParams params;
    params.machines = w.ranks;
    params.sites = 3;
    params.speed_spread = 3.5;
    params.multi_user = true;
    load.loaded_fraction = 0.25;
    load.mean_busy_period = 5000.0;
    load.mean_idle_period = 5000.0;
    params.load = load;
    params.irregular_mapping = true;
    params.seed = inst.grid_seed;
    return grid::make_heterogeneous_grid(params);
  }
  // Fig. 5 cluster with transient load: other users come and go dozens of
  // times per solve (one lasts ~1700 virtual s), so the balancer chases a
  // moving imbalance. Load that outlived the solve would leave only 2^4
  // loaded/unloaded patterns and a handful of distinct solve times.
  grid::HomogeneousClusterParams params;
  params.processes = w.ranks;
  params.multi_user = true;
  load.loaded_fraction = 0.15;
  load.mean_busy_period = 30.0;
  load.mean_idle_period = 60.0;
  params.load = load;
  params.seed = inst.grid_seed;
  return grid::make_homogeneous_cluster(params);
}

// ---- One solve ----------------------------------------------------------

struct Solve {
  core::EngineResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string failure;  // empty when the solve passed every check
};

/// Why a result is wrong, or empty when it is right: it must converge
/// without a failure reason, conserve every component, and match the
/// sequential reference within kMaxError.
std::string check_result(const core::EngineResult& r,
                         const ode::Trajectory& reference) {
  if (!r.failure_reason.empty()) return "failed: " + r.failure_reason;
  if (!r.converged) return "did not converge";
  std::size_t owned = 0;
  for (const std::size_t c : r.final_components) owned += c;
  if (owned != reference.components())
    return "owns " + std::to_string(owned) + " of " +
           std::to_string(reference.components()) + " components";
  if (r.solution.components() != reference.components() ||
      r.solution.num_steps() != reference.num_steps())
    return "solution has the wrong shape";
  const double error = r.solution.max_abs_diff(reference);
  if (!(error <= kMaxError))  // also rejects NaN
    return "error " + std::to_string(error) + " above " +
           std::to_string(kMaxError);
  return {};
}

Solve run_solve(const Workload& w, const Instance& inst,
                const ode::OdeSystem& system, const ode::Trajectory& reference,
                trace::ExecutionTrace* trace) {
  core::EngineConfig config = engine_config(w);
  config.processor_speeds = inst.speeds;
  std::unique_ptr<grid::Grid> grid;
  if (w.backend == Backend::kSim) grid = make_grid(w, inst);
  Solve s;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  try {
    switch (w.backend) {
      case Backend::kSim:
        s.result = core::run_simulated(system, *grid, config, trace);
        break;
      case Backend::kThread:
        s.result = core::run_threaded(system, w.ranks, config, trace);
        break;
      case Backend::kNet: {
        net::NetConfig net;
        net.deadline_seconds = 60.0;  // a wedged fleet fails, never hangs
        s.result = net::run_net(system, w.ranks, config, net, trace);
        break;
      }
    }
  } catch (const std::exception& e) {
    s.failure = std::string("exception: ") + e.what();
  }
  s.wall_s = seconds_since(t0);
  s.cpu_s = cpu_seconds() - cpu0;
  if (s.failure.empty()) s.failure = check_result(s.result, reference);
  return s;
}

// ---- Set-up -------------------------------------------------------------

struct Sizes {
  std::size_t grid_points = 0;
  std::size_t warmups = kWarmups;
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void add(const Solve& s, std::string_view what) {
    ++attempted;
    if (!s.failure.empty()) {
      ++failed;
      std::cerr << what << " solve failed: " << s.failure << "\n";
    }
  }
};

struct Problem {
  std::unique_ptr<ode::Brusselator> system;
  ode::Trajectory reference;
};

/// Builds the problem and its reference solution, then runs the untimed
/// warm-up solves. Their inputs do not depend on --seed, so set-up time
/// compares across seeds.
Problem set_up(const Workload& w, const Sizes& sizes, Tally& tally) {
  Problem p;
  ode::Brusselator::Params params;
  params.grid_points = sizes.grid_points;
  params.time_end = kTEnd;
  p.system = std::make_unique<ode::Brusselator>(params);
  ode::IntegrationOptions opts;
  opts.t_end = kTEnd;
  opts.num_steps = kNumSteps;
  opts.newton.tolerance = 1e-12;
  p.reference = ode::implicit_euler_integrate(*p.system, opts).trajectory;
  for (std::size_t i = 0; i < sizes.warmups; ++i)
    tally.add(run_solve(w, make_instance(w, /*seed=*/0, i), *p.system,
                        p.reference, nullptr),
              "warm-up");
  return p;
}

// ---- Metrics output -----------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(const std::vector<Metric>& metrics, const Tally& tally,
                  bool correct) {
  for (const Metric& m : metrics)
    std::cout << std::left << std::setw(28) << m.name << " "
              << std::setw(24) << number(m.value) << " " << m.unit << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i > 0 ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
}

// ---- Untraced run: the end-to-end metrics -------------------------------

/// Calls `block(b)` for b = 0, 1, ...: at least `min_blocks` times, then
/// while one more block still fits in `seconds`, judged by the duration of
/// the last. Work is measured in whole blocks, so a metric that depends
/// only on the inputs is an exact function of the seed and the blocks run.
template <typename Body>
void run_blocks(double seconds, std::size_t min_blocks, Body&& block) {
  const auto t0 = Clock::now();
  for (std::size_t b = 0;; ++b) {
    const auto tb = Clock::now();
    block(b);
    if (b + 1 >= min_blocks && seconds_since(t0) + seconds_since(tb) > seconds)
      return;
  }
}

void run_untraced(const Workload& w, const Sizes& sizes, std::uint64_t seed,
                  double seconds) {
  Tally tally;
  std::vector<double> setup_times;
  Problem problem;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    const auto t0 = Clock::now();
    problem = set_up(w, sizes, tally);
    setup_times.push_back(seconds_since(t0));
  }
  // Every timed solve is a new instance: the longer the run, the more of
  // the input distribution its medians cover.
  std::vector<double> wall, cpu, converge;
  run_blocks(seconds, kMinBlocks, [&](std::size_t b) {
    for (std::size_t i = b * kBlock; i < (b + 1) * kBlock; ++i) {
      const Solve s = run_solve(w, make_instance(w, seed, i), *problem.system,
                                problem.reference, nullptr);
      tally.add(s, "timed");
      wall.push_back(s.wall_s);
      cpu.push_back(s.cpu_s);
      converge.push_back(s.result.execution_time);
    }
  });
  const std::vector<Metric> metrics = {
      {"solve_s", median(wall), "s"},
      {"solve_s_p90", percentile(wall, 0.9), "s"},
      {"cpu_s", median(cpu), "s"},
      // Over the first kMinBlocks blocks only: on the simulator this is
      // virtual time, an exact function of the seed.
      {"converge_s",
       median(std::vector<double>(
           converge.begin(),
           converge.begin() +
               static_cast<std::ptrdiff_t>(kMinBlocks * kBlock))),
       "s"},
      {"setup_s", median(setup_times), "s"},
      {"rss_mb", peak_rss_mb(), "MB"},
  };
  std::cout << "timed solves: " << wall.size() << "\n";
  print_result(metrics, tally, tally.failed == 0);
}

// ---- Probes of single layers --------------------------------------------

/// Nanoseconds per call of `op()`: the batch size doubles until one batch
/// lasts `batch_s`, then the median of five such batches.
template <typename Op>
double ns_per_call(double batch_s, Op&& op) {
  const auto batch = [&op](std::size_t calls) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) op();
    return seconds_since(t0);
  };
  std::size_t calls = 1;
  while (batch(calls) < batch_s && calls < (std::size_t{1} << 30)) calls *= 2;
  std::vector<double> per_call;
  for (int b = 0; b < 5; ++b)
    per_call.push_back(1e9 * batch(calls) / static_cast<double>(calls));
  return median(per_call);
}

struct ProbeShape {
  std::size_t rows = 0;    // one rank's block: dimension / ranks
  std::size_t first = 0;   // an interior block
  std::size_t chunks = 1;  // the workload's intra-processor chunk count
  std::size_t ranks = 1;
  ode::LocalSolveMode mode = ode::LocalSolveMode::kBlockNewton;
};

struct Probes {
  double des_event_ns = 0.0;
  double rhs_ns_per_row = 0.0;
  double jac_ns_per_row = 0.0;
  double sweep_ns_per_row_step = 0.0;
  double steady_iterate_ns = 0.0;
  double lu_ns_per_row = 0.0;
  double pool_dispatch_ns = 0.0;
  double pool_speedup = 0.0;
  double mailbox_ns = 0.0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double rtt_us = 0.0;
  std::string failure;  // a probe whose output was wrong
};

/// A block of the workload's shape, iterated to its fixed point against
/// constant ghosts, so further iterates hit the steady-state paths.
std::unique_ptr<ode::WaveformBlock> converged_block(
    const ode::OdeSystem& system, const ProbeShape& shape,
    std::size_t chunks) {
  ode::WaveformBlockConfig config;
  config.first = shape.first;
  config.count = shape.rows;
  config.num_steps = kNumSteps;
  config.t_end = kTEnd;
  config.mode = shape.mode;
  config.receive_filter = kTolerance * 0.01;
  config.intra_chunks = chunks;
  auto block = std::make_unique<ode::WaveformBlock>(system, config);
  for (int i = 0; i < 20000 && block->iterate().residual > 1e-12; ++i) {
  }
  return block;
}

/// Discrete-event kernel: each fired event schedules its successor, so the
/// queue holds `depth` events throughout (one per simulated rank).
struct Reschedule {
  des::Simulator* sim;
  std::uint64_t* fired;
  void operator()() const {
    ++*fired;
    sim->schedule_after(1e-3 * static_cast<double>(*fired % 7 + 1), *this);
  }
};

double probe_des(std::size_t depth, double batch_s) {
  des::Simulator sim;
  std::uint64_t fired = 0;
  for (std::size_t p = 0; p < depth; ++p)
    sim.schedule_after(1e-3 * static_cast<double>(p + 1),
                       Reschedule{&sim, &fired});
  return ns_per_call(batch_s, [&sim] { sim.step(); });
}

void probe_kernel_rows(const ode::OdeSystem& system, const ProbeShape& shape,
                       double batch_s, Probes& out) {
  const std::size_t s = system.stencil_halfwidth();
  std::vector<double> y0(system.dimension());
  system.initial_state(y0);
  volatile double sink = 0.0;
  // ns per row of `eval()`, which evaluates `rows` rows per call.
  const auto ns_per_row = [&](std::size_t rows, const auto& eval) {
    return ns_per_call(batch_s, [&] { sink = sink + eval(); }) /
           static_cast<double>(rows);
  };
  if (shape.mode == ode::LocalSolveMode::kBlockNewton) {
    // Batched evaluation over one chunk, as the block Newton kernel calls it.
    const std::size_t rows =
        std::max<std::size_t>(1, shape.rows / shape.chunks);
    const auto at = [&y0](std::size_t i) {
      return y0.begin() + static_cast<std::ptrdiff_t>(i);
    };
    const std::vector<double> y_ext(at(shape.first - s),
                                    at(shape.first + rows + s));
    std::vector<double> values(rows);
    std::vector<double> band(rows * system.window_size());
    out.rhs_ns_per_row = ns_per_row(rows, [&] {
      system.rhs_range(shape.first, rows, 1.0, y_ext, values);
      return values[0];
    });
    out.jac_ns_per_row = ns_per_row(rows, [&] {
      system.jacobian_band_range(shape.first, rows, 1.0, y_ext, band);
      return band[s];
    });
  } else {
    // Scalar Newton: one component's value and diagonal partial per call.
    const std::size_t j = shape.first + s;
    const std::span<const double> window(y0.data() + j - s,
                                         system.window_size());
    out.rhs_ns_per_row =
        ns_per_row(1, [&] { return system.rhs_component(j, 1.0, window); });
    out.jac_ns_per_row =
        ns_per_row(1, [&] { return system.rhs_partial(j, j, 1.0, window); });
  }
}

void probe_waveform(const ode::OdeSystem& system, const ProbeShape& shape,
                    double batch_s, Probes& out) {
  auto block = converged_block(system, shape, shape.chunks);
  double work = 0.0;
  out.sweep_ns_per_row_step =
      ns_per_call(batch_s,
                  [&] {
                    block->force_full_sweep();
                    work += block->iterate().work;
                  }) /
      static_cast<double>(shape.rows * kNumSteps);
  out.steady_iterate_ns =
      ns_per_call(batch_s, [&] { work += block->iterate().work; });

  // Pool speedup: the same forced sweep at >= 2 chunks, inline vs on a
  // pool with one worker per extra chunk.
  const std::size_t chunks = std::max<std::size_t>(2, shape.chunks);
  auto par = converged_block(system, shape, chunks);
  const auto sweep = [&] {
    par->force_full_sweep();
    work += par->iterate().work;
  };
  const double inline_ns = ns_per_call(batch_s, sweep);
  runtime::WorkerPool pool(chunks - 1);
  par->set_worker_pool(&pool);
  out.pool_speedup = ratio(inline_ns, ns_per_call(batch_s, sweep));
  par->set_worker_pool(nullptr);
  if (!std::isfinite(work) || work < 0.0)
    out.failure = "waveform probe produced a bad iterate";

  std::vector<std::size_t> hits(chunks, 0);
  out.pool_dispatch_ns = ns_per_call(batch_s, [&] {
    pool.run_tasks(chunks, [&hits](std::size_t t) { ++hits[t]; });
  });
  for (const std::size_t h : hits)
    if (h != hits[0]) out.failure = "worker pool skipped a task";

  // Codec: the block's real boundary rows through the scatter-gather
  // encoder and back through the decoder, round trip checked.
  ode::BoundaryMessage msg;
  block->boundary_for_right(msg);
  msg.sender_iteration = 7;
  msg.sender_components = shape.rows;
  net::FrameHeaderArray header{};
  std::vector<std::uint8_t> payload;
  out.encode_ns = ns_per_call(batch_s, [&] {
    payload.clear();
    net::encode_boundary_sg(msg, header, payload);
  });
  ode::BoundaryMessage decoded;
  bool decoded_ok = true;
  out.decode_ns = ns_per_call(
      batch_s, [&] { decoded_ok &= net::decode_boundary(payload, decoded); });
  if (!decoded_ok || decoded.rows != msg.rows ||
      decoded.global_first != msg.global_first ||
      decoded.sender_iteration != msg.sender_iteration)
    out.failure = "boundary frame did not survive the codec round trip";

  // Mailbox: one migration payload of this block's size, pushed and popped.
  const std::size_t values = (shape.rows + 2) * (kNumSteps + 1);
  runtime::Mailbox<ode::MigrationPayload> mailbox;
  ode::MigrationPayload migration;
  migration.rows.assign(values, 1.0);
  out.mailbox_ns = ns_per_call(batch_s, [&] {
    mailbox.push(std::move(migration));
    migration = std::move(*mailbox.try_pop());
  });
  if (migration.rows.size() != values) out.failure = "mailbox lost a payload";
}

void probe_lu(const ProbeShape& shape, double batch_s, Probes& out) {
  // The Brusselator Newton matrix shape (kl = ku = 2) at one chunk's rows,
  // refilled before each in-place factorization.
  const std::size_t n = std::max<std::size_t>(3, shape.rows / shape.chunks);
  linalg::BandedMatrix pristine(n, 2, 2);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r >= 2 ? r - 2 : 0; c <= std::min(n - 1, r + 2); ++c)
      pristine.ref(r, c) = r == c ? 4.0 + 0.01 * static_cast<double>(r) : -0.4;
  linalg::BandedMatrix lu = pristine;
  std::vector<double> rhs(n), ones(n, 1.0);
  out.lu_ns_per_row = ns_per_call(batch_s,
                                  [&] {
                                    std::copy(pristine.band_data().begin(),
                                              pristine.band_data().end(),
                                              lu.band_data().begin());
                                    pristine.multiply(ones, rhs);
                                    linalg::banded_lu_factor_in_place(lu);
                                    linalg::banded_lu_solve_in_place(lu, rhs);
                                  }) /
                      static_cast<double>(n);
  for (const double v : rhs)
    if (!(std::abs(v - 1.0) <= 1e-9)) out.failure = "banded LU solved wrong";
}

/// Owns a file descriptor.
class UniqueFd {
 public:
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  int get() const noexcept { return fd_; }

 private:
  int fd_;
};

void send_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w <= 0) throw std::runtime_error("rtt probe: send failed");
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// False on orderly EOF before the first byte.
bool recv_all(int fd, std::uint8_t* data, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, data + got, n - got, 0);
    if (r == 0 && got == 0) return false;
    if (r <= 0) throw std::runtime_error("rtt probe: recv failed");
    got += static_cast<std::size_t>(r);
  }
  return true;
}

/// Round trip of one encoded boundary frame over a TCP loopback
/// connection (the socket backend's link), echoed by a second thread.
double probe_rtt_us(std::size_t frame_bytes, double batch_s) {
  std::uint16_t port = 0;
  const UniqueFd listener(net::make_loopback_listener(port, 1));
  const UniqueFd client(net::connect_loopback(port, net::TransportConfig{}));
  const UniqueFd server(::accept(listener.get(), nullptr, nullptr));
  if (server.get() < 0) throw std::runtime_error("rtt probe: accept failed");
  const int one = 1;
  for (const int fd : {client.get(), server.get()})
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::thread echo([fd = server.get(), frame_bytes] {
    std::vector<std::uint8_t> buf(frame_bytes);
    try {
      while (recv_all(fd, buf.data(), buf.size()))
        send_all(fd, buf.data(), buf.size());
    } catch (const std::exception&) {
      // The client notices through its own recv.
    }
  });
  // On every path: half-close the client, which ends the echo loop, then
  // join — before the descriptors above are closed.
  struct StopEcho {
    std::thread& echo;
    int client;
    ~StopEcho() {
      ::shutdown(client, SHUT_WR);
      echo.join();
    }
  } stop{echo, client.get()};
  std::vector<std::uint8_t> frame(frame_bytes, 0x5a), back(frame_bytes);
  return 1e-3 * ns_per_call(batch_s, [&] {
           send_all(client.get(), frame.data(), frame.size());
           if (!recv_all(client.get(), back.data(), back.size()))
             throw std::runtime_error("rtt probe: echo closed");
         });
}

Probes run_probes(const ode::OdeSystem& system, const ProbeShape& shape,
                  double batch_s) {
  Probes p;
  try {
    p.des_event_ns = probe_des(shape.ranks, batch_s);
    probe_kernel_rows(system, shape, batch_s, p);
    probe_waveform(system, shape, batch_s, p);
    probe_lu(shape, batch_s, p);
    ode::BoundaryMessage frame;
    frame.row_count = system.stencil_halfwidth();
    frame.points = kNumSteps + 1;
    frame.rows.assign(frame.row_count * frame.points, 1.0);
    std::vector<std::uint8_t> wire;
    net::encode_boundary(frame, wire);
    p.rtt_us = probe_rtt_us(wire.size(), batch_s);
  } catch (const std::exception& e) {
    p.failure = std::string("probe exception: ") + e.what();
  }
  return p;
}

ProbeShape probe_shape(const Workload& w, const ode::OdeSystem& system) {
  ProbeShape shape;
  shape.ranks = w.ranks;
  shape.rows = system.dimension() / w.ranks;
  // An interior block, aligned to a (u, v) pair.
  shape.first = (system.dimension() - shape.rows) / 2 / 2 * 2;
  shape.chunks = w.intra;
  shape.mode = w.mode;
  return shape;
}

// ---- Traced run: the per-layer metrics ----------------------------------

/// One plain and one instrumented solve of the same instance.
struct PairSample {
  // Plain solve.
  double plain_wall = 0.0;
  double plain_cpu = 0.0;
  double iterations = 0.0;
  double us_per_iteration = 0.0;
  double migrations = 0.0;
  double moved = 0.0;
  double control = 0.0;
  double data = 0.0;
  double bytes = 0.0;
  // Instrumented solve: its trace and counters.
  double traced_wall = 0.0;
  double busy_frac = 0.0;
  double imbalance = 0.0;
  double detect_lag_frac = 0.0;
  double startup_frac = 0.0;
  double delta_frac = 0.0;
  double suppressed_frac = 0.0;
  double allocs_per_iteration = 0.0;
  double rhs_rows = 0.0;
  double jac_rows = 0.0;
};

/// Spans are in the backend's own clock: virtual seconds on the simulator,
/// seconds since each rank's launch on the socket backend. The thread
/// backend records no iteration spans, so the span-derived values read 0.
void analyse_trace(const trace::ExecutionTrace& trace, PairSample& s) {
  const std::size_t ranks = trace.processor_count();
  const double span = trace.span();
  std::vector<double> busy(ranks, 0.0);
  std::vector<double> first_start(ranks, span);
  // When each rank last iterated above tolerance: the end of its useful
  // work. Balanced load makes these equal; the latest one is what
  // detection waits for.
  std::vector<double> done(ranks, 0.0);
  for (const auto& it : trace.iterations()) {
    if (it.rank >= ranks) continue;
    busy[it.rank] += it.end - it.start;
    first_start[it.rank] = std::min(first_start[it.rank], it.start);
    if (it.residual > kTolerance)
      done[it.rank] = std::max(done[it.rank], it.end);
  }
  double busy_sum = 0.0, start_sum = 0.0, done_sum = 0.0, done_max = 0.0;
  for (std::size_t r = 0; r < ranks; ++r) {
    busy_sum += busy[r];
    start_sum += first_start[r];
    done_sum += done[r];
    done_max = std::max(done_max, done[r]);
  }
  const double n = static_cast<double>(ranks);
  s.busy_frac = ratio(busy_sum, n * span);
  s.imbalance = ratio(done_max - done_sum / n, done_sum / n);
  s.detect_lag_frac = ratio(span - done_max, span);
  s.startup_frac = ratio(start_sum / n, span);
  double sent = 0.0, delta = 0.0, suppressed = 0.0;
  for (const auto& c : trace.comms()) {
    sent += static_cast<double>(c.frames_sent);
    delta += static_cast<double>(c.frames_delta);
    suppressed += static_cast<double>(c.frames_suppressed);
  }
  s.delta_frac = ratio(delta, sent);
  s.suppressed_frac = ratio(suppressed, sent + suppressed);
}

PairSample solve_pair(const Workload& w, const Instance& inst,
                      const Problem& problem, const CountingSystem& counting,
                      Tally& tally) {
  PairSample s;
  const Solve plain =
      run_solve(w, inst, *problem.system, problem.reference, nullptr);
  tally.add(plain, "plain");
  const core::EngineResult& r = plain.result;
  s.plain_wall = plain.wall_s;
  s.plain_cpu = plain.cpu_s;
  s.iterations = static_cast<double>(r.total_iterations);
  s.us_per_iteration = ratio(1e6 * plain.wall_s, s.iterations);
  s.migrations = static_cast<double>(r.migrations);
  s.moved = static_cast<double>(r.components_migrated);
  s.control = static_cast<double>(r.control_messages);
  s.data = static_cast<double>(r.data_messages);
  s.bytes = static_cast<double>(r.bytes_sent);

  trace::ExecutionTrace trace;
  g_counters->allocations.store(0);
  g_counters->rhs_rows.store(0);
  g_counters->jac_rows.store(0);
  g_counters->count_allocations.store(true);
  const Solve traced = run_solve(w, inst, counting, problem.reference, &trace);
  g_counters->count_allocations.store(false);
  tally.add(traced, "traced");
  s.traced_wall = traced.wall_s;
  analyse_trace(trace, s);
  s.allocs_per_iteration =
      ratio(static_cast<double>(g_counters->allocations.load()),
            static_cast<double>(traced.result.total_iterations));
  s.rhs_rows = static_cast<double>(g_counters->rhs_rows.load());
  s.jac_rows = static_cast<double>(g_counters->jac_rows.load());
  return s;
}

void run_traced(const Workload& w, const Sizes& sizes, std::uint64_t seed,
                double seconds, double probe_batch_s) {
  Tally tally;
  const Problem problem = set_up(w, sizes, tally);
  const CountingSystem counting(*problem.system);
  // The first block of instances, over and over: on the simulator every
  // count then repeats exactly whatever the number of rounds.
  std::vector<PairSample> samples;
  run_blocks(seconds, 1, [&](std::size_t) {
    for (std::size_t i = 0; i < kBlock; ++i)
      samples.push_back(
          solve_pair(w, make_instance(w, seed, i), problem, counting, tally));
  });
  const Probes probes = run_probes(
      *problem.system, probe_shape(w, *problem.system), probe_batch_s);
  if (!probes.failure.empty()) std::cerr << probes.failure << "\n";

  const auto med = [&samples](double PairSample::*field) {
    std::vector<double> v;
    for (const PairSample& s : samples) v.push_back(s.*field);
    return median(v);
  };
  const double rhs_rows = med(&PairSample::rhs_rows);
  const double jac_rows = med(&PairSample::jac_rows);
  // Each assembled Jacobian is factored once and solved once (fresh
  // Newton); the scalar kernel never touches the banded LU.
  const double lu_rows =
      w.mode == ode::LocalSolveMode::kBlockNewton ? jac_rows : 0.0;
  const double ode_self_s =
      1e-9 * (rhs_rows * probes.rhs_ns_per_row +
              jac_rows * probes.jac_ns_per_row +
              lu_rows * probes.lu_ns_per_row);
  const std::vector<Metric> metrics = {
      {"core.iterations", med(&PairSample::iterations), "count"},
      {"core.us_per_iteration", med(&PairSample::us_per_iteration), "us"},
      {"core.busy_frac", med(&PairSample::busy_frac), "ratio"},
      {"core.allocs_per_iteration", med(&PairSample::allocs_per_iteration),
       "count"},
      {"core.engine_self_s", med(&PairSample::plain_cpu) - ode_self_s, "s"},
      {"core.startup_frac", med(&PairSample::startup_frac), "ratio"},
      {"des.event_ns", probes.des_event_ns, "ns"},
      {"ode.rhs_rows", rhs_rows, "count"},
      {"ode.jac_rows", jac_rows, "count"},
      {"ode.rhs_ns_per_row", probes.rhs_ns_per_row, "ns"},
      {"ode.jac_ns_per_row", probes.jac_ns_per_row, "ns"},
      {"ode.self_s", ode_self_s, "s"},
      {"ode.sweep_ns_per_row_step", probes.sweep_ns_per_row_step, "ns"},
      {"ode.steady_iterate_ns", probes.steady_iterate_ns, "ns"},
      {"linalg.lu_rows", lu_rows, "count"},
      {"linalg.lu_ns_per_row", probes.lu_ns_per_row, "ns"},
      {"runtime.pool_dispatch_ns", probes.pool_dispatch_ns, "ns"},
      {"runtime.pool_speedup", probes.pool_speedup, "ratio"},
      {"runtime.mailbox_ns", probes.mailbox_ns, "ns"},
      {"lb.migrations", med(&PairSample::migrations), "count"},
      {"lb.components_moved", med(&PairSample::moved), "count"},
      {"lb.imbalance", med(&PairSample::imbalance), "ratio"},
      {"algo.control_msgs", med(&PairSample::control), "count"},
      {"algo.detect_lag_frac", med(&PairSample::detect_lag_frac), "ratio"},
      {"comms.data_msgs", med(&PairSample::data), "count"},
      {"comms.bytes", med(&PairSample::bytes), "bytes"},
      {"comms.delta_frac", med(&PairSample::delta_frac), "ratio"},
      {"comms.suppressed_frac", med(&PairSample::suppressed_frac), "ratio"},
      {"net.encode_ns", probes.encode_ns, "ns"},
      {"net.decode_ns", probes.decode_ns, "ns"},
      {"net.rtt_us", probes.rtt_us, "us"},
      {"trace.overhead",
       ratio(med(&PairSample::traced_wall), med(&PairSample::plain_wall)) -
           1.0,
       "ratio"},
  };
  std::cout << "solve pairs: " << samples.size() << " (plain + traced)\n";
  print_result(metrics, tally, tally.failed == 0 && probes.failure.empty());
}

// ---- Smoke test and checker self-test -----------------------------------

/// Every workload with two solves at N = 24, plus the probes. Exits
/// non-zero when any solve or probe is wrong.
int run_smoke() {
  int failures = 0;
  for (const Workload& w : kWorkloads) {
    Sizes sizes;
    sizes.grid_points = 24;
    sizes.warmups = 0;
    Tally tally;
    const Problem problem = set_up(w, sizes, tally);
    const CountingSystem counting(*problem.system);
    trace::ExecutionTrace trace;
    tally.add(run_solve(w, make_instance(w, 1, 0), *problem.system,
                        problem.reference, nullptr),
              "smoke");
    tally.add(run_solve(w, make_instance(w, 1, 1), counting,
                        problem.reference, &trace),
              "smoke traced");
    const Probes probes = run_probes(
        *problem.system, probe_shape(w, *problem.system), 1e-3);
    // The thread backend records comms but no iteration spans.
    const std::size_t records =
        trace.iterations().size() + trace.comms().size();
    const bool ok =
        tally.failed == 0 && probes.failure.empty() && records > 0;
    std::cout << w.name << ": " << tally.attempted - tally.failed << "/"
              << tally.attempted << " solves ok, " << records
              << " trace records"
              << (probes.failure.empty() ? "" : ", " + probes.failure)
              << "\n";
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

/// Feeds corrupted copies of a good solve through the checker; every one
/// must be rejected (fail_frac = 1) while the original passes.
int run_self_test() {
  const Workload& w = kWorkloads[0];
  Sizes sizes;
  sizes.grid_points = 16;
  sizes.warmups = 0;
  Tally tally;
  const Problem problem = set_up(w, sizes, tally);
  const Solve good = run_solve(w, make_instance(w, 1, 0), *problem.system,
                               problem.reference, nullptr);
  if (!good.failure.empty()) {
    std::cout << "self-test: the reference solve failed: " << good.failure
              << "\n";
    return 1;
  }
  std::vector<core::EngineResult> bad(4, good.result);
  bad[0].solution.at(3, kNumSteps / 2) += 10.0 * kMaxError;
  bad[1].converged = false;
  bad[2].failure_reason = "injected";
  bad[3].final_components.back() += 1;
  std::size_t rejected = 0;
  for (const core::EngineResult& r : bad)
    if (!check_result(r, problem.reference).empty()) ++rejected;
  const double fail_frac =
      static_cast<double>(rejected) / static_cast<double>(bad.size());
  std::cout << "self-test: fail_frac = " << fail_frac << " over " << bad.size()
            << " corrupted solves\n";
  return fail_frac == 1.0 ? 0 : 1;
}

// ---- Command line -------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  bool smoke = false;
  bool self_test = false;
};

void usage(std::ostream& out) {
  out << "usage: aiac_bench --workload <name> [--seed N] [--seconds S] "
         "[--trace 0|1]\n"
         "       aiac_bench --smoke | --self-test\n"
         "workloads:";
  for (const Workload& w : kWorkloads) out << " " << w.name;
  out << "\n";
}

/// Accepts "--key value" and "--key=value". Throws on anything else.
Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::optional<std::string> value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    }
    if (key == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (key == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (key != "--workload" && key != "--seed" && key != "--seconds" &&
        key != "--trace")
      throw std::invalid_argument("unknown option " + key);
    if (!value) {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for " + key);
      value = argv[++i];
    }
    if (key == "--workload") {
      args.workload = *value;
    } else if (key == "--seed") {
      args.seed = std::stoull(*value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(*value);
    } else {
      args.trace = std::stoi(*value);
      if (args.trace != 0 && args.trace != 1)
        throw std::invalid_argument("--trace takes 0 or 1");
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "aiac_bench: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }
  try {
    g_counters = map_shared_counters();
    if (args.self_test) return run_self_test();
    if (args.smoke) return run_smoke();
    const Workload* w = find_workload(args.workload);
    if (w == nullptr) {
      std::cerr << "aiac_bench: unknown workload '" << args.workload << "'\n";
      usage(std::cerr);
      return 2;
    }
    std::cout << "workload " << w->name << " seed " << args.seed << " nproc "
              << std::thread::hardware_concurrency() << " trace " << args.trace
              << "\n";
    Sizes sizes;
    sizes.grid_points = w->grid_points;
    if (args.trace == 1)
      run_traced(*w, sizes, args.seed, args.seconds, 0.01);
    else
      run_untraced(*w, sizes, args.seed, args.seconds);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "aiac_bench: " << e.what() << "\n";
    return 1;
  }
}
