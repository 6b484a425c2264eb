#include "core/thread_engine.hpp"

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "algo/detection.hpp"
#include "algo/link_meter.hpp"
#include "algo/processor_core.hpp"
#include "algo/runtime_ifaces.hpp"
#include "algo/trace_sink.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/ordered_mutex.hpp"
#include "runtime/notifier.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/worker_pool.hpp"
#include "trace/execution_trace.hpp"
#include "util/log.hpp"

namespace aiac::core {

namespace {

using Clock = std::chrono::steady_clock;
using algo::Side;

/// Per-processor runtime plumbing. All algorithm state lives in the
/// shared algo::ProcessorCore (serialized by block_mutex); this struct
/// only holds the channels, the notifier, lock-free mirrors of core state
/// for cross-thread reads, and the chaos plan.
struct ThreadProc {
  /// Algorithm 7: "if not accessing data array". Rank 2 + p in the
  /// engine's lock order (see runtime/ordered_mutex.hpp), so the two
  /// all-block multi-locks are ascending by machine-checked construction.
  runtime::OrderedMutex block_mutex;
  runtime::Notifier notifier;
  runtime::SlotBox<ode::BoundaryMessage> from_left{&notifier};
  runtime::SlotBox<ode::BoundaryMessage> from_right{&notifier};
  runtime::Mailbox<ode::MigrationPayload> lb_from_left{&notifier};
  runtime::Mailbox<ode::MigrationPayload> lb_from_right{&notifier};
  /// Convergence-detection deliveries (Transport::send_control): frames
  /// drained and handled in this thread's own context, under the engine's
  /// detection mutex.
  runtime::Mailbox<algo::ControlFrame> control{&notifier};

  // Mirrors of core state, published by the owner after each iteration so
  // the leader's oracle precheck and the detection protocol can read them
  // without taking block_mutex.
  std::atomic<std::size_t> iteration{0};
  std::atomic<double> residual{std::numeric_limits<double>::infinity()};
  std::atomic<bool> locally_converged{false};

  // Chaos layer (null when disabled): compute stalls + LB-trigger skew.
  runtime::FaultPlan* fault_plan = nullptr;
};

/// The threaded driver: real threads over the shared algorithm objects.
/// Implements Transport by pushing into the neighbor's channels, the
/// ClockModel by measuring wall time, and the DetectionDriver over the
/// atomic mirrors.
class ThreadEngine final : public algo::Transport,
                           public algo::ClockModel,
                           public algo::DetectionDriver {
 public:
  ThreadEngine(const ode::OdeSystem& system, std::size_t processors,
               const EngineConfig& config, trace::ExecutionTrace* trace)
      : config_(config),
        nprocs_(processors),
        dimension_(system.dimension()),
        links_(processors, delta_config(config)),
        trace_(trace) {
    if (processors == 0)
      throw std::invalid_argument("run_threaded: zero processors");

    // Threads share identical cores, so empty speeds mean uniform (the
    // speed-weighted split then degenerates to the even one); a non-empty
    // vector models a deliberately skewed deployment.
    fleet_ = std::make_unique<algo::CoreFleet>(
        system, fleet_config(config, processors));

    // Intra-processor parallelism: each processor thread gets its own
    // pool (a core's iterate runs under its block mutex, so pools are
    // never shared and pool workers take no engine locks), capped at the
    // hardware share left per processor thread.
    if (const std::size_t workers = intra_pool_workers(config, processors);
        workers > 0) {
      intra_pools_.reserve(processors);
      for (std::size_t p = 0; p < processors; ++p) {
        intra_pools_.push_back(std::make_unique<runtime::WorkerPool>(workers));
        fleet_->core(p).set_worker_pool(intra_pools_.back().get());
      }
    }

    procs_ = std::vector<ThreadProc>(processors);
    // Lock-order ranks: detection mutex below every block mutex (a
    // detection frame may broadcast the halt, which takes all block
    // locks), block mutexes ascending by processor.
    detection_mutex_.set_rank(1);
    for (std::size_t p = 0; p < processors; ++p)
      procs_[p].block_mutex.set_rank(static_cast<unsigned>(2 + p));
    lb_link_busy_ =
        std::make_unique<std::atomic<bool>[]>(processors > 1 ? processors - 1
                                                             : 1);
    for (std::size_t i = 0; i + 1 < processors; ++i) lb_link_busy_[i] = false;
    protocol_ = std::make_unique<algo::DetectionProtocol>(
        config.detection, processors, *this, *this);

    if (config.faults.enabled) {
      injector_ =
          std::make_unique<runtime::FaultInjector>(config.faults, processors);
      if (config.scheme != Scheme::kAIAC) {
        // SISC/SIAC block until the neighbor's iteration-k data arrived;
        // replaying a stale boundary slot would erase the only copy of
        // that data and livelock both ends of the link (the synchronous
        // schemes assume reliable FIFO delivery — see DESIGN.md).
        injector_->disable_stale_replay();
      }
      using Dir = runtime::FaultInjector::Direction;
      for (std::size_t p = 0; p < processors; ++p) {
        procs_[p].fault_plan = injector_->compute_plan(p);
        // A box's hook runs in the pushing thread, so each box gets the
        // plan of the directed channel feeding it.
        if (p > 0) {
          procs_[p].from_left.set_fault_hook(
              injector_->boundary_plan(p - 1, Dir::kToRight));
          procs_[p].lb_from_left.set_fault_hook(
              injector_->lb_plan(p - 1, Dir::kToRight));
        }
        if (p + 1 < processors) {
          procs_[p].from_right.set_fault_hook(
              injector_->boundary_plan(p + 1, Dir::kToLeft));
          procs_[p].lb_from_right.set_fault_hook(
              injector_->lb_plan(p + 1, Dir::kToLeft));
        }
      }
    }
  }

  EngineResult run() {
    t0_ = Clock::now();
    {
      runtime::ThreadTeam team;
      team.spawn(nprocs_, [this](std::size_t rank) { worker(rank); });
      team.join();
    }
    const auto t1 = Clock::now();
    return assemble_result(std::chrono::duration<double>(t1 - t0_).count());
  }

  // ---- algo::ClockModel ---------------------------------------------

  double now() const override {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  /// Measuring driver: durations are observed, never predicted.
  double work_to_seconds(std::size_t, double, double, double) override {
    return -1.0;
  }

  // ---- algo::Transport ----------------------------------------------

  /// Owner-thread only (worker's own emit after its iteration), so the
  /// sender's link meter needs no synchronization.
  void send_boundary(std::size_t src, Side toward,
                     ode::BoundaryMessage msg) override {
    // Charge the size a delta-capable wire would carry (DESIGN.md §14);
    // the delivered message below stays full-precision regardless.
    links_.toward(src, toward).charge(msg);
    // "Latest data wins": an unread message this put displaces would be
    // destroyed here on the per-iteration path — recycle its rows instead.
    std::optional<ode::BoundaryMessage> displaced =
        toward == Side::kLeft
            ? procs_[src - 1].from_right.put(std::move(msg))
            : procs_[src + 1].from_left.put(std::move(msg));
    if (displaced) pool_.release(std::move(displaced->rows));
  }

  void send_migration(std::size_t src, Side toward,
                      ode::MigrationPayload payload) override {
    AIAC_DEBUG("thread-lb") << "proc " << src << " sends "
                            << payload.owned_count << " components "
                            << (toward == Side::kLeft ? "left" : "right");
    if (toward == Side::kLeft)
      procs_[src - 1].lb_from_right.push(std::move(payload));
    else
      procs_[src + 1].lb_from_left.push(std::move(payload));
  }

  /// Always entered with detection_mutex_ held (every protocol entry point
  /// runs under it), which also guards the control counters.
  void send_control(std::size_t, std::size_t dst,
                    const algo::ControlFrame& frame) override {
    ++control_messages_;
    control_bytes_ += kControlMessageBytes;
    procs_[dst].control.push(frame);
  }

  // ---- algo::DetectionDriver ----------------------------------------

  bool locally_converged(std::size_t rank) const override {
    return procs_[rank].locally_converged.load();
  }

  /// Coordinator verification, aligned with the other two backends: a
  /// node whose migration mailbox is non-empty (or whose adjacent links
  /// carry an in-flight payload) may not confirm — its convergence
  /// mirror predates work it is already committed to absorbing. All
  /// reads are lock-free mirrors; the block lock is never taken here.
  bool confirm_converged(std::size_t rank) const override {
    const ThreadProc& proc = procs_[rank];
    if (!proc.locally_converged.load()) return false;
    if (!proc.lb_from_left.empty() || !proc.lb_from_right.empty())
      return false;
    if (rank > 0 && lb_link_busy_[rank - 1].load()) return false;
    if (rank + 1 < nprocs_ && lb_link_busy_[rank].load()) return false;
    return true;
  }

  /// Coordinator halt (under detection_mutex_, caller holds no
  /// block lock). The protocol guaranteed persistent local convergence,
  /// not interface consistency; record what actually held over a
  /// quiescent view, then bring every thread down.
  void broadcast_halt() override {
    std::vector<std::unique_lock<runtime::OrderedMutex>> locks;
    locks.reserve(nprocs_);
    for (auto& proc : procs_) locks.emplace_back(proc.block_mutex);
    const algo::OracleSnapshot snap = algo::measured_audit(*fleet_);
    detection_gap_ = snap.max_gap;
    detection_max_residual_ = snap.max_residual;
    // The halt fan-out is one control message per processor, as on the
    // simulated backend.
    control_messages_ += nprocs_;
    control_bytes_ += nprocs_ * kControlMessageBytes;
    halt_.store(true, std::memory_order_release);
    locks.clear();
    wake_all();
  }

 private:
  void worker(std::size_t p) {
    ThreadProc& proc = procs_[p];
    algo::ProcessorCore& core = fleet_->core(p);
    while (!halt_.load(std::memory_order_acquire)) {
      if (proc.fault_plan) {
        // Transient slow-node stall, served at the iteration boundary
        // where a real machine would lose the core to a competing job.
        const auto stall = proc.fault_plan->compute_stall();
        if (stall.count() > 0) std::this_thread::sleep_for(stall);
      }
      drain_control(p);
      if (halt_.load(std::memory_order_acquire)) break;

      ode::WaveformBlock::IterationStats stats;
      std::optional<ode::BoundaryMessage> out_left;
      std::optional<ode::BoundaryMessage> out_right;
      std::size_t iteration = 0;
      double residual = 0.0;
      bool converged = false;
      {
        std::lock_guard<runtime::OrderedMutex> lock(proc.block_mutex);
        while (auto payload = proc.lb_from_left.try_pop())
          core.enqueue_migration(Side::kLeft, std::move(*payload));
        while (auto payload = proc.lb_from_right.try_pop())
          core.enqueue_migration(Side::kRight, std::move(*payload));
        // The core copies boundary data into its persistent inbox, so the
        // message's rows go straight back to the pool.
        if (auto msg = proc.from_left.take()) {
          core.ingest_boundary(Side::kLeft, *msg);
          pool_.release(std::move(msg->rows));
        }
        if (auto msg = proc.from_right.take()) {
          core.ingest_boundary(Side::kRight, *msg);
          pool_.release(std::move(msg->rows));
        }
        const auto begin = core.begin_iteration();
        // The link stays busy until the receiver absorbs the payload,
        // which serializes migrations per link.
        if (begin.absorbed_from_left) lb_link_busy_[p - 1].store(false);
        if (begin.absorbed_from_right) lb_link_busy_[p].store(false);
        const double start = now();
        stats = core.run_iteration();
        core.finish_iteration(stats, start, *this);
        // Outgoing messages are packed into pool-recycled row buffers
        // (fill_boundary resizes within the recycled capacity), so the
        // steady-state send path allocates nothing.
        if (core.has_neighbor(Side::kLeft)) {
          out_left.emplace();
          out_left->rows = pool_.acquire();
          core.fill_boundary(Side::kLeft, *out_left);
        }
        if (core.has_neighbor(Side::kRight)) {
          out_right.emplace();
          out_right->rows = pool_.acquire();
          core.fill_boundary(Side::kRight, *out_right);
        }
        iteration = core.iteration();
        residual = core.last_residual();
        converged = core.locally_converged();
      }
      proc.iteration.store(iteration);
      proc.residual.store(residual);
      proc.locally_converged.store(converged);

      // Channel pushes (and their fault hooks, which may sleep) happen
      // outside the block lock so a stalled delivery never blocks the
      // leader's quiescent probe.
      if (out_left) send_boundary(p, Side::kLeft, std::move(*out_left));
      if (out_right) send_boundary(p, Side::kRight, std::move(*out_right));
      if (config_.load_balancing) try_load_balance(p, proc, core);

      if (config_.detection == DetectionMode::kOracle) {
        if (p == 0) leader_oracle();
      } else {
        std::lock_guard<runtime::OrderedMutex> lock(detection_mutex_);
        protocol_->on_iteration_end(p);
      }

      if (iteration >= config_.max_iterations_per_processor) {
        failed_.store(true);
        halt_.store(true, std::memory_order_release);
        wake_all();
        break;
      }

      if (config_.scheme == Scheme::kAIAC)
        idle_if_quiescent(proc, stats);
      else
        wait_for_neighbor_data(p, proc, core);
    }
  }

  /// Handles queued detection frames in processor `p`'s thread. Must be
  /// called without holding the caller's block lock: a frame may complete
  /// the halt decision, which takes every block lock.
  void drain_control(std::size_t p) {
    while (auto frame = procs_[p].control.try_pop()) {
      std::lock_guard<runtime::OrderedMutex> lock(detection_mutex_);
      protocol_->handle_control(p, *frame);
    }
  }

  void try_load_balance(std::size_t p, ThreadProc& proc,
                        algo::ProcessorCore& core) {
    std::optional<ode::MigrationPayload> payload;
    Side side = Side::kLeft;
    {
      std::lock_guard<runtime::OrderedMutex> lock(proc.block_mutex);
      if (!core.lb_trigger_due()) return;
      if (proc.fault_plan) {
        // Trigger skew: postpone an elapsed OkToTryLB countdown by a few
        // iterations. Neighbors fall out of phase, so decisions act on
        // piggybacked load estimates that lag reality by more iterations —
        // exactly the staleness the balancer must tolerate.
        const std::size_t skew = proc.fault_plan->lb_trigger_skew();
        if (skew > 0) {
          core.defer_lb(skew);
          return;
        }
      }
      const bool left_busy = p > 0 && lb_link_busy_[p - 1].load();
      const bool right_busy = p + 1 < nprocs_ && lb_link_busy_[p].load();
      const auto decision = core.plan_migration(left_busy, right_busy);
      if (decision.action == lb::BalanceDecision::Action::kNone) return;
      const bool to_left =
          decision.action == lb::BalanceDecision::Action::kSendLeft;
      side = to_left ? Side::kLeft : Side::kRight;
      const std::size_t link = to_left ? p - 1 : p;
      // Claim the link first so two neighbors cannot start crossing
      // migrations; compare-exchange makes the claim atomic.
      bool expected = false;
      if (!lb_link_busy_[link].compare_exchange_strong(expected, true)) return;
      // Pool-acquired rows: extract_migration_into resizes within the
      // recycled capacity. The receive side is not recycled (payloads are
      // queued whole and absorbed later — a cold path).
      payload.emplace();
      payload->rows = pool_.acquire();
      if (!core.extract_migration_into(side, decision.amount, *payload)) {
        lb_link_busy_[link].store(false);
        pool_.release(std::move(payload->rows));
        return;
      }
    }
    send_migration(p, side, std::move(*payload));
  }

  /// Rank 0 drives oracle detection: a lock-free precheck on the mirrors,
  /// then the shared global probe over a quiescent view (every block lock
  /// held, ascending rank order — one of only two multi-locks in the
  /// program, both ascending, so no deadlock is possible).
  void leader_oracle() {
    for (const auto& proc : procs_)
      if (!proc.locally_converged.load()) return;
    for (std::size_t i = 0; i + 1 < nprocs_; ++i)
      if (lb_link_busy_[i].load()) return;
    for (const auto& proc : procs_)
      if (!proc.lb_from_left.empty() || !proc.lb_from_right.empty()) return;
    std::vector<std::unique_lock<runtime::OrderedMutex>> locks;
    locks.reserve(nprocs_);
    for (auto& proc : procs_) locks.emplace_back(proc.block_mutex);
    // Re-check the links under the locks: a payload extracted after the
    // precheck keeps its link busy until the receiver absorbs it, which
    // needs the receiver's block lock — held here.
    bool lb_in_flight = false;
    for (std::size_t i = 0; i + 1 < nprocs_; ++i)
      lb_in_flight = lb_in_flight || lb_link_busy_[i].load();
    const algo::OracleSnapshot snap =
        algo::oracle_probe(*fleet_, lb_in_flight, config_.tolerance);
    if (!snap.converged) return;
    // Audit trail for the no-early-detection invariant: record exactly
    // what the probe verified at the instant it decided to halt.
    detection_gap_ = snap.max_gap;
    detection_max_residual_ = snap.max_residual;
    halt_.store(true, std::memory_order_release);
    locks.clear();
    wake_all();
  }

  void idle_if_quiescent(ThreadProc& proc,
                         const ode::WaveformBlock::IterationStats& stats) {
    const bool no_progress =
        stats.residual == 0.0 && stats.newton_iterations == 0;
    if (!no_progress) return;
    // Sleep until a message arrives or the bounded timeout fires.
    //
    // Drain-then-sleep audit (see tests/test_runtime_stress.cpp for the
    // regression hammer): this check-empty-then-wait sequence cannot lose
    // a wakeup because the predicate is re-evaluated under the Notifier's
    // mutex and every push commits its value *before* notifying — a push
    // landing between the drain and the wait is either seen by the
    // predicate or wakes the wait. Rank 0 also runs the convergence
    // detection, so its wait stays bounded (it must keep polling global
    // state its own notifier is never poked for); an unbounded spin here
    // used to starve the workers on a single-core host.
    proc.notifier.wait_for(std::chrono::milliseconds(2), [&] {
      return halt_.load() || proc.from_left.has_value() ||
             proc.from_right.has_value() || !proc.lb_from_left.empty() ||
             !proc.lb_from_right.empty() || !proc.control.empty();
    });
  }

  void wait_for_neighbor_data(std::size_t p, ThreadProc& proc,
                              algo::ProcessorCore& core) {
    // SISC/SIAC readiness: both neighbors' data updated at (or after) our
    // just-completed iteration must have been incorporated before the next
    // one starts (paper §1.2).
    const std::size_t needed = core.iteration();
    const auto ready = [&] {
      const bool left_ok =
          p == 0 || core.data_iteration(Side::kLeft) >= needed;
      const bool right_ok =
          p + 1 == nprocs_ || core.data_iteration(Side::kRight) >= needed;
      return left_ok && right_ok;
    };
    while (!halt_.load() && !ready()) {
      proc.notifier.wait_for(std::chrono::milliseconds(100), [&] {
        return halt_.load() || proc.from_left.has_value() ||
               proc.from_right.has_value() || !proc.control.empty();
      });
      drain_control(p);
      std::lock_guard<runtime::OrderedMutex> lock(proc.block_mutex);
      if (auto msg = proc.from_left.take()) {
        core.ingest_boundary(Side::kLeft, *msg);
        pool_.release(std::move(msg->rows));
      }
      if (auto msg = proc.from_right.take()) {
        core.ingest_boundary(Side::kRight, *msg);
        pool_.release(std::move(msg->rows));
      }
    }
  }

  EngineResult assemble_result(double wall_seconds) {
    // Queue any payload still sitting in a mailbox so the solution covers
    // every component (can only happen on a failure stop).
    for (std::size_t p = 0; p < nprocs_; ++p) {
      algo::ProcessorCore& core = fleet_->core(p);
      while (auto payload = procs_[p].lb_from_left.try_pop())
        core.enqueue_migration(Side::kLeft, std::move(*payload));
      while (auto payload = procs_[p].lb_from_right.try_pop())
        core.enqueue_migration(Side::kRight, std::move(*payload));
    }
    EngineResult result =
        fleet_result(*fleet_, dimension_, config_.num_steps);
    result.converged = halt_.load() && !failed_.load();
    if (failed_.load())
      result.failure_reason = iteration_budget_reason(config_);
    result.execution_time = wall_seconds;
    if (trace_) links_.record(*trace_);
    result.data_messages = links_.frames_sent();
    result.control_messages = control_messages_;
    result.bytes_sent += links_.bytes_sent() + control_bytes_;
    result.detection_gap = detection_gap_;
    result.detection_max_residual = detection_max_residual_;
    if (injector_) {
      result.faults_injected = injector_->log().total();
      algo::emit_fault_log(trace_, injector_->log());
    }
    return result;
  }

  void wake_all() {
    for (auto& proc : procs_) proc.notifier.notify();
  }

  EngineConfig config_;
  std::size_t nprocs_;
  std::size_t dimension_;
  std::unique_ptr<algo::CoreFleet> fleet_;
  /// Recycles boundary/migration row buffers across all workers; its
  /// internal mutex is a leaf (nothing is acquired while it is held), so
  /// it stays outside the OrderedMutex rank order.
  runtime::BufferPool pool_;
  /// Per-processor intra-iterate worker pools (empty when intra_threads
  /// <= 1 or the hardware share leaves no room for extra threads). Pools
  /// are only dispatched from inside run(), whose threads are joined
  /// before destruction, so teardown order vs. the fleet is immaterial.
  std::vector<std::unique_ptr<runtime::WorkerPool>> intra_pools_;
  std::vector<ThreadProc> procs_;
  /// Per-directed-link byte accounting; each worker charges only its own
  /// outgoing links, and the totals are read after join.
  algo::LinkMeters links_;
  std::unique_ptr<std::atomic<bool>[]> lb_link_busy_;
  std::unique_ptr<algo::DetectionProtocol> protocol_;
  std::unique_ptr<runtime::FaultInjector> injector_;
  trace::ExecutionTrace* trace_ = nullptr;
  Clock::time_point t0_{};
  std::atomic<bool> halt_{false};
  std::atomic<bool> failed_{false};
  /// Serializes every DetectionProtocol call (iteration-end hooks and the
  /// drained control frames) and guards the control counters.
  runtime::OrderedMutex detection_mutex_;
  std::size_t control_messages_ = 0;
  std::size_t control_bytes_ = 0;
  // Written once by whichever thread takes the halt decision (all block
  // locks held), read after join; -1 marks "never converged".
  double detection_gap_ = -1.0;
  double detection_max_residual_ = -1.0;
};

}  // namespace

EngineResult run_threaded(const ode::OdeSystem& system,
                          std::size_t processors, const EngineConfig& config,
                          trace::ExecutionTrace* trace) {
  ThreadEngine engine(system, processors, config, trace);
  return engine.run();
}

}  // namespace aiac::core
