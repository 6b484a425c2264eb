#include "core/sim_engine.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "algo/detection.hpp"
#include "algo/link_meter.hpp"
#include "algo/processor_core.hpp"
#include "algo/runtime_ifaces.hpp"
#include "algo/trace_sink.hpp"
#include "des/simulator.hpp"
#include "trace/execution_trace.hpp"
#include "util/log.hpp"

namespace aiac::core {

namespace {

using algo::Side;

/// Fixed per-iteration work overhead (loop management, residual
/// computation, convergence bookkeeping), in work units.
constexpr double kIterationOverheadWork = 1.0;

/// The discrete-event driver: all algorithm state lives in the shared
/// algo::ProcessorCore / DetectionProtocol; this class only schedules
/// events, models message latency and computation duration on the grid,
/// and keeps the per-processor execution flags (computing / waiting /
/// dormant / halted) the event loop needs.
class SimEngine final : public algo::Transport,
                        public algo::ClockModel,
                        public algo::DetectionDriver {
 public:
  SimEngine(const ode::OdeSystem& system, grid::Grid& grid,
            const EngineConfig& config, trace::ExecutionTrace* trace)
      : system_(system),
        grid_(grid),
        config_(config),
        trace_(trace),
        links_(grid.process_count(), delta_config(config)) {
    const std::size_t nprocs = grid.process_count();
    if (nprocs == 0) throw std::invalid_argument("SimEngine: no processors");

    algo::FleetConfig fc = fleet_config(config, nprocs);
    if (fc.speeds.empty() &&
        config.initial_partition == InitialPartition::kSpeedWeighted) {
      fc.speeds.resize(nprocs);
      for (std::size_t p = 0; p < nprocs; ++p)
        fc.speeds[p] = grid.machine_of(p).peak_speed();
    }
    fleet_ = std::make_unique<algo::CoreFleet>(system, fc);

    procs_.resize(nprocs);
    lb_link_busy_.assign(nprocs > 0 ? nprocs - 1 : 0, false);
    lb_link_inflight_.resize(nprocs > 0 ? nprocs - 1 : 0);
    link_clear_.assign(nprocs > 0 ? nprocs - 1 : 0, {0.0, 0.0});
    protocol_ = std::make_unique<algo::DetectionProtocol>(
        config.detection, nprocs, *this, *this);
    if (trace_) trace_->set_processor_count(nprocs);
  }

  EngineResult run() {
    for (std::size_t p = 0; p < procs_.size(); ++p) try_start(p);
    sim_.run(/*max_events=*/200'000'000ULL);
    stop_all(/*converged=*/false);  // no-op unless the event queue drained
    return assemble_result();
  }

  // ---- algo::ClockModel ---------------------------------------------

  double now() const override { return sim_.now(); }

  double work_to_seconds(std::size_t rank, double work, double start,
                         double resident) override {
    return grid_.compute_duration(rank, work, start, resident);
  }

  // ---- algo::Transport ----------------------------------------------

  /// Called from ProcessorCore::emit_boundaries right after the numerics
  /// ran at virtual time t_start; the staged departure times implement the
  /// scheme's send discipline (SIAC/AIAC dispatch the leftward data early
  /// in the iteration, paper Fig. 2-4; SISC sends everything at the end).
  void send_boundary(std::size_t src, Side toward,
                     ode::BoundaryMessage msg) override {
    const double depart = toward == Side::kLeft ? staged_left_depart_
                                                : staged_right_depart_;
    const std::size_t dst = toward == Side::kLeft ? src - 1 : src + 1;
    sim_.schedule_at(depart, [this, src, dst, msg = std::move(msg), toward] {
      dispatch_boundary(src, dst, msg, /*to_left=*/toward == Side::kLeft);
    });
  }

  void send_migration(std::size_t src, Side toward,
                      ode::MigrationPayload payload) override {
    const bool to_left = toward == Side::kLeft;
    const std::size_t dst = to_left ? src - 1 : src + 1;
    const std::size_t link = to_left ? src - 1 : src;
    const std::size_t amount = payload.owned_count;
    const double now_ = sim_.now();
    const double delay =
        grid_.message_delay(src, dst, payload.byte_size(), now_);
    const double arrival = link_delivery_time(src, dst, now_ + delay);
    algo::emit_message(trace_, src, dst, now_, arrival,
                       payload.byte_size(), trace::MessageKind::kLoadBalance);
    algo::emit_migration(trace_, src, dst, now_, amount);
    AIAC_DEBUG("lb") << "t=" << now_ << " proc " << src << " sends " << amount
                     << " components " << (to_left ? "left" : "right");

    lb_link_inflight_[link] = payload;  // recoverable if we stop mid-flight
    sim_.schedule_at(arrival, [this, dst, link,
                               payload = std::move(payload), to_left] {
      lb_link_inflight_[link].reset();
      if (stopped_) return;
      fleet_->core(dst).enqueue_migration(to_left ? Side::kRight : Side::kLeft,
                                          payload);
      // The link stays busy until the receiver absorbs the payload at its
      // next iteration start, which serializes migrations per link.
      if (procs_[dst].waiting || procs_[dst].dormant) try_start(dst);
    });
  }

  void send_control(std::size_t src, std::size_t dst,
                    const algo::ControlFrame& frame) override {
    const double now_ = sim_.now();
    const double delay =
        src == dst
            ? 0.0
            : grid_.message_delay(src, dst, kControlMessageBytes, now_);
    ++control_messages_;
    control_bytes_ += kControlMessageBytes;
    if (src != dst)
      algo::emit_message(trace_, src, dst, now_, now_ + delay,
                         kControlMessageBytes, trace::MessageKind::kControl);
    sim_.schedule_at(now_ + delay, [this, dst, frame] {
      if (stopped_) return;
      protocol_->handle_control(dst, frame);
    });
  }

  // ---- algo::DetectionDriver ----------------------------------------

  bool locally_converged(std::size_t rank) const override {
    return fleet_->core(rank).locally_converged();
  }

  /// Coordinator verification: the shared core veto alone. A delivery
  /// reaches the core the instant its event fires, so nothing delivered
  /// is hidden from it; messages still in flight stay invisible, as for
  /// a real process, and the verification round-trip is what makes
  /// winning that race unlikely.
  bool confirm_converged(std::size_t rank) const override {
    return fleet_->core(rank).can_confirm();
  }

  void broadcast_halt() override {
    // The protocol guaranteed persistent local convergence, not interface
    // consistency; record what actually held at the halt instant.
    record_detection_audit();
    const double now_ = sim_.now();
    for (std::size_t p = 0; p < procs_.size(); ++p) {
      const double delay =
          p == 0 ? 0.0
                 : grid_.message_delay(0, p, kControlMessageBytes, now_);
      ++control_messages_;
      control_bytes_ += kControlMessageBytes;
      sim_.schedule_at(now_ + delay, [this, p] {
        procs_[p].halted = true;
        if (std::all_of(procs_.begin(), procs_.end(),
                        [](const Proc& q) { return q.halted; }))
          stop_all(/*converged=*/true);
      });
    }
  }

 private:
  /// Driver-side execution state; everything algorithmic is in the core.
  struct Proc {
    bool computing = false;
    bool waiting = false;  // sync schemes: blocked on neighbor data
    bool halted = false;

    // Mutual exclusion on data sends (paper's AIAC variant, Fig. 4).
    bool send_left_busy = false;
    bool send_right_busy = false;
    // A send skipped because the link was busy; retried when it clears
    // (the spinning loop of the real runtime would retry likewise).
    bool send_left_pending = false;
    bool send_right_pending = false;

    /// Event-driven idling: an AIAC processor whose iteration changed
    /// nothing and whose inbox is empty sleeps until the next message
    /// (iterating on unchanged data is a no-op; the paper's runtime spins
    /// through such iterations, with identical observable behaviour).
    bool dormant = false;
  };

  bool ready_to_start(std::size_t p) const {
    if (config_.scheme == Scheme::kAIAC) return true;
    // Sync schemes: need both neighbors' data from our completed-iteration
    // count before starting the next one (iteration 1 needs nothing:
    // initial ghosts are the initial condition).
    const algo::ProcessorCore& core = fleet_->core(p);
    if (core.iteration() == 0) return true;
    if (core.has_neighbor(Side::kLeft) &&
        core.data_iteration(Side::kLeft) < core.iteration())
      return false;
    if (core.has_neighbor(Side::kRight) &&
        core.data_iteration(Side::kRight) < core.iteration())
      return false;
    return true;
  }

  void try_start(std::size_t p) {
    Proc& proc = procs_[p];
    if (proc.computing || proc.halted || stopped_) return;
    proc.dormant = false;
    if (!ready_to_start(p)) {
      proc.waiting = true;
      return;
    }
    proc.waiting = false;
    proc.computing = true;
    sim_.schedule_after(0.0, [this, p] { start_iteration(p); });
  }

  void start_iteration(std::size_t p) {
    Proc& proc = procs_[p];
    if (proc.halted || stopped_) {
      proc.computing = false;
      return;
    }
    const double t_start = sim_.now();
    algo::ProcessorCore& core = fleet_->core(p);

    const auto begin = core.begin_iteration();
    if (begin.absorbed_from_left) lb_link_busy_[p - 1] = false;
    if (begin.absorbed_from_right) lb_link_busy_[p] = false;

    // The real numerics. Conceptually they occupy the virtual interval
    // [t_start, t_start + duration); messages delivered inside that window
    // are only visible to the *next* iteration, which is why the core
    // buffers them in its inbox rather than applying them directly.
    const std::size_t components = core.components();
    const auto stats = core.run_iteration();
    const double work = stats.work + kIterationOverheadWork;
    const double duration =
        work_to_seconds(p, work, t_start, static_cast<double>(components));

    // Stage the scheme's departure times, then let the core hand its
    // freshly stamped boundary data to the transport.
    const bool early = config_.scheme != Scheme::kSISC;
    staged_left_depart_ =
        t_start + (early ? config_.early_send_fraction * duration : duration);
    staged_right_depart_ = t_start + duration;
    core.emit_boundaries(*this);

    sim_.schedule_at(t_start + duration, [this, p, stats, t_start, components] {
      finish_iteration(p, stats, t_start, components);
    });
  }

  /// Per-directed-link FIFO: the grid's data channels are TCP streams, so
  /// a later send never overtakes an earlier one — even when the delay
  /// model says a small frame travels faster than the big one ahead of
  /// it. Without this clamp a boundary update could overtake a migration
  /// (or be overtaken by one), get dropped by the receiver's position
  /// check, and never be resent; a sender that then goes dormant leaves
  /// the fleet to halt on a stale interface no local test can see.
  double link_delivery_time(std::size_t src, std::size_t dst, double eta) {
    double& clear = link_clear_[std::min(src, dst)][src < dst ? 0 : 1];
    const double arrival = std::max(eta, clear);
    clear = arrival;
    return arrival;
  }

  void dispatch_boundary(std::size_t src, std::size_t dst,
                         const ode::BoundaryMessage& msg, bool to_left) {
    if (stopped_) return;
    Proc& sender = procs_[src];
    // AIAC mutual exclusion: skip this send if the previous one on the
    // same link has not completed yet (paper Fig. 4 dashed lines).
    bool& busy = to_left ? sender.send_left_busy : sender.send_right_busy;
    if (config_.scheme == Scheme::kAIAC && busy) {
      // Remember to retry when the link clears, so a processor that goes
      // idle afterwards still propagates its final values.
      (to_left ? sender.send_left_pending : sender.send_right_pending) = true;
      return;
    }
    busy = true;
    const double sent = sim_.now();
    // The delay model stays on the full message size so virtual-time
    // results are comparable across configurations; the counters and the
    // trace charge what the delta-capable wire would have carried, and
    // the receiver always gets the full-precision values.
    const double delay = grid_.message_delay(src, dst, msg.byte_size(), sent);
    const double arrival = link_delivery_time(src, dst, sent + delay);
    const std::size_t wire_bytes =
        links_.toward(src, to_left ? Side::kLeft : Side::kRight).charge(msg);
    algo::emit_message(trace_, src, dst, sent, arrival, wire_bytes,
                       trace::MessageKind::kBoundaryData);
    sim_.schedule_at(arrival, [this, src, dst, msg, to_left] {
      deliver_boundary(src, dst, msg, to_left);
    });
  }

  void deliver_boundary(std::size_t src, std::size_t dst,
                        const ode::BoundaryMessage& msg, bool to_left) {
    Proc& sender = procs_[src];
    (to_left ? sender.send_left_busy : sender.send_right_busy) = false;
    if (stopped_) return;
    bool& pending =
        to_left ? sender.send_left_pending : sender.send_right_pending;
    if (pending) {
      pending = false;
      auto fresh = fleet_->core(src).make_boundary(to_left ? Side::kLeft
                                                           : Side::kRight);
      dispatch_boundary(src, dst, fresh, to_left);
    }
    // src = dst + 1 when to_left: the receiver gets data from its right.
    fleet_->core(dst).ingest_boundary(to_left ? Side::kRight : Side::kLeft,
                                      msg);
    if (procs_[dst].waiting || procs_[dst].dormant) try_start(dst);
  }

  void finish_iteration(std::size_t p,
                        ode::WaveformBlock::IterationStats stats,
                        double t_start, std::size_t components) {
    Proc& proc = procs_[p];
    proc.computing = false;
    if (stopped_) return;
    algo::ProcessorCore& core = fleet_->core(p);
    core.finish_iteration(stats, t_start, *this);
    const double now_ = sim_.now();
    algo::emit_iteration(trace_, p, core.iteration(), t_start, now_,
                         stats.work, stats.residual, components);

    if (core.iteration() >= config_.max_iterations_per_processor ||
        now_ >= config_.max_virtual_time) {
      stop_all(/*converged=*/false);
      return;
    }

    if (config_.load_balancing) try_load_balance(p);

    if (config_.detection == DetectionMode::kOracle) {
      const auto snap =
          algo::oracle_probe(*fleet_, lb_in_flight(), config_.tolerance);
      if (snap.converged) {
        detection_gap_ = snap.max_gap;
        detection_max_residual_ = snap.max_residual;
        stop_all(/*converged=*/true);
        return;
      }
    } else {
      protocol_->on_iteration_end(p);
    }

    // Event-driven idling: nothing changed and nothing new arrived — sleep
    // until the next message instead of spinning through no-op iterations.
    if (config_.scheme == Scheme::kAIAC && config_.event_driven_idle &&
        core.can_park(stats)) {
      proc.dormant = true;
      return;
    }

    try_start(p);
    // A sync-scheme neighbor may have been waiting for this iteration's
    // data; its start is triggered by the delivery events.
  }

  // ---- Load balancing -----------------------------------------------

  void try_load_balance(std::size_t p) {
    algo::ProcessorCore& core = fleet_->core(p);
    if (!core.lb_trigger_due()) return;
    const bool left_busy = p > 0 && lb_link_busy_[p - 1];
    const bool right_busy = p + 1 < procs_.size() && lb_link_busy_[p];
    const auto decision = core.plan_migration(left_busy, right_busy);
    if (decision.action == lb::BalanceDecision::Action::kNone) return;

    const bool to_left =
        decision.action == lb::BalanceDecision::Action::kSendLeft;
    const Side side = to_left ? Side::kLeft : Side::kRight;
    auto payload = core.extract_migration(side, decision.amount);
    if (!payload) return;
    lb_link_busy_[to_left ? p - 1 : p] = true;
    send_migration(p, side, std::move(*payload));
  }

  bool lb_in_flight() const {
    return std::any_of(lb_link_busy_.begin(), lb_link_busy_.end(),
                       [](bool busy) { return busy; });
  }

  // ---- Halting ------------------------------------------------------

  void record_detection_audit() {
    const algo::OracleSnapshot snap = algo::measured_audit(*fleet_);
    detection_gap_ = snap.max_gap;
    detection_max_residual_ = snap.max_residual;
  }

  void stop_all(bool converged) {
    if (stopped_) return;
    stopped_ = true;
    result_converged_ = converged;
    execution_time_ = sim_.now();
    sim_.stop();
  }

  /// Why an unconverged run stopped, read off the final state: a core at
  /// the iteration budget stopped it the moment it got there, otherwise
  /// the virtual-time limit did, otherwise the event queue ran dry.
  std::string stop_reason() const {
    for (std::size_t p = 0; p < procs_.size(); ++p)
      if (fleet_->core(p).iteration() >= config_.max_iterations_per_processor)
        return iteration_budget_reason(config_);
    if (execution_time_ >= config_.max_virtual_time)
      return "virtual-time limit reached (" +
             std::to_string(config_.max_virtual_time) + " s)";
    return "event queue drained without a halt";
  }

  // ---- Result assembly ----------------------------------------------

  EngineResult assemble_result() {
    // Recover migrations caught mid-flight by a stop (fleet_result drains
    // the queues), so the solution covers every component exactly once.
    for (std::size_t link = 0; link < lb_link_inflight_.size(); ++link) {
      if (!lb_link_inflight_[link]) continue;
      auto& payload = *lb_link_inflight_[link];
      if (payload.direction == ode::MigrationPayload::Direction::kToLeft)
        fleet_->core(link).enqueue_migration(Side::kRight,
                                             std::move(payload));
      else
        fleet_->core(link + 1).enqueue_migration(Side::kLeft,
                                                 std::move(payload));
      lb_link_inflight_[link].reset();
    }

    EngineResult result =
        fleet_result(*fleet_, system_.dimension(), config_.num_steps);
    result.converged = result_converged_;
    if (!result.converged) result.failure_reason = stop_reason();
    result.execution_time = execution_time_;
    if (trace_) links_.record(*trace_);
    result.data_messages = links_.frames_sent();
    result.control_messages = control_messages_;
    result.bytes_sent += links_.bytes_sent() + control_bytes_;
    result.detection_gap = detection_gap_;
    result.detection_max_residual = detection_max_residual_;
    return result;
  }

  const ode::OdeSystem& system_;
  grid::Grid& grid_;
  EngineConfig config_;
  trace::ExecutionTrace* trace_;
  des::Simulator sim_;
  std::unique_ptr<algo::CoreFleet> fleet_;
  std::unique_ptr<algo::DetectionProtocol> protocol_;

  std::vector<Proc> procs_;
  /// Wire-equivalent byte accounting (DESIGN.md §14): the counters and the
  /// trace charge what a delta-capable wire would carry, while the delay
  /// model and the delivered values stay on the full message.
  algo::LinkMeters links_;
  std::vector<bool> lb_link_busy_;
  std::vector<std::optional<ode::MigrationPayload>> lb_link_inflight_;
  /// Earliest time each directed neighbor link is free to deliver the
  /// next data frame (see link_delivery_time): [link][0] rightward,
  /// [link][1] leftward.
  std::vector<std::array<double, 2>> link_clear_;
  // Departure times for the boundary messages of the iteration currently
  // being started (set immediately before ProcessorCore::emit_boundaries).
  double staged_left_depart_ = 0.0;
  double staged_right_depart_ = 0.0;

  bool stopped_ = false;
  bool result_converged_ = false;
  double execution_time_ = 0.0;
  double detection_gap_ = -1.0;
  double detection_max_residual_ = -1.0;
  std::size_t control_messages_ = 0;
  std::size_t control_bytes_ = 0;
};

}  // namespace

EngineResult run_simulated(const ode::OdeSystem& system, grid::Grid& grid,
                           const EngineConfig& config,
                           trace::ExecutionTrace* trace) {
  SimEngine engine(system, grid, config, trace);
  return engine.run();
}

}  // namespace aiac::core
