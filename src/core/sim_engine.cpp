#include "core/sim_engine.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "algo/fleet_machine.hpp"
#include "algo/link_meter.hpp"
#include "algo/trace_sink.hpp"
#include "des/simulator.hpp"
#include "trace/execution_trace.hpp"
#include "util/log.hpp"

namespace aiac::core {

namespace {

using algo::Side;
using Kind = algo::FleetAction::Kind;

/// Fixed per-iteration work overhead (loop management, residual
/// computation, convergence bookkeeping), in work units.
constexpr double kIterationOverheadWork = 1.0;

/// The discrete-event driver: a time scheduler over algo::FleetMachine,
/// which holds every rank's state, every channel and the detection
/// instance. This class times each action the machine enables with the
/// grid model (compute durations, message delays, the per-link FIFO
/// clamp), runs them in (time, sequence) order, and keeps the trace, the
/// link byte meters and the run's budget and time stops.
class SimEngine {
 public:
  SimEngine(const ode::OdeSystem& system, grid::Grid& grid,
            const EngineConfig& config, trace::ExecutionTrace* trace)
      : system_(system),
        grid_(grid),
        config_(config),
        trace_(trace),
        machine_(system, sim_fleet_config(grid, config),
                 algo::MachineRules{config.scheme, config.detection,
                                    config.load_balancing,
                                    config.event_driven_idle}),
        links_(grid.process_count(), delta_config(config)),
        link_clear_(grid.process_count() - 1, {0.0, 0.0}) {
    // The machine departs an iteration's boundaries before its finish.
    if (!(config.early_send_fraction >= 0.0 &&
          config.early_send_fraction <= 1.0))
      throw std::invalid_argument("SimEngine: early_send_fraction not in [0, 1]");
    if (trace_) trace_->set_processor_count(grid.process_count());
  }

  EngineResult run() {
    schedule_enabled();  // every rank's first start
    sim_.run(/*max_events=*/200'000'000ULL);
    stop_all(/*converged=*/false);  // no-op unless the event queue drained
    return assemble_result();
  }

 private:
  static algo::FleetConfig sim_fleet_config(grid::Grid& grid,
                                            const EngineConfig& config) {
    const std::size_t nprocs = grid.process_count();
    if (nprocs == 0) throw std::invalid_argument("SimEngine: no processors");
    algo::FleetConfig fc = fleet_config(config, nprocs);
    if (fc.speeds.empty() &&
        config.initial_partition == InitialPartition::kSpeedWeighted) {
      fc.speeds.resize(nprocs);
      for (std::size_t p = 0; p < nprocs; ++p)
        fc.speeds[p] = grid.machine_of(p).peak_speed();
    }
    return fc;
  }

  void on_event(const algo::FleetAction& action) {
    const double now = sim_.now();
    const std::size_t p = action.rank;
    if (action.kind == Kind::kFinish) {
      // The iteration budget and the time limit end the run at this
      // finish: the core completes its iteration, nothing after it runs.
      if (machine_.fleet().core(p).iteration() + 1 >=
              config_.max_iterations_per_processor ||
          now >= config_.max_virtual_time)
        stop_all(/*converged=*/false);
    }
    machine_.apply(action, now);
    const algo::FleetMachine::Rank& rank = machine_.rank(p);
    if (action.kind == Kind::kStart &&
        rank.status == algo::FleetMachine::Status::kComputing) {
      // The real numerics ran; conceptually they occupy the virtual
      // interval [now, now + duration), and the scheme's send discipline
      // stages the departures inside it (SIAC/AIAC dispatch the leftward
      // data early, paper Fig. 2-4; SISC sends everything at the end).
      const double duration = grid_.compute_duration(
          p, rank.stats.work + kIterationOverheadWork, now,
          static_cast<double>(rank.components));
      const bool early = config_.scheme != Scheme::kSISC;
      staged_left_depart_ =
          now + (early ? config_.early_send_fraction * duration : duration);
      staged_finish_ = now + duration;
    } else if (action.kind == Kind::kFinish) {
      algo::emit_iteration(trace_, p, machine_.fleet().core(p).iteration(),
                           rank.started_at, now, rank.stats.work,
                           rank.stats.residual, rank.components);
    }
    if (machine_.halted()) {
      stop_all(/*converged=*/true);
      return;
    }
    schedule_enabled();
  }

  /// Times and queues what the last apply enabled, in the order it
  /// enabled them: that order fixes the network's draw order and the
  /// event sequence numbers.
  void schedule_enabled() {
    for (const algo::FleetAction& action : machine_.newly_enabled())
      sim_.schedule_at(time_of(action), [this, action] { on_event(action); });
  }

  double time_of(const algo::FleetAction& action) {
    const double now = sim_.now();
    switch (action.kind) {
      case Kind::kStart: return now;
      case Kind::kFinish: return staged_finish_;
      case Kind::kArriveLink: return link_arrival(action);
      case Kind::kDepart:
        // The rightward data leaves as the iteration ends.
        return action.side == Side::kLeft ? staged_left_depart_
                                          : staged_finish_;
      case Kind::kArriveControl: {
        const algo::FleetMachine::PendingControl& pc =
            machine_.control(action.slot);
        ++control_messages_;
        if (pc.src == pc.dst) return now;
        const double arrival =
            now + grid_.message_delay(pc.src, pc.dst, kControlMessageBytes,
                                      now);
        algo::emit_message(trace_, pc.src, pc.dst, now, arrival,
                           kControlMessageBytes, trace::MessageKind::kControl);
        return arrival;
      }
      case Kind::kArriveHalt:
        ++control_messages_;
        return action.rank == 0
                   ? now
                   : now + grid_.message_delay(0, action.rank,
                                               kControlMessageBytes, now);
    }
    return now;
  }

  /// The arrival time of the frame just queued at the back of a link.
  double link_arrival(const algo::FleetAction& action) {
    const double now = sim_.now();
    const std::size_t dst = action.rank;
    const Side toward = algo::opposite(action.side);
    const std::size_t src = toward == Side::kLeft ? dst + 1 : dst - 1;
    const algo::FleetMachine::Frame& frame =
        machine_.channel(src, toward).in_flight.back();
    const auto* msg = std::get_if<ode::BoundaryMessage>(&frame);
    const auto* payload = std::get_if<ode::MigrationPayload>(&frame);
    // The delay model stays on the full message size so virtual-time
    // results are comparable across configurations; the counters and the
    // trace charge what the delta-capable wire would have carried, and the
    // receiver always gets the full-precision values.
    const std::size_t bytes = msg ? msg->byte_size() : payload->byte_size();
    const double arrival = link_delivery_time(
        src, dst, now + grid_.message_delay(src, dst, bytes, now));
    if (msg) {
      algo::emit_message(trace_, src, dst, now, arrival,
                         links_.toward(src, toward).charge(*msg),
                         trace::MessageKind::kBoundaryData);
      return arrival;
    }
    algo::emit_message(trace_, src, dst, now, arrival, bytes,
                       trace::MessageKind::kLoadBalance);
    algo::emit_migration(trace_, src, dst, now, payload->owned_count);
    AIAC_DEBUG("lb") << "t=" << now << " proc " << src << " sends "
                     << payload->owned_count << " components "
                     << (toward == Side::kLeft ? "left" : "right");
    return arrival;
  }

  /// Per-directed-link FIFO: the grid's data channels are TCP streams, so
  /// a later send never overtakes an earlier one — even when the delay
  /// model says a small frame travels faster than the big one ahead of
  /// it. The machine's link FIFOs rely on it: without this clamp a
  /// boundary update could overtake a migration (or be overtaken by one),
  /// get dropped by the receiver's position check, and never be resent; a
  /// sender that then goes dormant leaves the fleet to halt on a stale
  /// interface no local test can see.
  double link_delivery_time(std::size_t src, std::size_t dst, double eta) {
    double& clear = link_clear_[std::min(src, dst)][src < dst ? 0 : 1];
    const double arrival = std::max(eta, clear);
    clear = arrival;
    return arrival;
  }

  void stop_all(bool converged) {
    if (machine_.stopped()) return;
    // Stopping hands every migration caught mid-flight to its receiver
    // (fleet_result drains the queues), so the solution covers every
    // component exactly once.
    machine_.stop();
    result_converged_ = converged;
    execution_time_ = sim_.now();
    sim_.stop();
  }

  /// Why an unconverged run stopped, read off the final state: a core at
  /// the iteration budget stopped it the moment it got there, otherwise
  /// the virtual-time limit did, otherwise the event queue ran dry.
  std::string stop_reason() const {
    for (std::size_t p = 0; p < machine_.fleet().size(); ++p)
      if (machine_.fleet().core(p).iteration() >=
          config_.max_iterations_per_processor)
        return iteration_budget_reason(config_);
    if (execution_time_ >= config_.max_virtual_time)
      return "virtual-time limit reached (" +
             std::to_string(config_.max_virtual_time) + " s)";
    return "event queue drained without a halt";
  }

  EngineResult assemble_result() {
    EngineResult result =
        fleet_result(machine_.fleet(), system_.dimension(), config_.num_steps);
    result.converged = result_converged_;
    if (!result.converged) result.failure_reason = stop_reason();
    result.execution_time = execution_time_;
    if (trace_) links_.record(*trace_);
    result.data_messages = links_.frames_sent();
    result.control_messages = control_messages_;
    result.bytes_sent +=
        links_.bytes_sent() + control_messages_ * kControlMessageBytes;
    if (const auto& audit = machine_.halt_audit()) {
      result.detection_gap = audit->max_gap;
      result.detection_max_residual = audit->max_residual;
    }
    return result;
  }

  const ode::OdeSystem& system_;
  grid::Grid& grid_;
  EngineConfig config_;
  trace::ExecutionTrace* trace_;
  des::Simulator sim_;
  algo::FleetMachine machine_;
  /// Wire-equivalent byte accounting (DESIGN.md §14): the counters and the
  /// trace charge what a delta-capable wire would carry, while the delay
  /// model and the delivered values stay on the full message.
  algo::LinkMeters links_;
  /// Earliest time each directed neighbor link is free to deliver the
  /// next frame (see link_delivery_time): [link][0] rightward, [link][1]
  /// leftward.
  std::vector<std::array<double, 2>> link_clear_;
  // The leftward departure and the finish of the iteration just started
  // (set right after its start, before its actions are queued).
  double staged_left_depart_ = 0.0;
  double staged_finish_ = 0.0;

  bool result_converged_ = false;
  double execution_time_ = 0.0;
  std::size_t control_messages_ = 0;
};

}  // namespace

EngineResult run_simulated(const ode::OdeSystem& system, grid::Grid& grid,
                           const EngineConfig& config,
                           trace::ExecutionTrace* trace) {
  SimEngine engine(system, grid, config, trace);
  return engine.run();
}

}  // namespace aiac::core
