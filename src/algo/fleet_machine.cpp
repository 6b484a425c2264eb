#include "algo/fleet_machine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace aiac::algo {

namespace {

using Kind = FleetAction::Kind;

std::size_t neighbour(std::size_t p, Side side) noexcept {
  return side == Side::kLeft ? p - 1 : p + 1;
}

}  // namespace

FleetMachine::FleetMachine(const ode::OdeSystem& system,
                           const FleetConfig& fleet, const MachineRules& rules)
    : rules_(rules),
      tolerance_(fleet.tolerance),
      fleet_(system, fleet),
      protocol_(rules.detection, fleet.processors, *this, *this),
      ranks_(fleet.processors),
      channels_(fleet.processors > 0 ? 2 * (fleet.processors - 1) : 0) {
  for (std::size_t p = 0; p < ranks_.size(); ++p) try_start(p);
}

std::vector<FleetAction> FleetMachine::enabled_actions() const {
  std::vector<FleetAction> actions;
  if (stopped_) return actions;
  const std::size_t n = ranks_.size();
  for (std::size_t p = 0; p < n; ++p)
    if (ranks_[p].status == Status::kStartPending)
      actions.push_back({Kind::kStart, Side::kLeft, p, 0});
  for (std::size_t p = 0; p < n; ++p) {
    if (ranks_[p].status != Status::kComputing) continue;
    const std::size_t before = actions.size();
    for (const Side side : {Side::kLeft, Side::kRight})
      if (fleet_.core(p).has_neighbor(side) && channel(p, side).staged)
        actions.push_back({Kind::kDepart, side, p, 0});
    if (actions.size() == before)
      actions.push_back({Kind::kFinish, Side::kLeft, p, 0});
  }
  for (std::size_t p = 0; p < n; ++p) {
    for (const Side from : {Side::kLeft, Side::kRight})
      if (fleet_.core(p).has_neighbor(from) &&
          !channel(neighbour(p, from), opposite(from)).in_flight.empty())
        actions.push_back({Kind::kArriveLink, from, p, 0});
    const PendingControl* oldest = nullptr;
    for (const PendingControl& pc : controls_)
      if (pc.sequence != 0 && pc.dst == p &&
          (!oldest || pc.sequence < oldest->sequence))
        oldest = &pc;
    if (oldest)
      actions.push_back({Kind::kArriveControl, Side::kLeft, p,
                         static_cast<std::size_t>(oldest - controls_.data())});
    if (halt_audit_ && !ranks_[p].halted)  // the broadcast is on its way
      actions.push_back({Kind::kArriveHalt, Side::kLeft, p, 0});
  }
  return actions;
}

void FleetMachine::apply(const FleetAction& action, double now) {
  if (stopped_ && action.kind != Kind::kFinish)
    throw std::logic_error("FleetMachine::apply: the run has stopped");
  fresh_.clear();
  attempt_.reset();
  switch (action.kind) {
    case Kind::kStart: start(action.rank, now); break;
    case Kind::kDepart: depart(action.rank, action.side); break;
    case Kind::kFinish: finish(action.rank, now); break;
    case Kind::kArriveLink: arrive_link(action.rank, action.side); break;
    case Kind::kArriveControl: arrive_control(action.slot); break;
    case Kind::kArriveHalt: ranks_[action.rank].halted = true; break;
  }
}

void FleetMachine::send(std::size_t src, Side toward, Frame frame) {
  channel_of(src, toward).in_flight.push_back(std::move(frame));
  fresh_.push_back(
      {Kind::kArriveLink, opposite(toward), neighbour(src, toward), 0});
}

void FleetMachine::start(std::size_t p, double now) {
  Rank& rank = ranks_[p];
  if (rank.status != Status::kStartPending)
    throw std::logic_error("start-iteration: no start pending");
  if (rank.halted) {
    rank.status = Status::kIdle;
    return;
  }
  rank.status = Status::kComputing;
  rank.started_at = now;
  ProcessorCore& core = fleet_.core(p);
  fleet_.begin_iteration(p);
  rank.components = core.components();
  rank.stats = core.run_iteration();
  // Emission at start: deliveries during the iterate reach the inbox for
  // the next begin, and the stamp carries the previous iteration's
  // residual, the paper's "residual of previous iteration".
  for (const Side side : {Side::kLeft, Side::kRight}) {
    if (!core.has_neighbor(side)) continue;
    channel_of(p, side).staged = core.make_boundary(side);
    fresh_.push_back({Kind::kDepart, side, p, 0});
  }
  fresh_.push_back({Kind::kFinish, Side::kLeft, p, 0});
}

void FleetMachine::depart(std::size_t p, Side toward) {
  Channel& ch = channel_of(p, toward);
  ode::BoundaryMessage msg = std::move(ch.staged.value());
  ch.staged.reset();
  // AIAC mutual exclusion (paper Fig. 4): skip while the last boundary on
  // the link is in flight, and retry when it lands, so a rank that goes
  // idle afterwards still propagates its final values.
  if (rules_.scheme == Scheme::kAIAC && ch.busy) {
    ch.pending = true;
    return;
  }
  ch.busy = true;
  send(p, toward, std::move(msg));
}

void FleetMachine::finish(std::size_t p, double now) {
  Rank& rank = ranks_[p];
  rank.status = Status::kIdle;
  ProcessorCore& core = fleet_.core(p);
  core.finish_iteration(rank.stats, now - rank.started_at);
  if (stopped_) return;

  if (rules_.load_balancing && core.lb_trigger_due()) {
    ode::MigrationPayload payload;
    attempt_ = fleet_.migrate(p, payload);
    if (attempt_->outcome == MigrationAttempt::Outcome::kExtracted)
      send(p, attempt_->side, std::move(payload));
  }
  if (rules_.detection == DetectionMode::kOracle) {
    const OracleSnapshot snap = oracle_probe(fleet_, tolerance_);
    if (snap.converged) {
      halt_audit_ = snap;
      for (Rank& r : ranks_) r.halted = true;
      return;
    }
  } else {
    protocol_.on_iteration_end(p);
  }
  // Event-driven idling: an iterate that changed nothing, with nothing
  // new arrived, sleeps until the next delivery.
  if (rules_.scheme == Scheme::kAIAC && rules_.park_idle &&
      core.can_park(rank.stats)) {
    rank.status = Status::kParked;
    return;
  }
  try_start(p);
}

void FleetMachine::arrive_link(std::size_t p, Side from) {
  const std::size_t src = neighbour(p, from);
  const Side toward = opposite(from);
  Channel& ch = channel_of(src, toward);
  if (ch.in_flight.empty())
    throw std::logic_error("arrive-link: nothing in flight");
  Frame frame = std::move(ch.in_flight.front());
  ch.in_flight.pop_front();
  if (auto* msg = std::get_if<ode::BoundaryMessage>(&frame)) {
    ch.busy = ch.pending;
    if (ch.pending) {
      ch.pending = false;
      send(src, toward, fleet_.core(src).make_boundary(toward));
    }
    fleet_.core(p).ingest_boundary(from, *msg);
  } else {
    fleet_.core(p).enqueue_migration(
        from, std::move(std::get<ode::MigrationPayload>(frame)));
  }
  const Status status = ranks_[p].status;
  if (status == Status::kWaiting || status == Status::kParked) try_start(p);
}

void FleetMachine::arrive_control(std::size_t slot) {
  PendingControl& pc = controls_.at(slot);
  if (pc.sequence == 0)
    throw std::logic_error("arrive-control: no frame in this slot");
  pc.sequence = 0;  // the handler may reuse the slot: pass copies
  free_controls_.push_back(slot);
  const std::size_t dst = pc.dst;
  const ControlFrame frame = pc.frame;
  protocol_.handle_control(dst, frame);
}

void FleetMachine::try_start(std::size_t p) {
  Rank& rank = ranks_[p];
  if (rank.halted || stopped_) return;
  // Sync schemes need both neighbours' data from the completed-iteration
  // count first (iteration 1 runs on the initial ghosts).
  const ProcessorCore& core = fleet_.core(p);
  if (rules_.scheme != Scheme::kAIAC && core.iteration() > 0)
    for (const Side side : {Side::kLeft, Side::kRight})
      if (core.has_neighbor(side) &&
          core.data_iteration(side) < core.iteration()) {
        rank.status = Status::kWaiting;
        return;
      }
  rank.status = Status::kStartPending;
  fresh_.push_back({Kind::kStart, Side::kLeft, p, 0});
}

void FleetMachine::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (std::size_t src = 0; src < ranks_.size(); ++src)
    for (const Side toward : {Side::kLeft, Side::kRight}) {
      if (!fleet_.core(src).has_neighbor(toward)) continue;
      for (Frame& frame : channel_of(src, toward).in_flight)
        if (auto* payload = std::get_if<ode::MigrationPayload>(&frame))
          fleet_.core(neighbour(src, toward))
              .enqueue_migration(opposite(toward), std::move(*payload));
      channel_of(src, toward).in_flight.clear();
    }
}

bool FleetMachine::halted() const noexcept {
  return std::all_of(ranks_.begin(), ranks_.end(),
                     [](const Rank& rank) { return rank.halted; });
}

std::size_t FleetMachine::in_transit_components() const {
  std::size_t total = 0;
  for (const Channel& ch : channels_)
    for (const Frame& frame : ch.in_flight)
      if (const auto* payload = std::get_if<ode::MigrationPayload>(&frame))
        total += payload->owned_count;
  return total;
}

std::size_t FleetMachine::migrations_in_flight(std::size_t src,
                                               Side toward) const {
  const std::deque<Frame>& fifo = channel(src, toward).in_flight;
  return static_cast<std::size_t>(
      std::count_if(fifo.begin(), fifo.end(), [](const Frame& frame) {
        return std::holds_alternative<ode::MigrationPayload>(frame);
      }));
}

void FleetMachine::send_control(std::size_t src, std::size_t dst,
                                const ControlFrame& frame) {
  std::size_t slot = controls_.size();
  if (free_controls_.empty()) {
    controls_.emplace_back();
  } else {
    slot = free_controls_.back();
    free_controls_.pop_back();
  }
  controls_[slot] = {src, dst, frame, ++control_sequence_};
  fresh_.push_back({Kind::kArriveControl, Side::kLeft, dst, slot});
}

bool FleetMachine::locally_converged(std::size_t rank) const {
  return fleet_.core(rank).locally_converged();
}

/// The shared core veto alone: a delivery reaches the core the instant it
/// is applied, so nothing delivered is hidden from it.
bool FleetMachine::confirm_converged(std::size_t rank) const {
  return fleet_.core(rank).can_confirm();
}

void FleetMachine::broadcast_halt() {
  // The protocol guaranteed persistent local convergence, not interface
  // consistency; record what actually held at the decision instant.
  halt_audit_ = measured_audit(fleet_);
  for (std::size_t p = 0; p < ranks_.size(); ++p)
    fresh_.push_back({Kind::kArriveHalt, Side::kLeft, p, 0});
}

}  // namespace aiac::algo
