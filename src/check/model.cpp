#include "check/model.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace aiac::check {

using algo::Side;

std::string Action::describe() const {
  const std::string side = algo::to_string(from);
  switch (kind) {
    case Kind::kStep:
      return "step(" + std::to_string(target) + ")";
    case Kind::kDeliverBoundary:
      return "deliver-boundary(" + std::to_string(target) + "," + side + ")";
    case Kind::kDeliverMigration:
      return "deliver-migration(" + std::to_string(target) + "," + side + ")";
    case Kind::kDeliverControl:
      return "deliver-control(" + std::to_string(target) + ")";
  }
  return "?";
}

CheckedModel::CheckedModel(const ModelConfig& config) : config_(config) {
  ode::LinearDiffusion::Params params;
  params.grid_points = config.dimension;
  system_ = std::make_unique<ode::LinearDiffusion>(params);

  algo::FleetConfig fc;
  fc.processors = config.processors;
  fc.partition = config.partition;
  fc.speeds = config.speeds;
  fc.num_steps = config.num_steps;
  fc.t_end = config.t_end;
  fc.solve_mode = ode::LocalSolveMode::kBlockNewton;
  fc.receive_filter = config.tolerance * config.receive_filter_factor;
  fc.tolerance = config.tolerance;
  fc.persistence = config.persistence;
  fc.estimator = config.estimator;
  fc.balancer = config.balancer;
  fleet_ = std::make_unique<algo::CoreFleet>(*system_, fc);

  channels_.resize(config.processors);
  for (std::size_t p = 0; p < config.processors; ++p)
    initial_components_.push_back(fleet_->core(p).components());
  protocol_ = std::make_unique<algo::DetectionProtocol>(
      config.detection, config.processors, *this, *this);
}

std::vector<Action> CheckedModel::enabled_actions() const {
  std::vector<Action> actions;
  if (halted_) return actions;
  const std::size_t n = config_.processors;
  for (std::size_t p = 0; p < n; ++p) {
    if (fleet_->core(p).iteration() < config_.max_iterations)
      actions.push_back({Action::Kind::kStep, p, Side::kLeft});
  }
  for (std::size_t p = 0; p < n; ++p) {
    const Channels& ch = channels_[p];
    if (ch.boundary_left)
      actions.push_back({Action::Kind::kDeliverBoundary, p, Side::kLeft});
    if (ch.boundary_right)
      actions.push_back({Action::Kind::kDeliverBoundary, p, Side::kRight});
    if (!ch.migration_left.empty())
      actions.push_back({Action::Kind::kDeliverMigration, p, Side::kLeft});
    if (!ch.migration_right.empty())
      actions.push_back({Action::Kind::kDeliverMigration, p, Side::kRight});
    if (!ch.control.empty())
      actions.push_back({Action::Kind::kDeliverControl, p, Side::kLeft});
  }
  return actions;
}

void CheckedModel::apply(const Action& action) {
  if (halted_)
    throw std::logic_error("CheckedModel::apply: model already halted");
  ++actions_applied_;
  ++logical_time_;
  Channels& ch = channels_[action.target];
  switch (action.kind) {
    case Action::Kind::kStep:
      step(action.target);
      break;
    case Action::Kind::kDeliverBoundary: {
      auto& slot = boundary_slot(action.target, action.from);
      if (!slot)
        throw std::logic_error("deliver-boundary on an empty channel");
      fleet_->core(action.target).ingest_boundary(action.from, *slot);
      slot.reset();
      break;
    }
    case Action::Kind::kDeliverMigration: {
      auto& queue = migration_queue(action.target, action.from);
      if (queue.empty())
        throw std::logic_error("deliver-migration on an empty channel");
      fleet_->core(action.target)
          .enqueue_migration(action.from, std::move(queue.front()));
      queue.pop_front();
      break;
    }
    case Action::Kind::kDeliverControl: {
      if (ch.control.empty())
        throw std::logic_error("deliver-control on an empty queue");
      const algo::ControlFrame frame = ch.control.front();
      ch.control.pop_front();
      protocol_->handle_control(action.target, frame);
      break;
    }
  }
}

void CheckedModel::step(std::size_t p) {
  algo::ProcessorCore& core = fleet_->core(p);
  // The fleet releases a link once its receiver absorbs the payload,
  // exactly as in the production drivers: that serializes migrations.
  fleet_->begin_iteration(p);

  const double start = now();
  const auto stats = core.run_iteration();
  core.finish_iteration(stats, start, *this);
  core.emit_boundaries(*this);

  if (config_.load_balancing) try_load_balance(p);

  if (halted_) return;  // a control frame can have halted us mid-step
  if (config_.detection == algo::DetectionMode::kOracle)
    run_oracle();
  else
    protocol_->on_iteration_end(p);
}

void CheckedModel::try_load_balance(std::size_t p) {
  if (!fleet_->core(p).lb_trigger_due()) return;
  ode::MigrationPayload payload;
  const algo::MigrationAttempt attempt = fleet_->migrate(p, payload);
  // Migration-flag discipline (paper Algorithm 4/7): a second migration
  // must never start on a link before the first is acknowledged. The
  // planner was told the flags; deciding to send on a busy link anyway is
  // the protocol bug this records.
  if (attempt.outcome == algo::MigrationAttempt::Outcome::kLinkBusy) {
    const std::size_t link = attempt.side == Side::kLeft ? p - 1 : p;
    discipline_breaches_.push_back(
        "processor " + std::to_string(p) + " planned a migration on busy " +
        "link " + std::to_string(link));
    return;
  }
  if (attempt.outcome == algo::MigrationAttempt::Outcome::kExtracted)
    send_migration(p, attempt.side, std::move(payload));
}

void CheckedModel::run_oracle() {
  const auto snap = algo::oracle_probe(*fleet_, config_.tolerance);
  if (snap.converged) record_halt(algo::DetectionMode::kOracle, snap);
}

void CheckedModel::broadcast_halt() {
  // Coordinator decision. The fan-out latency is immaterial
  // to the checked invariants, so the halt is global and instant; what
  // matters — and what the detection-safety invariant inspects — is the
  // ground truth at this very instant.
  record_halt(config_.detection, algo::measured_audit(*fleet_));
}

void CheckedModel::record_halt(algo::DetectionMode mode,
                               const algo::OracleSnapshot& snap) {
  halted_ = true;
  HaltRecord record;
  record.mode = mode;
  record.max_residual = snap.max_residual;
  record.max_interface_gap = snap.max_gap;
  record.any_residual_stale = snap.any_residual_stale;
  record.any_core_unstarted = snap.any_core_unstarted;
  halt_record_ = record;
}

void CheckedModel::send_boundary(std::size_t src, Side toward,
                                 ode::BoundaryMessage msg) {
  const std::size_t dst = toward == Side::kLeft ? src - 1 : src + 1;
  // The receiver sees the message arriving from its opposite side.
  boundary_slot(dst, algo::opposite(toward)) = std::move(msg);
}

void CheckedModel::send_migration(std::size_t src, Side toward,
                                  ode::MigrationPayload payload) {
  const std::size_t dst = toward == Side::kLeft ? src - 1 : src + 1;
  auto& queue = migration_queue(dst, algo::opposite(toward));
  queue.push_back(std::move(payload));
  if (queue.size() > 1) {
    discipline_breaches_.push_back(
        "migration channel toward " + std::to_string(dst) + " from the " +
        algo::to_string(algo::opposite(toward)) + " holds " +
        std::to_string(queue.size()) + " in-flight payloads");
  }
}

void CheckedModel::send_control(std::size_t, std::size_t dst,
                                const algo::ControlFrame& frame) {
  channels_[dst].control.push_back(frame);
}

bool CheckedModel::locally_converged(std::size_t rank) const {
  return fleet_->core(rank).locally_converged();
}

std::optional<ode::BoundaryMessage>& CheckedModel::boundary_slot(
    std::size_t p, Side side) {
  return side == Side::kLeft ? channels_[p].boundary_left
                             : channels_[p].boundary_right;
}

std::deque<ode::MigrationPayload>& CheckedModel::migration_queue(std::size_t p,
                                                                 Side side) {
  return side == Side::kLeft ? channels_[p].migration_left
                             : channels_[p].migration_right;
}

std::size_t CheckedModel::in_transit_components() const {
  std::size_t total = 0;
  for (const Channels& ch : channels_) {
    for (const auto& payload : ch.migration_left) total += payload.owned_count;
    for (const auto& payload : ch.migration_right)
      total += payload.owned_count;
  }
  return total;
}

std::size_t CheckedModel::famine_floor(std::size_t p) const {
  return std::min(initial_components_[p], fleet_->min_keep());
}

std::size_t CheckedModel::migration_channel_depth(std::size_t p,
                                                  Side side) const {
  return side == Side::kLeft ? channels_[p].migration_left.size()
                             : channels_[p].migration_right.size();
}

}  // namespace aiac::check
