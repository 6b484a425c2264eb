#include "check/model.hpp"

#include <algorithm>
#include <stdexcept>
#include <variant>

namespace aiac::check {

using algo::Side;

namespace {

ode::LinearDiffusion::Params diffusion_params(const ModelConfig& config) {
  ode::LinearDiffusion::Params params;
  params.grid_points = config.dimension;
  return params;
}

algo::FleetConfig model_fleet_config(const ModelConfig& config) {
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
  return fc;
}

std::size_t sender_of(std::size_t p, Side from) {
  return from == Side::kLeft ? p - 1 : p + 1;
}

}  // namespace

CheckedModel::CheckedModel(const ModelConfig& config)
    : config_(config),
      system_(diffusion_params(config)),
      // The sim's rules with AIAC and its default parking.
      machine_(system_, model_fleet_config(config),
               algo::MachineRules{algo::Scheme::kAIAC, config.detection,
                                  config.load_balancing,
                                  /*park_idle=*/true}) {
  for (std::size_t p = 0; p < config.processors; ++p)
    initial_components_.push_back(machine_.fleet().core(p).components());
}

std::vector<Action> CheckedModel::enabled_actions() const {
  std::vector<Action> actions;
  if (halted()) return actions;
  for (const Action& action : machine_.enabled_actions()) {
    // Departures and finishes run inside a step; halts end the model at
    // the decision instead.
    if ((action.kind == Action::Kind::kStart &&
         fleet().core(action.rank).iteration() < config_.max_iterations) ||
        action.kind == Action::Kind::kArriveLink ||
        action.kind == Action::Kind::kArriveControl)
      actions.push_back(action);
  }
  return actions;
}

std::string CheckedModel::describe(const Action& action) const {
  const std::string rank = std::to_string(action.rank);
  if (action.kind == Action::Kind::kStart) return "step(" + rank + ")";
  if (action.kind == Action::Kind::kArriveControl)
    return "deliver-control(" + rank + ")";
  const bool boundary = std::holds_alternative<ode::BoundaryMessage>(
      machine_
          .channel(sender_of(action.rank, action.side),
                   algo::opposite(action.side))
          .in_flight.front());
  return std::string(boundary ? "deliver-boundary(" : "deliver-migration(") +
         rank + "," + algo::to_string(action.side) + ")";
}

void CheckedModel::apply(const Action& action) {
  if (halted())
    throw std::logic_error("CheckedModel::apply: model already halted");
  ++actions_applied_;
  apply_to_machine(action);
  if (action.kind != Action::Kind::kStart) return;
  // The step's departures, then its finish, in the order the start
  // enabled them.
  const std::vector<Action> rest = machine_.newly_enabled();
  for (const Action& next : rest) apply_to_machine(next);
}

void CheckedModel::apply_to_machine(const Action& action) {
  // Logical time: one tick per applied action, so a step's finish measures
  // zero seconds. Durations are meaningless under adversarial scheduling.
  machine_.apply(action, static_cast<double>(actions_applied_));
  // Migration-flag discipline (paper Algorithm 4/7): a second migration
  // must never start on a link before the first is absorbed. The planner
  // was told the flags; deciding to send on a busy link anyway is the
  // protocol bug this records.
  const auto& attempt = machine_.migration_attempt();
  if (attempt &&
      attempt->outcome == algo::MigrationAttempt::Outcome::kLinkBusy) {
    const std::size_t link =
        attempt->side == Side::kLeft ? action.rank - 1 : action.rank;
    discipline_breaches_.push_back(
        "processor " + std::to_string(action.rank) + " planned a migration " +
        "on busy link " + std::to_string(link));
  }
}

std::size_t CheckedModel::famine_floor(std::size_t p) const {
  return std::min(initial_components_[p], machine_.fleet().min_keep());
}

std::size_t CheckedModel::migration_channel_depth(std::size_t p,
                                                  Side side) const {
  if (!fleet().core(p).has_neighbor(side)) return 0;
  return machine_.migrations_in_flight(sender_of(p, side),
                                       algo::opposite(side));
}

}  // namespace aiac::check
