#include "core/config.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "algo/processor_core.hpp"

namespace aiac::core {

algo::FleetConfig fleet_config(const EngineConfig& config,
                               std::size_t processors) {
  algo::FleetConfig fc;
  fc.processors = processors;
  fc.partition = config.initial_partition;
  fc.speeds = config.processor_speeds;
  fc.num_steps = config.num_steps;
  fc.t_end = config.t_end;
  fc.solve_mode = config.solve_mode;
  fc.newton = config.newton;
  fc.receive_filter = config.tolerance * config.receive_filter_factor;
  fc.tolerance = config.tolerance;
  fc.persistence = config.persistence;
  fc.estimator = config.estimator;
  fc.balancer = config.balancer;
  return fc;
}

std::optional<ode::BoundaryDeltaSender::Config> delta_config(
    const EngineConfig& config) {
  if (!config.delta_boundaries) return std::nullopt;
  return ode::BoundaryDeltaSender::Config{
      config.tolerance * kDeltaThresholdFactor, ode::kDeltaRefreshPeriod};
}

std::string iteration_budget_reason(const EngineConfig& config) {
  return "iteration budget exhausted (" +
         std::to_string(config.max_iterations_per_processor) +
         " per processor)";
}

EngineResult fleet_result(algo::CoreFleet& fleet, std::size_t dimension,
                          std::size_t num_steps) {
  EngineResult result;
  result.solution = ode::Trajectory(dimension, num_steps);
  result.min_components_observed = std::numeric_limits<std::size_t>::max();
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    algo::ProcessorCore& core = fleet.core(p);
    core.drain_pending_migrations();
    core.block().copy_local_into(result.solution);
    result.total_iterations += core.iteration();
    result.iterations_per_processor.push_back(core.iteration());
    result.final_components.push_back(core.components());
    result.total_work += core.total_work();
    result.migrations += core.migrations_out();
    result.components_migrated += core.components_out();
    result.bytes_sent += core.lb_bytes_out();
    result.min_components_observed =
        std::min(result.min_components_observed, core.min_components_seen());
    if (!std::isinf(core.last_residual()))
      result.final_max_residual =
          std::max(result.final_max_residual, core.last_residual());
  }
  result.lb_messages = result.migrations;
  return result;
}

}  // namespace aiac::core
