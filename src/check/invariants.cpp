#include "check/invariants.hpp"

#include <utility>

namespace aiac::check {

std::string Violation::to_string() const {
  return "[" + invariant + "] after action " +
         std::to_string(action_index) + ": " + detail;
}

void InvariantSuite::add(std::string name, CheckFn check) {
  invariants_.push_back({std::move(name), std::move(check)});
}

std::vector<std::string> InvariantSuite::names() const {
  std::vector<std::string> names;
  names.reserve(invariants_.size());
  for (const Entry& entry : invariants_) names.push_back(entry.name);
  return names;
}

std::vector<Violation> InvariantSuite::evaluate(
    const CheckedModel& model) const {
  std::vector<Violation> violations;
  for (const Entry& entry : invariants_) {
    if (auto detail = entry.check(model))
      violations.push_back(
          {entry.name, std::move(*detail), model.actions_applied()});
  }
  return violations;
}

InvariantSuite InvariantSuite::standard() {
  InvariantSuite suite;
  add_conservation_invariant(suite);
  add_famine_invariant(suite);
  add_migration_discipline_invariant(suite);
  add_detection_safety_invariant(suite);
  return suite;
}

void add_conservation_invariant(InvariantSuite& suite) {
  suite.add("component-conservation", [](const CheckedModel& model)
                -> std::optional<std::string> {
    std::size_t owned = 0;
    std::size_t queued = 0;
    for (std::size_t p = 0; p < model.processors(); ++p) {
      owned += model.fleet().core(p).components();
      queued += model.fleet().core(p).pending_migration_components();
    }
    const std::size_t in_transit = model.in_transit_components();
    const std::size_t total = owned + queued + in_transit;
    if (total == model.config().dimension) return std::nullopt;
    return "owned " + std::to_string(owned) + " + queued " +
           std::to_string(queued) + " + in-transit " +
           std::to_string(in_transit) + " = " + std::to_string(total) +
           ", expected " + std::to_string(model.config().dimension);
  });
}

void add_famine_invariant(InvariantSuite& suite) {
  suite.add("famine-guard", [](const CheckedModel& model)
                -> std::optional<std::string> {
    for (std::size_t p = 0; p < model.processors(); ++p) {
      // The watermark is sampled by the core at its tightest instant
      // (right after a migration extraction), so a dip inside an atomic
      // step action cannot hide from this check.
      const std::size_t seen = model.fleet().core(p).min_components_seen();
      const std::size_t floor = model.famine_floor(p);
      if (seen < floor)
        return "processor " + std::to_string(p) + " dropped to " +
               std::to_string(seen) + " components (floor " +
               std::to_string(floor) + ")";
    }
    return std::nullopt;
  });
}

void add_migration_discipline_invariant(InvariantSuite& suite) {
  suite.add("migration-flag-discipline", [](const CheckedModel& model)
                -> std::optional<std::string> {
    if (!model.discipline_breaches().empty())
      return model.discipline_breaches().front();
    for (std::size_t p = 0; p < model.processors(); ++p) {
      for (const algo::Side side : {algo::Side::kLeft, algo::Side::kRight}) {
        const std::size_t depth = model.migration_channel_depth(p, side);
        if (depth > 1)
          return "channel toward " + std::to_string(p) + " from the " +
                 algo::to_string(side) + " holds " + std::to_string(depth) +
                 " payloads";
      }
    }
    return std::nullopt;
  });
}

void add_detection_safety_invariant(InvariantSuite& suite) {
  suite.add("detection-safety", [](const CheckedModel& model)
                -> std::optional<std::string> {
    if (!model.halted()) return std::nullopt;
    const algo::OracleSnapshot& record = *model.halt_record();
    const std::string mode = algo::to_string(model.config().detection);
    if (record.any_core_unstarted)
      return mode + " halted before every processor completed an iteration";
    if (record.any_residual_stale)
      return mode +
             " halted while a residual was stale (absorbed components not "
             "yet covered by an iteration)";
    if (record.max_residual > model.config().tolerance)
      return mode + " halted with residual " +
             std::to_string(record.max_residual) + " above tolerance " +
             std::to_string(model.config().tolerance);
    return std::nullopt;
  });
}

}  // namespace aiac::check
