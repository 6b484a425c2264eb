#include "check/schedule.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace aiac::check {

namespace {

constexpr const char* kHeader = "# model_check schedule v1";
constexpr const char* kScheduleMarker = "schedule:";

/// Canonical double formatting: shortest round-trip representation, so
/// serialize → parse → serialize is byte-identical.
std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  double parsed = 0.0;
  std::sscanf(buffer, "%lf", &parsed);
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[64];
    std::snprintf(candidate, sizeof(candidate), "%.*g", precision, value);
    std::sscanf(candidate, "%lf", &parsed);
    if (parsed == value) return candidate;
  }
  return buffer;
}

std::string partition_name(algo::InitialPartition partition) {
  return algo::to_string(partition);
}

algo::InitialPartition parse_partition(const std::string& name) {
  if (name == "even") return algo::InitialPartition::kEven;
  if (name == "speed-weighted") return algo::InitialPartition::kSpeedWeighted;
  throw std::invalid_argument("schedule: unknown partition: " + name);
}

std::string estimator_name(lb::EstimatorKind kind) {
  switch (kind) {
    case lb::EstimatorKind::kResidual: return "residual";
    case lb::EstimatorKind::kIterationTime: return "iteration-time";
    case lb::EstimatorKind::kComponentCount: return "component-count";
    case lb::EstimatorKind::kResidualTime: return "residual-time";
  }
  return "residual";
}

lb::EstimatorKind parse_estimator(const std::string& name) {
  if (name == "residual") return lb::EstimatorKind::kResidual;
  if (name == "iteration-time") return lb::EstimatorKind::kIterationTime;
  if (name == "component-count") return lb::EstimatorKind::kComponentCount;
  if (name == "residual-time") return lb::EstimatorKind::kResidualTime;
  throw std::invalid_argument("schedule: unknown estimator: " + name);
}

std::string selection_name(lb::BalancerConfig::Selection selection) {
  return selection == lb::BalancerConfig::Selection::kLeftFirst
             ? "left-first"
             : "lightest";
}

lb::BalancerConfig::Selection parse_selection(const std::string& name) {
  if (name == "lightest")
    return lb::BalancerConfig::Selection::kLightestNeighbor;
  if (name == "left-first") return lb::BalancerConfig::Selection::kLeftFirst;
  throw std::invalid_argument("schedule: unknown selection: " + name);
}

std::size_t parse_size(const std::string& value) {
  return static_cast<std::size_t>(std::stoull(value));
}

}  // namespace

std::string Schedule::serialize() const {
  std::ostringstream out;
  out << kHeader << "\n";
  out << "note=" << note << "\n";
  out << "processors=" << config.processors << "\n";
  out << "dimension=" << config.dimension << "\n";
  out << "num_steps=" << config.num_steps << "\n";
  out << "t_end=" << format_double(config.t_end) << "\n";
  out << "tolerance=" << format_double(config.tolerance) << "\n";
  out << "persistence=" << config.persistence << "\n";
  out << "receive_filter_factor="
      << format_double(config.receive_filter_factor) << "\n";
  out << "load_balancing=" << (config.load_balancing ? 1 : 0) << "\n";
  out << "detection=" << algo::to_string(config.detection) << "\n";
  out << "partition=" << partition_name(config.partition) << "\n";
  out << "speeds=";
  for (std::size_t i = 0; i < config.speeds.size(); ++i) {
    if (i > 0) out << ",";
    out << format_double(config.speeds[i]);
  }
  out << "\n";
  out << "estimator=" << estimator_name(config.estimator) << "\n";
  out << "threshold_ratio=" << format_double(config.balancer.threshold_ratio)
      << "\n";
  out << "min_components=" << config.balancer.min_components << "\n";
  out << "migration_fraction="
      << format_double(config.balancer.migration_fraction) << "\n";
  out << "max_fraction_per_migration="
      << format_double(config.balancer.max_fraction_per_migration) << "\n";
  out << "trigger_period=" << config.balancer.trigger_period << "\n";
  out << "selection=" << selection_name(config.balancer.selection) << "\n";
  out << "max_iterations=" << config.max_iterations << "\n";
  out << "mutate_disable_famine_guard="
      << (config.mutate_disable_famine_guard ? 1 : 0) << "\n";
  out << kScheduleMarker << "\n";
  for (const ScheduleEntry& entry : entries)
    out << entry.choice << " " << entry.action << "\n";
  return out.str();
}

Schedule Schedule::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader)
    throw std::invalid_argument("schedule: missing header");

  Schedule schedule;
  bool in_entries = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!in_entries) {
      if (line == kScheduleMarker) {
        in_entries = true;
        continue;
      }
      const auto eq = line.find('=');
      if (eq == std::string::npos)
        throw std::invalid_argument("schedule: malformed line: " + line);
      const std::string key = line.substr(0, eq);
      const std::string value = line.substr(eq + 1);
      ModelConfig& c = schedule.config;
      if (key == "note") schedule.note = value;
      else if (key == "processors") c.processors = parse_size(value);
      else if (key == "dimension") c.dimension = parse_size(value);
      else if (key == "num_steps") c.num_steps = parse_size(value);
      else if (key == "t_end") c.t_end = std::stod(value);
      else if (key == "tolerance") c.tolerance = std::stod(value);
      else if (key == "persistence") c.persistence = parse_size(value);
      else if (key == "receive_filter_factor")
        c.receive_filter_factor = std::stod(value);
      else if (key == "load_balancing") c.load_balancing = value == "1";
      else if (key == "detection") c.detection = algo::parse_detection(value);
      else if (key == "partition") c.partition = parse_partition(value);
      else if (key == "speeds") {
        c.speeds.clear();
        std::istringstream speeds(value);
        std::string item;
        while (std::getline(speeds, item, ','))
          if (!item.empty()) c.speeds.push_back(std::stod(item));
      } else if (key == "estimator") c.estimator = parse_estimator(value);
      else if (key == "threshold_ratio")
        c.balancer.threshold_ratio = std::stod(value);
      else if (key == "min_components")
        c.balancer.min_components = parse_size(value);
      else if (key == "migration_fraction")
        c.balancer.migration_fraction = std::stod(value);
      else if (key == "max_fraction_per_migration")
        c.balancer.max_fraction_per_migration = std::stod(value);
      else if (key == "trigger_period")
        c.balancer.trigger_period = parse_size(value);
      else if (key == "selection")
        c.balancer.selection = parse_selection(value);
      else if (key == "max_iterations") c.max_iterations = parse_size(value);
      else if (key == "mutate_disable_famine_guard")
        c.mutate_disable_famine_guard = value == "1";
      else
        throw std::invalid_argument("schedule: unknown key: " + key);
      continue;
    }
    const auto space = line.find(' ');
    if (space == std::string::npos)
      throw std::invalid_argument("schedule: malformed entry: " + line);
    ScheduleEntry entry;
    entry.choice = parse_size(line.substr(0, space));
    entry.action = line.substr(space + 1);
    schedule.entries.push_back(std::move(entry));
  }
  if (!in_entries)
    throw std::invalid_argument("schedule: missing 'schedule:' marker");
  return schedule;
}

void Schedule::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("schedule: cannot write " + path);
  out << serialize();
}

Schedule Schedule::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("schedule: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

std::vector<std::size_t> Schedule::choices() const {
  std::vector<std::size_t> result;
  result.reserve(entries.size());
  for (const ScheduleEntry& entry : entries) result.push_back(entry.choice);
  return result;
}

}  // namespace aiac::check
