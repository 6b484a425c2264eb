#include "algo/partitioner.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "ode/waveform.hpp"

namespace aiac::algo {
namespace {

// Static speed-weighted partition (the authors' earlier static-balancing
// work [2]): splits `total` items into contiguous ranges proportional to
// `speeds` (already validated strictly positive by build_partition);
// returns part boundaries (size speeds.size() + 1). Every part receives at
// least `min_per_part` items.
std::vector<std::size_t> speed_weighted_partition(
    std::size_t total, const std::vector<double>& speeds,
    std::size_t min_per_part) {
  const std::size_t parts = speeds.size();
  if (total < parts * min_per_part)
    throw std::invalid_argument(
        "speed_weighted_partition: not enough items for the minimum");
  double speed_sum = 0.0;
  for (double s : speeds) speed_sum += s;
  // Largest-remainder apportionment with a floor of min_per_part.
  std::vector<std::size_t> sizes(parts, min_per_part);
  std::size_t assigned = parts * min_per_part;
  std::vector<double> fractional(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    const double ideal =
        static_cast<double>(total) * speeds[p] / speed_sum;
    const double extra = std::max(0.0, ideal - static_cast<double>(min_per_part));
    const auto whole = static_cast<std::size_t>(extra);
    sizes[p] += whole;
    assigned += whole;
    fractional[p] = extra - static_cast<double>(whole);
  }
  // Distribute the remainder to the largest fractional parts.
  std::vector<std::size_t> order(parts);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return fractional[a] != fractional[b] ? fractional[a] > fractional[b]
                                          : a < b;
  });
  std::size_t cursor = 0;
  while (assigned < total) {
    sizes[order[cursor % parts]] += 1;
    ++assigned;
    ++cursor;
  }
  while (assigned > total) {  // can happen when floors overshoot
    const std::size_t p = order[cursor % parts];
    if (sizes[p] > min_per_part) {
      sizes[p] -= 1;
      --assigned;
    }
    ++cursor;
  }
  std::vector<std::size_t> starts(parts + 1, 0);
  for (std::size_t p = 0; p < parts; ++p) starts[p + 1] = starts[p] + sizes[p];
  return starts;
}

}  // namespace

std::vector<std::size_t> build_partition(const PartitionSpec& spec) {
  if (spec.processors == 0)
    throw std::invalid_argument("build_partition: zero processors");
  if (!spec.speeds.empty() && spec.speeds.size() != spec.processors)
    throw std::invalid_argument(
        "build_partition: speeds size (" + std::to_string(spec.speeds.size()) +
        ") does not match processor count (" +
        std::to_string(spec.processors) + ")");
  // Validate speeds in every mode, not just kSpeedWeighted: a zero or
  // negative speed is a broken config either way (the even mode merely
  // ignores it today, but the model checker and callers treat speeds as a
  // description of the deployment and must be able to rely on it).
  for (double s : spec.speeds)
    if (!(s > 0.0))
      throw std::invalid_argument(
          "build_partition: processor speeds must be strictly positive");

  std::vector<std::size_t> starts;
  if (spec.mode == InitialPartition::kSpeedWeighted) {
    std::vector<double> speeds = spec.speeds;
    if (speeds.empty()) speeds.assign(spec.processors, 1.0);
    starts = speed_weighted_partition(spec.dimension, speeds,
                                      spec.min_per_part);
  } else {
    starts = ode::even_partition(spec.dimension, spec.processors);
  }

  for (std::size_t p = 0; p < spec.processors; ++p) {
    if (starts[p + 1] - starts[p] < spec.min_per_part)
      throw std::invalid_argument(
          "build_partition: partition leaves a processor with fewer than "
          "stencil+1 components; use fewer processors or a larger system");
  }
  return starts;
}

}  // namespace aiac::algo
