#include "ode/boundary_delta.hpp"

#include <cmath>

namespace aiac::ode {

bool BoundaryDeltaSender::shape_matches(
    const BoundaryMessage& full) const noexcept {
  return full.global_first == base_global_first_ &&
         full.row_count == base_row_count_ && full.points == base_points_;
}

void BoundaryDeltaSender::rebase(const BoundaryMessage& full) {
  has_baseline_ = true;
  base_global_first_ = full.global_first;
  base_row_count_ = full.row_count;
  base_points_ = full.points;
  base_epoch_ = full.sender_iteration;
  baseline_ = full.rows;  // copy-assign: capacity reused after warm-up
  dirty_.assign(full.row_count, false);
  sends_since_full_ = 0;
}

BoundaryDeltaSender::Plan BoundaryDeltaSender::plan(
    const BoundaryMessage& full, BoundaryDeltaMessage& delta,
    bool force_full) {
  if (force_full || !has_baseline_ || !shape_matches(full) ||
      sends_since_full_ >= config_.refresh_period ||
      full.rows.size() != baseline_.size()) {
    rebase(full);
    ++full_frames_;
    return Plan::kFull;
  }

  delta.global_first = full.global_first;
  delta.row_count = full.row_count;
  delta.points = full.points;
  delta.sender_iteration = full.sender_iteration;
  delta.sender_components = full.sender_components;
  delta.sender_residual = full.sender_residual;
  delta.sender_load = full.sender_load;
  // Ever-dirty classification against the baseline: a row that moved
  // once stays carried until the next rebase, so deltas are cumulative
  // and a receiver that missed one still syncs on the next.
  std::size_t dirty_rows = 0;
  for (std::size_t row = 0; row < full.row_count; ++row) {
    const std::size_t at = row * full.points;
    if (!dirty_[row]) {
      for (std::size_t i = 0; i < full.points; ++i) {
        if (std::abs(full.rows[at + i] - baseline_[at + i]) >
            config_.threshold) {
          dirty_[row] = true;
          break;
        }
      }
    }
    if (dirty_[row]) ++dirty_rows;
  }

  // A delta carrying this many rows costs at least as much on the wire
  // as the full frame it would patch (the fixed delta header plus one
  // index per carried row outweigh the suppressed rows). Rebase instead:
  // cheaper now, and the cleared ever-dirty set lets the link thin again
  // as soon as rows quiesce.
  const std::size_t delta_bytes =
      9 * sizeof(std::size_t) +
      dirty_rows * (sizeof(std::size_t) + full.points * sizeof(double));
  if (delta_bytes >= full.byte_size()) {
    rebase(full);
    ++full_frames_;
    return Plan::kFull;
  }

  delta.base_epoch = base_epoch_;
  delta.row_indices.clear();
  delta.rows.clear();
  for (std::size_t row = 0; row < full.row_count; ++row) {
    if (dirty_[row]) {
      const double* values = full.rows.data() + row * full.points;
      delta.row_indices.push_back(row);
      delta.rows.insert(delta.rows.end(), values, values + full.points);
    } else {
      ++rows_suppressed_;
    }
  }
  ++sends_since_full_;
  ++delta_frames_;
  return Plan::kDelta;
}

bool apply_boundary_delta(const BoundaryDeltaMessage& delta,
                          std::size_t inbox_epoch, BoundaryMessage& inbox) {
  if (delta.base_epoch != inbox_epoch) return false;
  if (delta.global_first != inbox.global_first ||
      delta.row_count != inbox.row_count || delta.points != inbox.points)
    return false;
  if (inbox.rows.size() != inbox.row_count * inbox.points) return false;
  if (delta.rows.size() != delta.row_indices.size() * delta.points)
    return false;
  // Indices strictly ascending and in range — enforced here as well as at
  // decode so an in-process caller gets the same guarantee as the wire.
  for (std::size_t i = 0; i < delta.row_indices.size(); ++i) {
    if (delta.row_indices[i] >= delta.row_count) return false;
    if (i > 0 && delta.row_indices[i] <= delta.row_indices[i - 1])
      return false;
  }
  for (std::size_t i = 0; i < delta.row_indices.size(); ++i) {
    const std::size_t row = delta.row_indices[i];
    for (std::size_t k = 0; k < delta.points; ++k)
      inbox.rows[row * inbox.points + k] = delta.rows[i * delta.points + k];
  }
  inbox.sender_iteration = delta.sender_iteration;
  inbox.sender_components = delta.sender_components;
  inbox.sender_residual = delta.sender_residual;
  inbox.sender_load = delta.sender_load;
  return true;
}

}  // namespace aiac::ode
