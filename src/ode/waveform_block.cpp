#include "ode/waveform_block.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/worker_pool.hpp"

namespace aiac::ode {

WaveformBlock::WaveformBlock(const OdeSystem& system,
                             const WaveformBlockConfig& config)
    : system_(&system),
      stencil_(system.stencil_halfwidth()),
      first_(config.first),
      count_(config.count),
      num_steps_(config.num_steps),
      dt_(config.t_end / static_cast<double>(config.num_steps)),
      mode_(config.mode),
      newton_(config.newton),
      receive_filter_(config.receive_filter),
      intra_chunks_(config.intra_chunks < 1 ? 1 : config.intra_chunks) {
  if (config.num_steps == 0)
    throw std::invalid_argument("WaveformBlock: num_steps == 0");
  if (count_ < stencil_)
    throw std::invalid_argument(
        "WaveformBlock: a block must own at least stencil_halfwidth() "
        "components");
  if (first_ + count_ > system.dimension())
    throw std::invalid_argument("WaveformBlock: range exceeds dimension");

  old_ = Trajectory(extended_rows(), num_steps_);
  // Waveform-relaxation start: every trajectory constant at y(0).
  std::vector<double> y0(system.dimension());
  system.initial_state(y0);
  for (std::size_t row = 0; row < extended_rows(); ++row) {
    const std::ptrdiff_t global = static_cast<std::ptrdiff_t>(first_ + row) -
                                  static_cast<std::ptrdiff_t>(stencil_);
    if (global < 0 || global >= static_cast<std::ptrdiff_t>(y0.size())) {
      continue;  // out-of-domain ghost row, never read
    }
    const double value = y0[static_cast<std::size_t>(global)];
    auto r = old_.row(row);
    std::fill(r.begin(), r.end(), value);
  }
  new_ = old_;
}

void WaveformBlock::invalidate_fast_path() {
  fast_path_valid_ = false;
  std::fill(step_solved_.begin(), step_solved_.end(),
            static_cast<std::uint8_t>(0));
  // Migration changes the block under the solver: drop any chord-Newton
  // factorization held for the old shape/partition. (The solver would
  // also notice the size change itself; invalidating here keeps the
  // contract local.)
  for (ChunkState& cs : chunks_) cs.ws.invalidate_jacobian();
}

void WaveformBlock::refresh_ghost_snapshot() {
  if (ghost_snapshot_.components() != 2 * stencil_ ||
      ghost_snapshot_.num_steps() != num_steps_)
    ghost_snapshot_ = Trajectory(2 * stencil_, num_steps_);
  for (std::size_t g = 0; g < stencil_; ++g) {
    auto left = old_.row(g);
    auto right = old_.row(stencil_ + count_ + g);
    auto snap_left = ghost_snapshot_.row(g);
    auto snap_right = ghost_snapshot_.row(stencil_ + g);
    std::copy(left.begin(), left.end(), snap_left.begin());
    std::copy(right.begin(), right.end(), snap_right.begin());
  }
  fast_path_valid_ = true;
}

bool WaveformBlock::chunk_inputs_quiet(std::size_t lo, std::size_t hi,
                                       std::size_t step) const {
  const std::size_t pts = num_steps_ + 1;
  // Left inputs: the outer ghost side if the chunk's window reaches it
  // (compared whole-side against the snapshot — conservative when the
  // chunk straddles the boundary, never unsound), plus any owned
  // neighbor-chunk rows in [lo - s, lo).
  if (lo < stencil_) {
    for (std::size_t g = 0; g < stencil_; ++g)
      if (old_.at(g, step) != ghost_snapshot_.at(g, step)) return false;
  }
  for (std::size_t r = lo >= stencil_ ? lo - stencil_ : 0; r < lo; ++r)
    if (row_changed_prev_[r * pts + step]) return false;
  // Right inputs, symmetrically.
  if (hi + stencil_ > count_) {
    for (std::size_t g = 0; g < stencil_; ++g)
      if (old_.at(stencil_ + count_ + g, step) !=
          ghost_snapshot_.at(stencil_ + g, step))
        return false;
  }
  const std::size_t right_end = hi + stencil_ < count_ ? hi + stencil_ : count_;
  for (std::size_t r = hi; r < right_end; ++r)
    if (row_changed_prev_[r * pts + step]) return false;
  return true;
}

void WaveformBlock::prepare_sweep() {
  const std::size_t k = chunk_count();
  const std::size_t pts = num_steps_ + 1;
  if (chunks_.size() != k) {
    chunks_.resize(k);  // cold: first iterate or count() shrank below k
    fast_path_valid_ = false;
  }
  chunks_in_use_ = k;
  if (step_solved_.size() != k * pts) {
    step_solved_.assign(k * pts, 0);
    fast_path_valid_ = false;
  }
  // Fixed partition derived from (count, k) alone: an even split with the
  // remainder spread over the leading chunks. Serial and pooled runs see
  // the same boundaries, which is half of the bitwise-parity argument
  // (the other half is the chunk-ordered reduction in iterate()).
  const std::size_t base = count_ / k;
  const std::size_t extra = count_ % k;
  std::size_t lo = 0;
  for (std::size_t c = 0; c < k; ++c) {
    ChunkState& cs = chunks_[c];
    const std::size_t len = base + (c < extra ? 1 : 0);
    cs.index = c;
    cs.lo = lo;
    cs.hi = lo + len;
    cs.check_units = 0;
    cs.iter_units = 0;
    cs.skip_steps = 0;
    cs.residual = 0.0;
    cs.newton_iterations = 0;
    cs.all_converged = true;
    cs.wrote = false;
    cs.error = nullptr;
    lo += len;
  }
  if (mode_ == LocalSolveMode::kBlockNewton) {
    if (row_changed_prev_.size() != count_ * pts) {
      row_changed_prev_.assign(count_ * pts, 0);
      fast_path_valid_ = false;
    }
    if (row_changed_cur_.size() != count_ * pts)
      row_changed_cur_.assign(count_ * pts, 0);
    else
      std::fill(row_changed_cur_.begin(), row_changed_cur_.end(),
                static_cast<std::uint8_t>(0));
  }
}

WaveformBlock::IterationStats WaveformBlock::iterate() {
  prepare_sweep();
  const bool block_mode = mode_ == LocalSolveMode::kBlockNewton;
  // Each chunk task sweeps its whole time window in one go: it reads its
  // own new_ rows (step - 1), old_ (frozen during the sweep), and the
  // shared fast-path flags (read-only during the sweep); it writes its
  // own new_ rows, its own row_changed_cur_ entries, and its ChunkState.
  // All writes are disjoint across chunks, so no synchronization beyond
  // the pool's own join is needed, and the result cannot depend on
  // scheduling.
  auto run_one = [this, block_mode](std::size_t c) {
    ChunkState& cs = chunks_[c];
    try {
      if (block_mode)
        sweep_chunk_block(cs);
      else
        sweep_chunk_scalar(cs);
    } catch (...) {
      cs.error = std::current_exception();
    }
  };
  if (pool_ != nullptr && chunks_in_use_ > 1) {
    pool_->run_tasks(chunks_in_use_, run_one);
  } else {
    for (std::size_t c = 0; c < chunks_in_use_; ++c) run_one(c);
  }

  // Failure path (cold): restore the owned-rows invariant new_ == old_
  // that partial chunk writes may have broken, drop the fast path, and
  // rethrow the first error in chunk order (deterministic).
  bool failed = false;
  for (std::size_t c = 0; c < chunks_in_use_; ++c)
    if (chunks_[c].error) failed = true;
  if (failed) {
    for (std::size_t c = 0; c < chunks_in_use_; ++c) {
      const ChunkState& cs = chunks_[c];
      if (!cs.wrote) continue;
      for (std::size_t r = cs.lo; r < cs.hi; ++r) {
        auto src = old_.row(stencil_ + r);
        auto dst = new_.row(stencil_ + r);
        std::copy(src.begin(), src.end(), dst.begin());
      }
    }
    invalidate_fast_path();
    for (std::size_t c = 0; c < chunks_in_use_; ++c) {
      if (chunks_[c].error) {
        std::exception_ptr error = chunks_[c].error;
        chunks_[c].error = nullptr;
        std::rethrow_exception(error);
      }
    }
  }

  // Deterministic reduction in chunk order: integer sums and the max are
  // folded left-to-right over chunk index, never in completion order.
  // The work figure is computed once from the exact integer counters, so
  // it is not only schedule-independent but chunk-count-independent —
  // per-chunk double partial sums of the cost constants would not be.
  IterationStats stats;
  std::size_t check_units = 0;
  std::size_t iter_units = 0;
  std::size_t skip_steps = 0;
  for (std::size_t c = 0; c < chunks_in_use_; ++c) {
    const ChunkState& cs = chunks_[c];
    check_units += cs.check_units;
    iter_units += cs.iter_units;
    skip_steps += cs.skip_steps;
    stats.newton_iterations += cs.newton_iterations;
    stats.all_converged &= cs.all_converged;
    if (cs.residual > stats.residual) stats.residual = cs.residual;
  }
  stats.work = newton_.check_cost * static_cast<double>(check_units) +
               static_cast<double>(iter_units) +
               newton_.step_skip_cost * static_cast<double>(skip_steps);
  last_residual_ = stats.residual;

  if (block_mode) {
    refresh_ghost_snapshot();
    std::swap(row_changed_prev_, row_changed_cur_);
  }

  // "Copy Ynew in Yold" — but only chunks that executed at least one
  // step wrote anything; a fully skipped chunk's new_ rows already equal
  // old_'s by the invariant, so the converged steady state copies
  // nothing. Ghost rows of Yold are updated by the receive handlers.
  for (std::size_t c = 0; c < chunks_in_use_; ++c) {
    const ChunkState& cs = chunks_[c];
    if (!cs.wrote) continue;
    for (std::size_t r = cs.lo; r < cs.hi; ++r) {
      auto src = new_.row(stencil_ + r);
      auto dst = old_.row(stencil_ + r);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
  return stats;
}

void WaveformBlock::sweep_chunk_block(ChunkState& cs) {
  const std::size_t nb = cs.hi - cs.lo;
  const std::size_t pts = num_steps_ + 1;
  // Staging buffers: no-ops once sized (resize only after migration).
  if (cs.y_prev.size() != nb) cs.y_prev.resize(nb);
  if (cs.y_next.size() != nb) cs.y_next.resize(nb);
  if (cs.ghost_left.size() != stencil_) cs.ghost_left.resize(stencil_);
  if (cs.ghost_right.size() != stencil_) cs.ghost_right.resize(stencil_);
  // The chunk solves global components [first_ + lo, first_ + hi) as its
  // own little block; rows of neighboring chunks enter through the ghost
  // spans exactly like a neighboring processor's rows would, read from
  // the frozen old_ iterate (block-Jacobi at chunk granularity).
  const std::size_t chunk_first = first_ + cs.lo;
  std::uint8_t* const solved = step_solved_.data() + cs.index * pts;
  // Tracks whether the previous time step's output differs from the
  // previous outer iterate (the input cascade of the fast path). Only
  // this chunk's own rows feed y_prev, so the cascade is chunk-local.
  bool prev_step_changed = false;
  for (std::size_t step = 1; step <= num_steps_; ++step) {
    if (fast_path_valid_ && !prev_step_changed && solved[step] != 0 &&
        chunk_inputs_quiet(cs.lo, cs.hi, step)) {
      // Inputs bitwise identical to the previous iterate and that iterate
      // solved this step to tolerance: the solution is unchanged — and by
      // the owned-rows invariant new_ already holds it. No copy.
      cs.skip_steps += 1;
      continue;
    }
    const double t_next = dt_ * static_cast<double>(step);
    for (std::size_t r = 0; r < nb; ++r) {
      cs.y_prev[r] = new_.at(stencil_ + cs.lo + r, step - 1);
      // Warm start: old iterate.
      cs.y_next[r] = old_.at(stencil_ + cs.lo + r, step);
    }
    for (std::size_t g = 0; g < stencil_; ++g) {
      // Extended rows [lo - s, lo) and [hi, hi + s): for the leftmost /
      // rightmost chunk these are the processor's ghost rows, otherwise
      // the neighboring chunk's rows in old_.
      cs.ghost_left[g] = old_.at(cs.lo + g, step);
      cs.ghost_right[g] = old_.at(stencil_ + cs.hi + g, step);
    }
    const BlockSolveResult solve = block_implicit_euler_step(
        *system_, chunk_first, cs.y_prev, cs.y_next, cs.ghost_left,
        cs.ghost_right, t_next, dt_, newton_, cs.ws);
    cs.newton_iterations += solve.newton_iterations;
    cs.check_units += nb;
    cs.iter_units += solve.newton_iterations * nb;
    cs.all_converged &= solve.converged;
    solved[step] = solve.converged ? 1 : 0;
    cs.wrote = true;
    bool changed = false;
    for (std::size_t r = 0; r < nb; ++r) {
      const double prev = old_.at(stencil_ + cs.lo + r, step);
      const double next = cs.y_next[r];
      new_.at(stencil_ + cs.lo + r, step) = next;
      if (next != prev) {
        changed = true;
        row_changed_cur_[(cs.lo + r) * pts + step] = 1;
      }
      const double diff = std::abs(next - prev);
      if (diff > cs.residual) cs.residual = diff;
    }
    prev_step_changed = changed;
  }
}

void WaveformBlock::sweep_chunk_scalar(ChunkState& cs) {
  const std::size_t nb = cs.hi - cs.lo;
  const std::size_t w = 2 * stencil_ + 1;
  // Staging buffers: no-ops once sized (resize only after migration).
  if (cs.y_prev.size() != nb) cs.y_prev.resize(nb);
  if (cs.column.size() != nb + 2 * stencil_)
    cs.column.resize(nb + 2 * stencil_);
  if (cs.window.size() != nb * w) cs.window.resize(nb * w);
  if (cs.results.size() != nb) cs.results.resize(nb);
  if (cs.components.size() != nb) cs.components.resize(nb);
  for (std::size_t r = 0; r < nb; ++r) cs.components[r] = first_ + cs.lo + r;
  // Time outer, rows inner: the transpose of Algorithm 1's component-outer
  // loop, with the same values. Every neighbour (local ones included) is
  // read from frozen Yold and y_prev is the row's own previous step, which
  // the previous step's batch wrote; so the rows of a step are
  // independent, each row sees exactly the inputs Algorithm 1 gives it,
  // and any chunking is bitwise-invariant too.
  // Set before the first write, so that if a solve throws mid-sweep the
  // failure path in iterate() restores the rows already written.
  cs.wrote = nb > 0;
  for (std::size_t step = 1; step <= num_steps_; ++step) {
    const double t_next = dt_ * static_cast<double>(step);
    // Extended rows [lo, hi + 2s) of Yold at this step; the window of
    // owned row r is column[r .. r + 2s].
    for (std::size_t m = 0; m < cs.column.size(); ++m)
      cs.column[m] = old_.at(cs.lo + m, step);
    for (std::size_t r = 0; r < nb; ++r) {
      for (std::size_t slot = 0; slot < w; ++slot)
        cs.window[r * w + slot] = cs.column[r + slot];
      cs.y_prev[r] = new_.at(stencil_ + cs.lo + r, step - 1);
    }
    scalar_implicit_euler_solve_batch(*system_, cs.components, cs.y_prev,
                                      cs.window, t_next, dt_, newton_, cs.ws,
                                      cs.results);
    for (std::size_t r = 0; r < nb; ++r) {
      const ScalarSolveResult& solve = cs.results[r];
      const double prev = cs.column[stencil_ + r];
      new_.at(stencil_ + cs.lo + r, step) = solve.value;
      const double diff = std::abs(solve.value - prev);
      if (diff > cs.residual) cs.residual = diff;
      cs.newton_iterations += solve.iterations;
      cs.check_units += 1;
      cs.iter_units += solve.iterations;
      cs.all_converged &= solve.converged;
    }
  }
}

void WaveformBlock::boundary_for_left(BoundaryMessage& msg) const {
  msg.global_first = first_;
  msg.row_count = stencil_;
  msg.points = num_steps_ + 1;
  msg.sender_residual = last_residual_;
  // resize() reuses capacity: allocation-free with a recycled message.
  msg.rows.resize(stencil_ * msg.points);
  // Rows are the first `stencil` owned components.
  old_.copy_rows_into(stencil_, stencil_, msg.rows);
}

BoundaryMessage WaveformBlock::boundary_for_left() const {
  BoundaryMessage msg;
  boundary_for_left(msg);
  return msg;
}

void WaveformBlock::boundary_for_right(BoundaryMessage& msg) const {
  msg.global_first = first_ + count_ - stencil_;
  msg.row_count = stencil_;
  msg.points = num_steps_ + 1;
  msg.sender_residual = last_residual_;
  msg.rows.resize(stencil_ * msg.points);
  // Rows are the last `stencil` owned components,
  // [first+count-s, first+count) — extended rows [count, count+s).
  old_.copy_rows_into(count_, stencil_, msg.rows);
}

BoundaryMessage WaveformBlock::boundary_for_right() const {
  BoundaryMessage msg;
  boundary_for_right(msg);
  return msg;
}

bool WaveformBlock::accept_left_ghosts(const BoundaryMessage& msg) {
  // The needed left ghosts are components [first - s, first).
  if (first_ < stencil_) return false;  // at/near the domain boundary
  if (msg.global_first != first_ - stencil_ || msg.row_count != stencil_ ||
      msg.points != num_steps_ + 1)
    return false;
  if (update_is_insignificant(msg, /*left=*/true)) return false;
  for (std::size_t g = 0; g < stencil_; ++g) {
    auto dst = old_.row(g);
    const double* src = msg.rows.data() + g * msg.points;
    std::copy(src, src + msg.points, dst.begin());
  }
  return true;
}

bool WaveformBlock::update_is_insignificant(const BoundaryMessage& msg,
                                            bool left) const {
  if (receive_filter_ <= 0.0) return false;
  for (std::size_t g = 0; g < stencil_; ++g) {
    auto stored = old_.row(left ? g : stencil_ + count_ + g);
    const double* incoming = msg.rows.data() + g * msg.points;
    for (std::size_t t = 0; t < msg.points; ++t)
      if (std::abs(stored[t] - incoming[t]) > receive_filter_) return false;
  }
  return true;
}

double WaveformBlock::ghost_update_disturbance(const BoundaryMessage& msg,
                                               bool left) const {
  // Mirror the accept_*_ghosts position/shape checks: a message they
  // would reject never reaches the ghost rows, so it disturbs nothing.
  if (left) {
    if (first_ < stencil_ || msg.global_first != first_ - stencil_)
      return 0.0;
  } else {
    if (at_right_boundary() || msg.global_first != first_ + count_)
      return 0.0;
  }
  if (msg.row_count != stencil_ || msg.points != num_steps_ + 1) return 0.0;
  double disturbance = 0.0;
  for (std::size_t g = 0; g < stencil_; ++g) {
    auto stored = old_.row(left ? g : stencil_ + count_ + g);
    const double* incoming = msg.rows.data() + g * msg.points;
    for (std::size_t t = 0; t < msg.points; ++t)
      disturbance =
          std::max(disturbance, std::abs(stored[t] - incoming[t]));
  }
  return disturbance;
}

bool WaveformBlock::accept_right_ghosts(const BoundaryMessage& msg) {
  if (at_right_boundary()) return false;  // no right neighbor exists
  if (msg.global_first != first_ + count_ || msg.row_count != stencil_ ||
      msg.points != num_steps_ + 1)
    return false;
  if (update_is_insignificant(msg, /*left=*/false)) return false;
  for (std::size_t g = 0; g < stencil_; ++g) {
    auto dst = old_.row(stencil_ + count_ + g);
    const double* src = msg.rows.data() + g * msg.points;
    std::copy(src, src + msg.points, dst.begin());
  }
  return true;
}

void WaveformBlock::extract_for_left(std::size_t k,
                                     MigrationPayload& payload) {
  invalidate_fast_path();
  if (k == 0 || k + stencil_ > count_)
    throw std::invalid_argument(
        "extract_for_left: must keep at least stencil components");
  payload.direction = MigrationPayload::Direction::kToLeft;
  payload.row_first = first_;
  payload.owned_count = k;
  payload.stencil = stencil_;
  payload.points = num_steps_ + 1;
  payload.rows.resize((k + stencil_) * payload.points);
  // Owned rows first, then the s dependency rows that stay owned here:
  // extended rows [stencil, stencil + k + s).
  old_.copy_rows_into(stencil_, k + stencil_, payload.rows);
  // Shrink: the new extended range starts k rows later.
  old_.remove_rows(0, k);
  new_.remove_rows(0, k);
  first_ += k;
  count_ -= k;
}

MigrationPayload WaveformBlock::extract_for_left(std::size_t k) {
  MigrationPayload payload;
  extract_for_left(k, payload);
  return payload;
}

void WaveformBlock::extract_for_right(std::size_t k,
                                      MigrationPayload& payload) {
  invalidate_fast_path();
  if (k == 0 || k + stencil_ > count_)
    throw std::invalid_argument(
        "extract_for_right: must keep at least stencil components");
  payload.direction = MigrationPayload::Direction::kToRight;
  payload.row_first = first_ + count_ - k - stencil_;
  payload.owned_count = k;
  payload.stencil = stencil_;
  payload.points = num_steps_ + 1;
  payload.rows.resize((k + stencil_) * payload.points);
  // Dependency rows first (they stay owned here), then the owned rows:
  // extended rows [count - k, count + s).
  old_.copy_rows_into(count_ - k, k + stencil_, payload.rows);
  const std::size_t total = extended_rows();
  old_.remove_rows(total - k, k);
  new_.remove_rows(total - k, k);
  count_ -= k;
}

MigrationPayload WaveformBlock::extract_for_right(std::size_t k) {
  MigrationPayload payload;
  extract_for_right(k, payload);
  return payload;
}

void WaveformBlock::absorb_from_left(const MigrationPayload& payload) {
  invalidate_fast_path();
  if (payload.direction != MigrationPayload::Direction::kToRight)
    throw std::logic_error("absorb_from_left: wrong payload direction");
  if (payload.points != num_steps_ + 1 || payload.stencil != stencil_)
    throw std::logic_error("absorb_from_left: shape mismatch");
  const std::size_t k = payload.owned_count;
  if (payload.row_first + stencil_ + k != first_)
    throw std::logic_error("absorb_from_left: payload not adjacent");
  // Replace our left ghost rows with the payload (which contains fresher
  // copies of them plus the new owned rows).
  old_.extract_rows(0, stencil_);
  new_.extract_rows(0, stencil_);
  old_.insert_rows(0, k + stencil_, payload.rows);
  new_.insert_rows(0, k + stencil_, payload.rows);
  first_ -= k;
  count_ += k;
}

void WaveformBlock::absorb_from_right(const MigrationPayload& payload) {
  invalidate_fast_path();
  if (payload.direction != MigrationPayload::Direction::kToLeft)
    throw std::logic_error("absorb_from_right: wrong payload direction");
  if (payload.points != num_steps_ + 1 || payload.stencil != stencil_)
    throw std::logic_error("absorb_from_right: shape mismatch");
  const std::size_t k = payload.owned_count;
  if (payload.row_first != first_ + count_)
    throw std::logic_error("absorb_from_right: payload not adjacent");
  const std::size_t total = extended_rows();
  old_.extract_rows(total - stencil_, stencil_);
  new_.extract_rows(total - stencil_, stencil_);
  old_.insert_rows(old_.components(), k + stencil_, payload.rows);
  new_.insert_rows(new_.components(), k + stencil_, payload.rows);
  count_ += k;
}

double WaveformBlock::interface_gap_with_right(
    const WaveformBlock& right_neighbor) const {
  if (right_neighbor.first_ != first_ + count_)
    throw std::logic_error("interface_gap_with_right: blocks not adjacent");
  if (right_neighbor.num_steps_ != num_steps_ ||
      right_neighbor.stencil_ != stencil_)
    throw std::logic_error("interface_gap_with_right: shape mismatch");
  double gap = 0.0;
  for (std::size_t g = 0; g < stencil_; ++g) {
    // My right-ghost view of the neighbor's first owned components.
    auto mine = old_.row(stencil_ + count_ + g);
    auto theirs = right_neighbor.old_.row(right_neighbor.stencil_ + g);
    for (std::size_t t = 0; t <= num_steps_; ++t)
      gap = std::max(gap, std::abs(mine[t] - theirs[t]));
    // The neighbor's left-ghost view of my last owned components.
    auto their_ghost = right_neighbor.old_.row(g);
    auto my_boundary = old_.row(count_ + g);
    for (std::size_t t = 0; t <= num_steps_; ++t)
      gap = std::max(gap, std::abs(their_ghost[t] - my_boundary[t]));
  }
  return gap;
}

void WaveformBlock::copy_local_into(Trajectory& global) const {
  if (global.num_steps() != num_steps_)
    throw std::invalid_argument("copy_local_into: step count mismatch");
  for (std::size_t r = 0; r < count_; ++r) {
    auto src = old_.row(stencil_ + r);
    auto dst = global.row(first_ + r);
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

std::span<const double> WaveformBlock::owned_row(
    std::size_t local_index) const {
  if (local_index >= count_)
    throw std::out_of_range("WaveformBlock::owned_row");
  return old_.row(stencil_ + local_index);
}

}  // namespace aiac::ode
