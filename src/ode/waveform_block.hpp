// A processor's local share of the waveform-relaxation iteration.
//
// This is the data structure of the paper's Algorithms 1-7: the arrays
// Yold/Ynew hold "the two last components from the left neighbor, the
// local components of the node and the two first components of the right
// neighbor" — here generalized to `s = stencil_halfwidth()` ghost rows per
// side, each row being a component's full time trajectory.
//
// One `iterate()` is one outer iteration: it recomputes the local
// components' trajectories over the whole time window using the neighbor
// ghost trajectories from the previous iterate, and reports the work
// consumed (Newton iterations) and the local residual max|Ynew - Yold| —
// the load estimator of the paper's balancing scheme.
//
// The migration protocol (paper Algorithm 5/6) is expressed as
// extract_for_left/right + absorb_from_left/right pairs operating on
// whole component rows plus the `s` extra dependency rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <stdexcept>
#include <vector>

#include "ode/newton.hpp"
#include "ode/ode_system.hpp"
#include "ode/trajectory.hpp"

namespace aiac::runtime {
class WorkerPool;
}

namespace aiac::ode {

/// Which reading of the paper's `Solve` to use (see newton.hpp).
enum class LocalSolveMode {
  kBlockNewton,   // banded Newton over the whole local block per time step
  kScalarJacobi,  // scalar Newton per component, all others frozen
};

struct WaveformBlockConfig {
  std::size_t first = 0;       // first owned global component
  std::size_t count = 0;       // owned component count
  std::size_t num_steps = 100; // time steps over [0, t_end]
  double t_end = 10.0;
  LocalSolveMode mode = LocalSolveMode::kBlockNewton;
  NewtonOptions newton = {};
  /// Receive-side significance filter (the "flexible communication" idea
  /// of Baz/Spiteri/Miellou, the paper's ref [4]): an incoming boundary
  /// update whose values all differ from the stored ghosts by at most
  /// this threshold is acknowledged but not stored. Because each message
  /// is compared against the *stored* values, total ghost staleness stays
  /// bounded by the threshold. Converged regions therefore reach an exact
  /// stall, where iterations cost nearly nothing (see the fast path).
  /// 0 disables the filter. Must be well below the outer tolerance.
  double receive_filter = 0.0;
  /// Number of contiguous row chunks the iterate is sharded into (the
  /// intra-processor parallelism axis, see DESIGN.md §13). This is a
  /// *numerics* parameter, not a thread count: chunk interfaces read the
  /// previous outer iterate (block-Jacobi at chunk granularity), so any
  /// value > 1 changes the per-iterate values in block mode (same fixed
  /// point; scalar mode is chunk-invariant). A given chunk count produces
  /// bitwise-identical results whether the chunks run serially or on a
  /// WorkerPool. Clamped to [1, count].
  std::size_t intra_chunks = 1;
};

/// Component rows in transit during a load-balancing migration.
struct MigrationPayload {
  enum class Direction { kToLeft, kToRight };
  Direction direction = Direction::kToLeft;
  std::size_t row_first = 0;    // global index of the first row included
  std::size_t owned_count = 0;  // rows changing ownership
  std::size_t stencil = 0;      // dependency rows included (per side: one)
  std::size_t points = 0;       // values per row (num_steps + 1)
  /// (owned_count + stencil) rows, packed row-major, in increasing global
  /// component order. For kToLeft the owned rows come first; for kToRight
  /// the dependency rows come first.
  std::vector<double> rows;

  std::size_t row_count() const noexcept { return owned_count + stencil; }
  /// Wire size charged by the virtual-time network model: every scalar
  /// field travels with the payload (row_first, owned_count, stencil,
  /// points, direction) plus the packed rows.
  std::size_t byte_size() const noexcept {
    return rows.size() * sizeof(double) + 4 * sizeof(std::size_t) +
           sizeof(Direction);
  }
};

/// Boundary (ghost) trajectories in transit, paper Algorithm 7: global
/// position accompanies the data so stale messages can be rejected while
/// arrays are being resized, and the sender's residual rides along as the
/// load estimate.
struct BoundaryMessage {
  std::size_t global_first = 0;  // global index of rows[0]
  std::size_t row_count = 0;
  std::size_t points = 0;
  double sender_residual = 0.0;
  // Piggybacked metadata filled by the engine, not by WaveformBlock:
  double sender_load = 0.0;          // load-estimator output of the sender
  std::size_t sender_iteration = 0;  // sender's completed iteration count
  std::size_t sender_components = 0; // sender's owned component count
  std::vector<double> rows;

  /// Wire size charged by the virtual-time network model. Counts every
  /// header field — including the piggybacked load metadata (sender_load,
  /// sender_iteration, sender_components), which earlier versions omitted,
  /// undercharging each boundary send by 2 size_t + 1 double.
  std::size_t byte_size() const noexcept {
    return rows.size() * sizeof(double) + 5 * sizeof(std::size_t) +
           2 * sizeof(double);
  }
};

class WaveformBlock {
 public:
  WaveformBlock(const OdeSystem& system, const WaveformBlockConfig& config);

  std::size_t first() const noexcept { return first_; }
  std::size_t count() const noexcept { return count_; }
  std::size_t stencil() const noexcept { return stencil_; }
  std::size_t num_steps() const noexcept { return num_steps_; }
  double dt() const noexcept { return dt_; }
  bool at_left_boundary() const noexcept { return first_ == 0; }
  bool at_right_boundary() const noexcept {
    return first_ + count_ == system_->dimension();
  }

  struct IterationStats {
    double work = 0.0;            // Newton-iteration work units consumed
    double residual = 0.0;        // max |Ynew - Yold| over owned rows
    std::size_t newton_iterations = 0;
    bool all_converged = true;    // every inner Newton solve converged
  };

  /// One outer iteration over the whole time window. With
  /// intra_chunks > 1 the owned rows are swept as independent chunk
  /// tasks; attach a runtime::WorkerPool via set_worker_pool() to run
  /// them on worker threads (results are bitwise identical either way).
  IterationStats iterate();

  /// Attaches (or detaches, with nullptr) the worker pool used to run
  /// chunk tasks. The block does not own the pool; the caller must keep
  /// it alive across iterate() calls. A block without a pool runs its
  /// chunks inline on the calling thread.
  void set_worker_pool(runtime::WorkerPool* pool) noexcept { pool_ = pool; }

  /// Configured chunk count (before clamping against count()).
  std::size_t intra_chunks() const noexcept { return intra_chunks_; }
  /// Chunk count the next iterate() will actually use.
  std::size_t chunk_count() const noexcept {
    return intra_chunks_ < 1 ? 1 : (intra_chunks_ > count_ ? count_
                                                           : intra_chunks_);
  }

  /// Residual of the most recent iterate() (0 before the first).
  double last_residual() const noexcept { return last_residual_; }

  /// Discards the incremental skip state so the next iterate() re-solves
  /// every step of every chunk (migrations and chunk-count changes do
  /// this implicitly). Results are unchanged — only work is; benchmarks
  /// and parity tests use it to time/compare full sweeps on a block that
  /// has already converged.
  void force_full_sweep() { invalidate_fast_path(); }

  /// Data this node must send to its neighbors after an iteration: its
  /// first (resp. last) `stencil` component trajectories.
  BoundaryMessage boundary_for_left() const;
  BoundaryMessage boundary_for_right() const;

  /// Fill-into variants: overwrite `msg` (header and rows) in place,
  /// reusing msg.rows' capacity. With a recycled message (see
  /// runtime::BufferPool) the per-iteration boundary send path performs
  /// zero allocations once warm. Piggybacked engine metadata (sender_load
  /// etc.) is left untouched for the engine to fill.
  void boundary_for_left(BoundaryMessage& msg) const;
  void boundary_for_right(BoundaryMessage& msg) const;

  /// Incorporates a neighbor's boundary data into Yold. Returns true only
  /// when the update was actually applied. It is not applied when (a) the
  /// global position does not match the ghost rows this node currently
  /// needs — the stale-message rejection of paper Algorithm 7 — or (b)
  /// the receive filter classified the update as insignificant.
  bool accept_left_ghosts(const BoundaryMessage& msg);
  bool accept_right_ghosts(const BoundaryMessage& msg);

  /// Max-norm difference between an undelivered boundary update and the
  /// ghost rows it would overwrite — what folding the message in would
  /// actually change. Messages accept_*_ghosts would reject (stale
  /// position, wrong shape) cannot change anything and report 0. A
  /// convergence detector uses this to distinguish harmless steady-state
  /// traffic (difference within tolerance) from an unprocessed update
  /// that would break local convergence.
  double ghost_update_disturbance(const BoundaryMessage& msg,
                                  bool left) const;

  /// Removes the leftmost (resp. rightmost) `k` owned components and
  /// packages them, with `stencil` dependency rows, for the neighbor.
  /// Requires 0 < k < count().
  MigrationPayload extract_for_left(std::size_t k);
  MigrationPayload extract_for_right(std::size_t k);

  /// Fill-into variants reusing payload.rows' capacity (see the
  /// BoundaryMessage counterparts).
  void extract_for_left(std::size_t k, MigrationPayload& payload);
  void extract_for_right(std::size_t k, MigrationPayload& payload);

  /// Absorbs a payload arriving from the right (direction kToLeft) /
  /// left (kToRight) neighbor. Throws std::logic_error if the payload is
  /// not adjacent to this node's range — the engine must deliver
  /// migrations in order.
  void absorb_from_right(const MigrationPayload& payload);
  void absorb_from_left(const MigrationPayload& payload);

  /// Max-norm gap across the shared interface with the adjacent right
  /// neighbor: compares this block's right-ghost view against the
  /// neighbor's actual boundary rows and vice versa. A convergence
  /// detector needs this to be small — local residuals alone are not
  /// sufficient for AIAC (a block whose ghosts stopped arriving reports a
  /// zero residual while holding stale data). Throws std::logic_error if
  /// the blocks are not adjacent.
  double interface_gap_with_right(const WaveformBlock& right_neighbor) const;

  /// Copies owned rows into a global trajectory (dimension x num_steps).
  void copy_local_into(Trajectory& global) const;

  /// Owned-row view of the current iterate (testing / inspection).
  std::span<const double> owned_row(std::size_t local_index) const;

 private:
  // Everything one chunk task needs, hoisted so a steady-state iterate()
  // performs zero heap allocations (the tentpole property the alloc-free
  // tests pin down): its own Newton workspace (the chord factorization
  // for its rows, invalidated by migrations), per-step staging buffers,
  // and the per-sweep outputs the caller reduces in chunk order after
  // the join. Tasks touch only their own ChunkState plus disjoint new_
  // rows, which is the whole data-race argument (DESIGN.md §13).
  struct ChunkState {
    std::size_t index = 0;
    std::size_t lo = 0;  // owned-local row range [lo, hi)
    std::size_t hi = 0;
    NewtonWorkspace ws;
    std::vector<double> y_prev;
    std::vector<double> y_next;
    std::vector<double> ghost_left;
    std::vector<double> ghost_right;
    // Scalar mode: one time step's batch (y_prev above is shared).
    std::vector<std::size_t> components;
    std::vector<double> column;  // Yold at the step, rows [lo, hi + 2s)
    std::vector<double> window;  // packed stencil windows
    std::vector<ScalarSolveResult> results;
    // Per-sweep outputs, reset by prepare_sweep(). Work is kept as exact
    // integer counters (check/iteration units and skipped steps) and
    // converted to the double work figure once during the reduction —
    // per-chunk floating-point partial sums of the non-representable
    // cost constants would make stats.work depend on the chunk count.
    std::size_t check_units = 0;
    std::size_t iter_units = 0;
    std::size_t skip_steps = 0;
    double residual = 0.0;
    std::size_t newton_iterations = 0;
    bool all_converged = true;
    bool wrote = false;
    std::exception_ptr error;
  };

  std::size_t extended_rows() const noexcept { return count_ + 2 * stencil_; }
  void invalidate_fast_path();
  void refresh_ghost_snapshot();
  bool update_is_insignificant(const BoundaryMessage& msg, bool left) const;
  void prepare_sweep();
  void sweep_chunk_block(ChunkState& cs);
  void sweep_chunk_scalar(ChunkState& cs);
  bool chunk_inputs_quiet(std::size_t lo, std::size_t hi,
                          std::size_t step) const;

  const OdeSystem* system_;
  std::size_t stencil_;
  std::size_t first_;
  std::size_t count_;
  std::size_t num_steps_;
  double dt_;
  LocalSolveMode mode_;
  NewtonOptions newton_;
  double receive_filter_ = 0.0;
  std::size_t intra_chunks_ = 1;
  double last_residual_ = 0.0;
  // Extended layout: rows for global components
  // [first_ - stencil_, first_ + count_ + stencil_), clamped semantics at
  // the domain boundary (ghost rows exist but are never read there).
  //
  // Invariant between iterations: owned rows of new_ are bitwise equal to
  // the owned rows of old_ (established by the constructor, maintained by
  // the post-sweep copy-back and by absorb/extract mutating both). It is
  // what lets a skipped chunk-step — and a chunk that skipped its whole
  // sweep — avoid copying anything at all.
  Trajectory old_;
  Trajectory new_;

  // Unchanged-inputs fast path (block mode only): a time step whose ghost
  // inputs are bitwise identical to what the previous outer iterate saw,
  // whose previous-step values did not change, and which was solved to
  // tolerance last time, is skipped at O(stencil) comparison cost. This
  // is what makes a fully converged block's iteration nearly free — the
  // workload-evolution effect the residual-driven balancing exploits.
  // For interior chunk borders the "ghost inputs" are neighbor-chunk rows
  // of old_; whether those moved in the previous sweep is tracked
  // row-granularly in the double-buffered row_changed_ arrays.
  Trajectory ghost_snapshot_;       // 2*stencil rows: left ghosts, right ghosts
  std::vector<std::uint8_t> step_solved_;  // [chunk * (num_steps+1) + step]
  std::vector<std::uint8_t> row_changed_prev_;  // [row * (num_steps+1) + step]
  std::vector<std::uint8_t> row_changed_cur_;
  bool fast_path_valid_ = false;

  runtime::WorkerPool* pool_ = nullptr;  // not owned; may be null
  std::vector<ChunkState> chunks_;
  std::size_t chunks_in_use_ = 0;
};

}  // namespace aiac::ode
