// Delta encoding for boundary (ghost) messages.
//
// Near convergence almost every boundary send repeats the previous one to
// within the receive filter, yet the full frame still carries
// stencil * (num_steps + 1) doubles. A BoundaryDeltaMessage instead
// carries only the rows that moved beyond a threshold since the last full
// frame (the *baseline*), identified by row index. The receiver patches
// those rows into the persistent inbox copy of the baseline in place, so
// a quiet link costs a fixed ~72 wire bytes per send instead of the full
// row payload.
//
// Correctness model (DESIGN.md §14):
//  * Deltas are cumulative against the last full frame, never against an
//    earlier delta: once a row has been included in any delta since the
//    baseline it stays included (the dirty set) until the next full
//    refresh. A row absent from a delta therefore still holds its
//    baseline value at the receiver, and the sender guarantees that value
//    is within `threshold` of the truth — the receiver's ghost error is
//    bounded by `threshold`, the same bound the receive filter already
//    imposes on accepted updates.
//  * Every delta names its baseline by the baseline's sender-iteration
//    stamp (the epoch). The receiver applies a delta only when the epoch
//    matches the last full frame it ingested on that link; a mismatch
//    (possible only across a dying link) drops the delta harmlessly and
//    the sender's periodic forced full refresh resynchronizes.
//  * Shape changes (migration moved the boundary) and the refresh period
//    force a full frame, which rebases both ends.
//
// The planner lives here — not in net/ — because the sim and thread
// engines run the identical planner per link to account the same
// bytes-on-wire metric the socket backend actually pays, keeping
// cross-engine byte accounting comparable while delivering full-precision
// values in memory.
#pragma once

#include <cstddef>
#include <vector>

#include "ode/waveform_block.hpp"

namespace aiac::ode {

/// Forced full refresh after this many consecutive delta sends per link,
/// bounding how long an epoch-desynced receiver can stay stale. The one
/// period every backend runs with.
inline constexpr std::size_t kDeltaRefreshPeriod = 32;

/// The wire form of a thinned boundary update: shape and piggybacked
/// metadata as in BoundaryMessage, plus the changed rows by index.
struct BoundaryDeltaMessage {
  std::size_t global_first = 0;  // shape of the *full* message this thins
  std::size_t row_count = 0;
  std::size_t points = 0;
  std::size_t sender_iteration = 0;
  std::size_t sender_components = 0;
  double sender_residual = 0.0;
  double sender_load = 0.0;
  /// Sender-iteration stamp of the full frame this delta patches.
  std::size_t base_epoch = 0;
  /// Ascending, unique indices < row_count of the rows carried in `rows`.
  std::vector<std::size_t> row_indices;
  /// row_indices.size() * points values, packed row-major.
  std::vector<double> rows;

  /// Wire payload size (matches encode_boundary_delta's layout), and the
  /// size the virtual-time engines charge for an equivalent send.
  std::size_t byte_size() const noexcept {
    return 9 * sizeof(std::size_t) + row_indices.size() * sizeof(std::size_t) +
           rows.size() * sizeof(double);
  }
};

/// Per-directed-link sender state: decides full vs delta for each
/// outgoing boundary message and builds the delta when one suffices.
class BoundaryDeltaSender {
 public:
  struct Config {
    /// A row is carried in a delta once any of its values moved more than
    /// this from the baseline (absolute). Engines default it to the
    /// receive filter (tolerance * receive_filter_factor) so thinning
    /// introduces no error class the filter does not already tolerate.
    double threshold = 0.0;
    /// Forced full refresh after this many consecutive delta sends, so an
    /// epoch-mismatched receiver is never stale for unbounded time.
    std::size_t refresh_period = kDeltaRefreshPeriod;
  };

  BoundaryDeltaSender() = default;
  explicit BoundaryDeltaSender(const Config& config) : config_(config) {}

  enum class Plan { kFull, kDelta };

  /// Decides how to send `full`. kFull: the caller transmits `full`
  /// unchanged and this state rebases on it. kDelta: `delta` has been
  /// filled (reusing its buffers) and the caller transmits it instead.
  /// `force_full` lets the caller demand a rebase (e.g. the transport
  /// still holds an unsent full frame for this link). Also rebases when
  /// the delta would be at least as large on the wire as the full frame
  /// (busy links pay no delta overhead, and the cleared dirty set lets
  /// the link thin again the moment rows quiesce).
  Plan plan(const BoundaryMessage& full, BoundaryDeltaMessage& delta,
            bool force_full = false);

  /// Rows omitted from delta sends so far (the thinning win).
  std::size_t rows_suppressed() const noexcept { return rows_suppressed_; }
  /// Full / delta frames planned so far.
  std::size_t full_frames() const noexcept { return full_frames_; }
  std::size_t delta_frames() const noexcept { return delta_frames_; }

 private:
  bool shape_matches(const BoundaryMessage& full) const noexcept;
  void rebase(const BoundaryMessage& full);

  Config config_;
  bool has_baseline_ = false;
  std::size_t base_global_first_ = 0;
  std::size_t base_row_count_ = 0;
  std::size_t base_points_ = 0;
  std::size_t base_epoch_ = 0;           // baseline's sender_iteration
  std::vector<double> baseline_;         // row_count * points
  std::vector<bool> dirty_;              // per row, since last rebase
  std::size_t sends_since_full_ = 0;
  std::size_t rows_suppressed_ = 0;
  std::size_t full_frames_ = 0;
  std::size_t delta_frames_ = 0;
};

/// Receiver side: patches `inbox` — which must hold the baseline full
/// message (or that baseline already patched by earlier deltas of the
/// same epoch) — with `delta`, in place. `inbox_epoch` is the
/// sender-iteration stamp of the last full frame ingested on the link.
/// Returns false (inbox untouched) when the epoch or shape disagrees or
/// the delta's indices are malformed.
bool apply_boundary_delta(const BoundaryDeltaMessage& delta,
                          std::size_t inbox_epoch, BoundaryMessage& inbox);

}  // namespace aiac::ode
