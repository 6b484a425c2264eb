// Wire-equivalent byte accounting for the in-process drivers (DESIGN.md
// §14). The simulated and threaded backends deliver full-precision
// boundary messages, but charge each send the size a delta-capable socket
// link would have carried: one BoundaryDeltaSender per directed link —
// the same planner the socket backend runs — decides full vs delta, and
// the link's CommsRecord tallies the frames and bytes. Thinning here is a
// metric, never an approximation.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "algo/types.hpp"
#include "ode/boundary_delta.hpp"
#include "ode/waveform_block.hpp"
#include "trace/execution_trace.hpp"

namespace aiac::algo {

/// One directed link's planner and comms tally.
class LinkMeter {
 public:
  /// `delta` empty: every send is charged at full size.
  LinkMeter(std::size_t src, std::size_t dst,
            const std::optional<ode::BoundaryDeltaSender::Config>& delta);

  /// Charges one boundary send of `msg` and returns the bytes it costs on
  /// a delta-capable wire.
  std::size_t charge(const ode::BoundaryMessage& msg);

  const trace::CommsRecord& comms() const noexcept { return comms_; }
  std::size_t rows_suppressed() const noexcept {
    return planner_ ? planner_->rows_suppressed() : 0;
  }

 private:
  std::optional<ode::BoundaryDeltaSender> planner_;
  ode::BoundaryDeltaMessage scratch_;
  trace::CommsRecord comms_;
};

/// The meters of every directed neighbor link of a chain of ranks. Each
/// meter is touched only by its sending rank's context, so the threaded
/// driver's workers charge their own links without synchronization.
class LinkMeters {
 public:
  LinkMeters(std::size_t processors,
             const std::optional<ode::BoundaryDeltaSender::Config>& delta);

  LinkMeter& toward(std::size_t src, Side side) {
    return meters_[2 * src + (side == Side::kLeft ? 0 : 1)];
  }
  const LinkMeter& toward(std::size_t src, Side side) const {
    return meters_[2 * src + (side == Side::kLeft ? 0 : 1)];
  }

  /// Boundary frames and wire bytes charged over all links.
  std::size_t frames_sent() const noexcept;
  std::size_t bytes_sent() const noexcept;

  /// Records every link that carried a frame, in rank order (toward the
  /// left, then the right), with rows_suppressed from its planner and
  /// bytes_received from the opposite direction's tally.
  void record(trace::ExecutionTrace& trace) const;

 private:
  std::size_t processors_;
  std::vector<LinkMeter> meters_;  // [2 * src] leftward, [2 * src + 1] rightward
};

}  // namespace aiac::algo
