#include "algo/link_meter.hpp"

namespace aiac::algo {

LinkMeter::LinkMeter(
    std::size_t src, std::size_t dst,
    const std::optional<ode::BoundaryDeltaSender::Config>& delta) {
  if (delta) planner_.emplace(*delta);
  comms_.src = src;
  comms_.dst = dst;
}

std::size_t LinkMeter::charge(const ode::BoundaryMessage& msg) {
  std::size_t wire_bytes = msg.byte_size();
  if (planner_ && planner_->plan(msg, scratch_) ==
                      ode::BoundaryDeltaSender::Plan::kDelta) {
    wire_bytes = scratch_.byte_size();
    ++comms_.frames_delta;
  } else {
    ++comms_.frames_full;
  }
  ++comms_.frames_sent;
  comms_.bytes_sent += wire_bytes;
  return wire_bytes;
}

LinkMeters::LinkMeters(
    std::size_t processors,
    const std::optional<ode::BoundaryDeltaSender::Config>& delta)
    : processors_(processors) {
  meters_.reserve(2 * processors);
  for (std::size_t p = 0; p < processors; ++p) {
    // An edge rank's outward meter is never charged; it points at itself.
    meters_.emplace_back(p, p > 0 ? p - 1 : p, delta);
    meters_.emplace_back(p, p + 1 < processors ? p + 1 : p, delta);
  }
}

std::size_t LinkMeters::frames_sent() const noexcept {
  std::size_t total = 0;
  for (const LinkMeter& meter : meters_) total += meter.comms().frames_sent;
  return total;
}

std::size_t LinkMeters::bytes_sent() const noexcept {
  std::size_t total = 0;
  for (const LinkMeter& meter : meters_) total += meter.comms().bytes_sent;
  return total;
}

void LinkMeters::record(trace::ExecutionTrace& trace) const {
  for (std::size_t p = 0; p < processors_; ++p) {
    for (const Side side : {Side::kLeft, Side::kRight}) {
      const bool to_left = side == Side::kLeft;
      if (to_left ? p == 0 : p + 1 == processors_) continue;
      const LinkMeter& meter = toward(p, side);
      if (meter.comms().frames_sent == 0) continue;
      trace::CommsRecord record = meter.comms();
      record.rows_suppressed = meter.rows_suppressed();
      record.bytes_received =
          toward(to_left ? p - 1 : p + 1, opposite(side)).comms().bytes_sent;
      trace.record_comms(record);
    }
  }
}

}  // namespace aiac::algo
