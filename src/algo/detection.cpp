#include "algo/detection.hpp"

#include <algorithm>
#include <cmath>

namespace aiac::algo {

DetectionProtocol::DetectionProtocol(DetectionMode mode,
                                     std::size_t processors,
                                     Transport& transport,
                                     DetectionDriver& driver)
    : mode_(mode),
      processors_(processors),
      transport_(&transport),
      driver_(&driver),
      reported_(processors, false),
      coordinator_view_(processors, false) {}

void DetectionProtocol::send(std::size_t src, std::size_t dst,
                             const ControlFrame& frame) {
  transport_->send_control(src, dst, frame);
}

void DetectionProtocol::on_iteration_end(std::size_t rank) {
  if (halting_ || mode_ != DetectionMode::kCoordinator) return;
  coordinator_report(rank);
}

void DetectionProtocol::handle_control(std::size_t at,
                                       const ControlFrame& frame) {
  switch (frame.kind) {
    case ControlFrame::Kind::kReport:
      if (halting_) return;
      coordinator_view_[frame.sender] = frame.flag;
      if (!frame.flag) {
        // A node left convergence: abort any in-flight verification.
        verifying_ = false;
        verify_rearm_ = false;
        ++verify_epoch_;
        return;
      }
      maybe_begin_verification();
      return;
    case ControlFrame::Kind::kHeartbeat:
      maybe_begin_verification();
      return;
    case ControlFrame::Kind::kVerifyRequest: {
      if (halting_) return;
      // A stale request (the round it belongs to was aborted) is dropped
      // early where the current epoch is known: in any instance that has
      // opened a verification round — the shared instance, or rank 0's own
      // when each process runs one. A remote rank's instance never opens
      // one, so it acks anyway and rank 0 discards the stale ack on
      // arrival.
      if (verify_epoch_ != 0 && frame.epoch != verify_epoch_) return;
      const bool ok = driver_->confirm_converged(at);
      ControlFrame ack;
      ack.kind = ControlFrame::Kind::kVerifyAck;
      ack.sender = at;
      ack.epoch = frame.epoch;
      ack.flag = ok;
      send(at, 0, ack);
      return;
    }
    case ControlFrame::Kind::kVerifyAck:
      if (halting_ || frame.epoch != verify_epoch_) return;
      if (!frame.flag) {
        verifying_ = false;
        ++verify_epoch_;
        if (verify_rearm_) maybe_begin_verification();
        return;
      }
      if (++verify_acks_ == processors_) halt();
      return;
    case ControlFrame::Kind::kHalt:
      // Only the socket backend ships these (its broadcast_halt); the
      // receiving worker polls halting() and winds down.
      halting_ = true;
      return;
  }
}

void DetectionProtocol::coordinator_report(std::size_t rank) {
  const bool now_converged = driver_->locally_converged(rank);
  if (now_converged == reported_[rank]) {
    // Heartbeat: a still-converged node pings the coordinator at every
    // iteration end. It re-arms verification after an aborted round —
    // without it, a round aborted by a node that was mid-iteration would
    // never retry once that node settles without flipping its report.
    if (now_converged) {
      ControlFrame ping;
      ping.kind = ControlFrame::Kind::kHeartbeat;
      ping.sender = rank;
      send(rank, 0, ping);
    }
    return;
  }
  reported_[rank] = now_converged;
  ControlFrame report;
  report.kind = ControlFrame::Kind::kReport;
  report.sender = rank;
  report.flag = now_converged;
  send(rank, 0, report);
}

void DetectionProtocol::maybe_begin_verification() {
  if (halting_) return;
  if (verifying_) {
    verify_rearm_ = true;
    return;
  }
  if (!std::all_of(coordinator_view_.begin(), coordinator_view_.end(),
                   [](bool b) { return b; }))
    return;
  verifying_ = true;
  verify_rearm_ = false;
  verify_acks_ = 0;
  const std::size_t epoch = ++verify_epoch_;
  for (std::size_t r = 0; r < processors_; ++r) {
    // Request evaluated at the destination when the control message
    // lands; the ack carries the verdict back to rank 0.
    ControlFrame request;
    request.kind = ControlFrame::Kind::kVerifyRequest;
    request.sender = 0;
    request.epoch = epoch;
    send(0, r, request);
  }
}

void DetectionProtocol::halt() {
  halting_ = true;
  driver_->broadcast_halt();
}

OracleSnapshot oracle_probe(const CoreFleet& fleet, bool lb_in_flight,
                            double tolerance) {
  OracleSnapshot snap;
  if (lb_in_flight) return snap;
  double max_residual = 0.0;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    const ProcessorCore& core = fleet.core(p);
    if (core.iteration() == 0 || core.residual_stale()) return snap;
    if (!(core.last_residual() <= tolerance)) return snap;
    if (core.has_pending_migrations()) return snap;
    max_residual = std::max(max_residual, core.last_residual());
  }
  double max_gap = 0.0;
  for (std::size_t p = 0; p + 1 < fleet.size(); ++p) {
    const double gap =
        fleet.core(p).block().interface_gap_with_right(
            fleet.core(p + 1).block());
    if (gap > tolerance) return snap;
    max_gap = std::max(max_gap, gap);
  }
  snap.converged = true;
  snap.max_gap = max_gap;
  snap.max_residual = max_residual;
  return snap;
}

OracleSnapshot measured_audit(const CoreFleet& fleet) {
  OracleSnapshot snap;
  snap.converged = true;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    const ProcessorCore& core = fleet.core(p);
    if (!std::isinf(core.last_residual()))
      snap.max_residual = std::max(snap.max_residual, core.last_residual());
    if (p + 1 < fleet.size()) {
      const ode::WaveformBlock& left = core.block();
      const ode::WaveformBlock& right = fleet.core(p + 1).block();
      if (left.first() + left.count() == right.first())
        snap.max_gap =
            std::max(snap.max_gap, left.interface_gap_with_right(right));
    }
  }
  return snap;
}

}  // namespace aiac::algo
