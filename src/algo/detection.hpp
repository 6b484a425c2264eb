// Convergence detection, implemented once for every driver.
//
// Two modes (see types.hpp): the oracle is a driver-side global probe
// (`oracle_probe` below — the driver guarantees a quiescent view, by
// construction in the single-threaded simulator, by holding every block
// lock in the threaded engine); the coordinator is a genuine message
// protocol driven through `DetectionProtocol`, whose control messages are
// plain-data ControlFrames sent through Transport::send_control with the
// driver's latency and accounting. The in-process drivers share one
// instance across all ranks; the socket backend runs one instance per
// process.
//
// DetectionProtocol is not thread-safe: the threaded driver serializes all
// calls (on_iteration_end and the drained control frames) under one
// detection mutex; the simulated driver is single-threaded by construction.
#pragma once

#include <cstddef>
#include <vector>

#include "algo/processor_core.hpp"
#include "algo/runtime_ifaces.hpp"
#include "algo/types.hpp"

namespace aiac::algo {

/// What the protocol needs from its driver beyond message transport.
class DetectionDriver {
 public:
  virtual ~DetectionDriver() = default;

  /// Persistence-streak local convergence of `rank`, read from whatever
  /// the driver can access safely in the calling context (the threaded
  /// driver reads an atomic mirror, not the core itself).
  virtual bool locally_converged(std::size_t rank) const = 0;

  /// Evaluated at `rank` when a coordinator verification request is
  /// delivered (see coordinator verification below): may this node confirm
  /// its convergence report right now? The default repeats
  /// locally_converged; every production driver answers with
  /// ProcessorCore::can_confirm — which also vetoes when a
  /// delivered-but-unfolded boundary update would move the ghost rows by
  /// more than the tolerance, so the in-flight data that undermined the
  /// sender's report blocks the halt once it lands — plus its own link
  /// query. Only local state may be consulted: the request is a control
  /// message, not a global snapshot.
  virtual bool confirm_converged(std::size_t rank) const {
    return locally_converged(rank);
  }

  /// Distributes the halt decision to every processor (with control
  /// latency and accounting) and ends the run once all are down.
  virtual void broadcast_halt() = 0;
};

class DetectionProtocol {
 public:
  DetectionProtocol(DetectionMode mode, std::size_t processors,
                    Transport& transport, DetectionDriver& driver);

  /// Hook the driver calls after each processor's finish_iteration.
  /// kOracle: no-op (the driver probes globally itself). kCoordinator:
  /// report local-convergence flips to rank 0.
  void on_iteration_end(std::size_t rank);

  /// Processes a control frame in rank `at`'s execution context: the
  /// driver calls this when a frame sent through Transport::send_control
  /// reaches `at`. With one instance per process (socket backend) `at` is
  /// always the local rank, and coordinator bookkeeping lives only in
  /// rank 0's instance.
  void handle_control(std::size_t at, const ControlFrame& frame);

  /// The halt decision has been taken (broadcast may still be in flight).
  bool halting() const noexcept { return halting_; }

 private:
  void send(std::size_t src, std::size_t dst, const ControlFrame& frame);
  void coordinator_report(std::size_t rank);
  void maybe_begin_verification();
  void halt();

  DetectionMode mode_;
  std::size_t processors_;
  Transport* transport_;
  DetectionDriver* driver_;
  bool halting_ = false;

  // Coordinator state: what each node last reported (sender side) and
  // what rank 0 has received so far.
  std::vector<bool> reported_;
  std::vector<bool> coordinator_view_;

  // Coordinator verification round (rank-0 state). An all-true view does
  // not halt directly: data sent before a node's last report can still be
  // in flight, about to disturb a receiver whose report the view trusts.
  // The coordinator instead asks every node to confirm
  // (driver_->confirm_converged at request delivery); one false ack
  // aborts the round. `verify_epoch_` invalidates frames of aborted
  // rounds (it stays 0 in an instance that never opened one); `verify_rearm_` records a converged-node heartbeat that
  // arrived mid-round, so an aborted round retries once the aborting
  // ack has been consumed (never a same-instant retry loop).
  bool verifying_ = false;
  bool verify_rearm_ = false;
  std::size_t verify_epoch_ = 0;
  std::size_t verify_acks_ = 0;
};

/// The oracle's global convergence probe over a quiescent fleet view:
/// every core has completed an iteration, holds a fresh (non-stale)
/// residual within tolerance and no queued migration, no load balancing is
/// in flight (`lb_in_flight`, driver-owned link state), and every shared
/// interface is consistent across neighbors — local residuals alone are
/// not sufficient for AIAC, where a node whose ghost data stopped arriving
/// reports a zero residual over stale values.
struct OracleSnapshot {
  bool converged = false;
  /// Audit trail for the no-early-detection invariant: the values the
  /// probe actually verified at the halt instant (valid when converged).
  double max_gap = 0.0;
  double max_residual = 0.0;
};

OracleSnapshot oracle_probe(const CoreFleet& fleet, bool lb_in_flight,
                            double tolerance);

/// The coordinator halt audit: the protocol guaranteed persistent local
/// convergence, not interface consistency, so this records whatever
/// actually held at the halt instant (`converged` is always true).
/// Interfaces disturbed by an in-flight migration are not measurable and
/// are skipped.
OracleSnapshot measured_audit(const CoreFleet& fleet);

}  // namespace aiac::algo
