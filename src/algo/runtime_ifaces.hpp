// The two narrow interfaces through which the backend-agnostic algorithm
// layer is driven (see DESIGN.md "The algo layer"):
//
//  * Transport — how boundary data, migrations and detection control
//    leave a processor. The virtual-time driver schedules discrete-event
//    deliveries with grid latencies; the threaded driver pushes into
//    SlotBox/Mailbox channels; the model checker queues every delivery
//    for its scheduler; the socket backend writes wire frames.
//  * ClockModel — how work units map to seconds. The virtual-time driver
//    predicts durations from the grid model; the measuring drivers read
//    wall time.
//
// Everything above these interfaces (ProcessorCore, DetectionProtocol,
// Partitioner) is identical algorithm code for every backend.
#pragma once

#include <cstddef>

#include "algo/types.hpp"
#include "ode/waveform_block.hpp"

namespace aiac::algo {

/// One convergence-detection control message as plain data — the only
/// form detection control takes on any backend. In-process drivers queue
/// it; the socket backend ships it over a real wire (src/net/wire.hpp
/// serializes exactly this), so the same protocol runs with one shared
/// instance or with one instance per OS process.
struct ControlFrame {
  enum class Kind : unsigned char {
    kReport,         // sender's local-convergence flag flipped
    kHeartbeat,      // still-converged ping; re-arms aborted verifications
    kVerifyRequest,  // coordinator asks a node to confirm its report
    kVerifyAck,      // the node's verdict, echoing the round's epoch
    kHalt = 5,       // the halt decision reached this rank (4 is retired)
  };
  Kind kind = Kind::kReport;
  std::size_t sender = 0;  // originating rank
  std::size_t epoch = 0;   // verification round (kVerifyRequest/kVerifyAck)
  bool flag = false;       // converged? (kReport) / confirmed? (kVerifyAck)
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends freshly stamped boundary (ghost) data from `src` toward its
  /// `toward`-side neighbor. The driver owns the departure discipline
  /// (early/late sends, link mutual exclusion, fault hooks).
  virtual void send_boundary(std::size_t src, Side toward,
                             ode::BoundaryMessage msg) = 0;

  /// Ships a load-balancing migration payload from `src` toward its
  /// `toward`-side neighbor. The per-link at-most-one-in-flight rule is
  /// enforced by the driver before the payload is extracted.
  virtual void send_migration(std::size_t src, Side toward,
                              ode::MigrationPayload payload) = 0;

  /// Ships detection control `frame` from `src` to `dst` (possibly `src`
  /// itself). The driver hands it to DetectionProtocol::handle_control(dst,
  /// frame) in `dst`'s execution context after its control latency: at
  /// the scheduled virtual delivery time for the simulated driver, at the
  /// destination thread's or process's next control drain for the
  /// measuring ones. The driver accounts message counts/bytes.
  virtual void send_control(std::size_t src, std::size_t dst,
                            const ControlFrame& frame) = 0;
};

class ClockModel {
 public:
  virtual ~ClockModel() = default;

  /// Current time in seconds: virtual time for the discrete-event driver,
  /// wall seconds since run start for the threaded driver.
  virtual double now() const = 0;

  /// Seconds that `work` work-units starting at `start` occupy on
  /// processor `rank` while it holds `resident` components. Predictive
  /// models (the simulated grid) compute this; measuring models (wall
  /// clock) return a negative sentinel and the driver uses the measured
  /// elapsed time instead.
  virtual double work_to_seconds(std::size_t rank, double work, double start,
                                 double resident) = 0;
};

}  // namespace aiac::algo
