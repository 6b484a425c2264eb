// The narrow interfaces through which the backend-agnostic algorithm
// layer reaches its driver (see DESIGN.md "The algo layer"):
//
//  * Transport — how detection control leaves a processor. The fleet
//    state machine (algo/fleet_machine.hpp) queues each frame for the sim
//    driver and the model checker; the threaded driver pushes it into a
//    Mailbox; the socket backend writes a wire frame. Boundary data and
//    migrations leave through each driver's own channels.
//  * DetectionDriver (algo/detection.hpp) — local convergence, the
//    verification veto and the halt fan-out.
//
// The clock is the driver's own: it passes each iteration's duration to
// ProcessorCore::finish_iteration. Everything above these interfaces
// (ProcessorCore, DetectionProtocol, Partitioner) is identical algorithm
// code for every backend.
#pragma once

#include <cstddef>

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

  /// Ships detection control `frame` from `src` to `dst` (possibly `src`
  /// itself). The driver hands it to DetectionProtocol::handle_control(dst,
  /// frame) in `dst`'s execution context after its control latency: at
  /// the scheduled virtual delivery time for the simulated driver, at the
  /// destination thread's or process's next control drain for the
  /// measuring ones. The driver accounts message counts/bytes.
  virtual void send_control(std::size_t src, std::size_t dst,
                            const ControlFrame& frame) = 0;
};

}  // namespace aiac::algo
