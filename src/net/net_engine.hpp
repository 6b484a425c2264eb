// The socket backend: the third production driver of the algo interfaces.
//
// run_net forks one OS process per virtual processor; workers talk over a
// full TCP-loopback mesh using the wire format of wire.hpp, each running
// its own ProcessorCore and its own DetectionProtocol instance with
// detection control shipped as plain-data ControlFrames (see
// algo/runtime_ifaces.hpp). The parent never computes: it wires the mesh,
// watches a deadline, and aggregates per-worker results and trace records
// from one result pipe per child.
//
// Scope (see DESIGN.md §11):
//  * AIAC only. SISC/SIAC gate each iteration on neighbor data of a
//    specific iteration index; over a lossy-ordering-free but
//    latency-bearing wire that protocol needs windowed flow control this
//    backend deliberately does not grow. run_net throws for them.
//  * Detection is always the coordinator protocol; EngineConfig::detection
//    is not read. The oracle is a driver-side global probe, and no process
//    of a distributed deployment holds a global view. Pinned by
//    tests/test_net_engine.
//  * The chaos layer (EngineConfig::faults) is thread-backend-only;
//    run_net throws if enabled. The socket backend's fault story is real:
//    NetConfig::kill_rank SIGKILLs a live worker and the peers report a
//    clean failure through the peer-down path instead of hanging.
//
// Load-balancing migrations ride a per-link token handshake
// (kTokenRequest/kTokenGrant, token initially at the lower rank) so two
// neighbors can never start crossing migrations, and every payload is
// acknowledged (kMigAck) only after the receiver absorbed it — the
// paper's at-most-one-migration-per-link rule, distributed. Shutdown uses
// a Goodbye drain: a halting worker keeps reading each peer until that
// peer's Goodbye (or EOF/timeout), absorbing any in-flight migration, so
// component conservation holds across the halt edge.
#pragma once

#include "core/config.hpp"
#include "net/socket_transport.hpp"
#include "ode/ode_system.hpp"
#include "trace/execution_trace.hpp"

namespace aiac::net {

struct NetConfig {
  TransportConfig transport;
  /// Parent watchdog: workers still alive this long after the fork are
  /// SIGKILLed and the run reports failure — a wedged worker surfaces as
  /// a bounded, explained failure, never a hang.
  double deadline_seconds = 120.0;
  /// Fault hook: SIGKILL worker `kill_rank` this long into the run
  /// (negative disables). Peers observe the death as EOF-without-goodbye
  /// and wind down with a peer-down failure.
  int kill_rank = -1;
  double kill_after_seconds = 0.25;
};

/// Runs `config` on `processors` worker processes over TCP loopback.
/// `execution_time` in the result is parent-observed wall seconds. The
/// per-rank traces are merged into `trace` when non-null (per-worker
/// clocks start at each worker's own launch, so cross-rank timestamps are
/// comparable only to within process-startup skew; `detection_gap` stays
/// -1 — no process can measure cross-process interface gaps at the halt
/// instant). Throws std::invalid_argument for configurations outside the
/// backend's scope (non-AIAC schemes, chaos faults, zero processors).
core::EngineResult run_net(const ode::OdeSystem& system,
                           std::size_t processors,
                           const core::EngineConfig& config,
                           const NetConfig& net = {},
                           trace::ExecutionTrace* trace = nullptr);

}  // namespace aiac::net
