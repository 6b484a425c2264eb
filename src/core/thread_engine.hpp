// Threaded (PM²-like) backend: the paper's Algorithms 1-7 executed by real
// threads with genuine asynchronous message passing.
//
// One thread per virtual processor; boundary data travels through
// one-slot latest-value boxes (the shared-memory equivalent of the
// paper's mutual-exclusion-guarded asynchronous sends), load-balancing
// payloads through FIFO mailboxes, and each processor's Yold/Ynew arrays
// are protected by a mutex exactly where Algorithm 7 tests "if not
// accessing data array".
//
// At-most-one-migration-per-link is enforced with a per-link shared flag;
// in a fully distributed deployment this flag becomes a small token
// handshake, but this runtime is in-process (as PM² threads on one node
// share memory), so a flag preserves the algorithm's behaviour without a
// protocol digression (see DESIGN.md).
//
// On this container's single core the backend cannot show speedups — it
// exists to demonstrate and test the algorithm under real concurrency;
// the virtual-time engine (sim_engine.hpp) carries the measurements.
#pragma once

#include "core/config.hpp"
#include "ode/ode_system.hpp"
#include "trace/execution_trace.hpp"

namespace aiac::core {

/// Runs the configured scheme on `processors` threads. `execution_time`
/// in the result is wall-clock seconds. The timing model (the simulated
/// driver's per-iteration overhead, early_send_fraction) does not apply —
/// durations are measured, never modeled. All DetectionModes and
/// InitialPartitions are honored; the speed-weighted partition uses
/// `config.processor_speeds` (empty means uniform, degenerating to the
/// even split). When `config.faults.enabled`, the chaos layer perturbs
/// deliveries/compute per the seeded fault plans; if `trace` is non-null,
/// every injected fault is appended to it so the perturbed run stays
/// explainable.
EngineResult run_threaded(const ode::OdeSystem& system,
                          std::size_t processors, const EngineConfig& config,
                          trace::ExecutionTrace* trace = nullptr);

}  // namespace aiac::core
