// Backend-agnostic algorithm vocabulary shared by the algorithm layer
// (algo/) and both execution drivers (core/sim_engine, core/thread_engine).
// The enums used to live in core/config.hpp; they moved here so the
// algorithm code does not depend on the driver layer. core/config.hpp
// re-exports them under aiac::core for existing call sites.
#pragma once

#include <string>

namespace aiac::algo {

/// The paper's three-way categorization of parallel iterative algorithms
/// (§1.2).
enum class Scheme {
  kSISC,  // Synchronous Iterations, Synchronous Communications
  kSIAC,  // Synchronous Iterations, Asynchronous Communications
  kAIAC,  // Asynchronous Iterations, Asynchronous Communications
};

std::string to_string(Scheme scheme);

/// How global convergence is decided.
enum class DetectionMode {
  /// The driver inspects the true global state (all local residuals under
  /// tolerance, no balancing in flight, consistent interfaces).
  /// Deterministic, no protocol overhead; the measurement used by the
  /// paper-reproduction benches. The threaded driver realizes it as a
  /// rank-0 leader poll over the same probe.
  kOracle,
  /// A distributed protocol: nodes report persistent local convergence to
  /// a coordinator which broadcasts the halt (the paper defers detection
  /// design to the authors' companion work; this is the classic
  /// coordinator scheme with a persistence guard).
  kCoordinator,
};

std::string to_string(DetectionMode mode);
/// Inverse of to_string(DetectionMode); throws std::invalid_argument on an
/// unknown name.
DetectionMode parse_detection(const std::string& name);

/// How components are initially distributed (paper: homogeneous
/// distribution; the authors' earlier work [2] uses static speed-weighted
/// balancing, provided here as an option and baseline).
enum class InitialPartition {
  kEven,
  kSpeedWeighted,
};

std::string to_string(InitialPartition partition);

/// Which neighbor of a chain processor a message, migration or link
/// concerns, seen from the processor itself.
enum class Side { kLeft, kRight };

constexpr Side opposite(Side side) noexcept {
  return side == Side::kLeft ? Side::kRight : Side::kLeft;
}

std::string to_string(Side side);

}  // namespace aiac::algo
