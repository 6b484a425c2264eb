#include "algo/types.hpp"

#include <stdexcept>

namespace aiac::algo {

std::string to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSISC: return "SISC";
    case Scheme::kSIAC: return "SIAC";
    case Scheme::kAIAC: return "AIAC";
  }
  return "?";
}

std::string to_string(DetectionMode mode) {
  switch (mode) {
    case DetectionMode::kOracle: return "oracle";
    case DetectionMode::kCoordinator: return "coordinator";
  }
  return "?";
}

DetectionMode parse_detection(const std::string& name) {
  for (const DetectionMode mode :
       {DetectionMode::kOracle, DetectionMode::kCoordinator})
    if (to_string(mode) == name) return mode;
  throw std::invalid_argument("unknown detection mode: " + name);
}

std::string to_string(InitialPartition partition) {
  switch (partition) {
    case InitialPartition::kEven: return "even";
    case InitialPartition::kSpeedWeighted: return "speed-weighted";
  }
  return "?";
}

std::string to_string(Side side) {
  return side == Side::kLeft ? "left" : "right";
}

}  // namespace aiac::algo
