// Bitwise fingerprint of an engine run for the golden-trajectory suites:
// the solution's raw bytes, virtual execution time, total work, iteration
// counts and migrations, folded into one 64-bit FNV-1a hash.
#pragma once

#include <cstdint>
#include <span>

#include "core/sim_engine.hpp"

namespace aiac::golden {

/// 64-bit FNV-1a over raw bytes.
class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void add(const T& value) {
    add_bytes(&value, sizeof(T));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

inline std::uint64_t result_hash(const core::EngineResult& result) {
  Fnv1a hash;
  const std::span<const double> solution = result.solution.raw();
  hash.add_bytes(solution.data(), solution.size_bytes());
  hash.add(result.execution_time);
  hash.add(result.total_work);
  hash.add(result.total_iterations);
  for (const std::size_t it : result.iterations_per_processor) hash.add(it);
  hash.add(result.migrations);
  return hash.value();
}

}  // namespace aiac::golden
