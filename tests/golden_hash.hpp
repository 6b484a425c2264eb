// Bitwise fingerprints for the golden suites: an engine run's solution
// bytes, virtual execution time, total work, iteration counts and
// migrations (optionally its message counters too), folded into one
// 64-bit FNV-1a hash.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

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

inline void add_result(Fnv1a& hash, const core::EngineResult& result) {
  const std::span<const double> solution = result.solution.raw();
  hash.add_bytes(solution.data(), solution.size_bytes());
  hash.add(result.execution_time);
  hash.add(result.total_work);
  hash.add(result.total_iterations);
  for (const std::size_t it : result.iterations_per_processor) hash.add(it);
  hash.add(result.migrations);
}

inline std::uint64_t result_hash(const core::EngineResult& result) {
  Fnv1a hash;
  add_result(hash, result);
  return hash.value();
}

/// result_hash plus the message and byte counters, for goldens that pin
/// the control traffic of the message-based detection protocols.
inline std::uint64_t traffic_hash(const core::EngineResult& result) {
  Fnv1a hash;
  add_result(hash, result);
  hash.add(result.control_messages);
  hash.add(result.data_messages);
  hash.add(result.bytes_sent);
  return hash.value();
}

/// FNV-1a of a string's bytes (serialized checker schedules).
inline std::uint64_t text_hash(std::string_view text) {
  Fnv1a hash;
  hash.add_bytes(text.data(), text.size());
  return hash.value();
}

}  // namespace aiac::golden
