// A reusable (cyclic) thread barrier; no engine uses it (SISC threads wait
// for neighbour data instead). std::barrier exists in C++20 but a
// phase-counting implementation keeps the semantics explicit and allows
// querying the phase.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <stdexcept>

namespace aiac::runtime {

class Barrier {
 public:
  explicit Barrier(std::size_t parties) : parties_(parties) {
    if (parties == 0) throw std::invalid_argument("Barrier: zero parties");
  }

  /// Blocks until `parties` threads have arrived; then all are released
  /// and the barrier resets for the next phase.
  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::size_t phase = phase_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++phase_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return phase_ != phase; });
  }

  std::size_t phase() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return phase_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t waiting_ = 0;
  std::size_t phase_ = 0;
};

}  // namespace aiac::runtime
