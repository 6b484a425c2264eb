// Discrete-event simulation kernel.
//
// The paper's experiments measure execution time on physical clusters and
// a 3-site grid. This container has a single CPU core, so those
// measurements are reproduced in *virtual time*: every computation and
// message transfer is accounted by a deterministic event-driven simulator
// while the numerical work itself (Newton iterations on the real
// Brusselator system) executes for real inside the event handlers. The
// result is a bit-reproducible experiment whose reported times have the
// same structure as the paper's wall-clock measurements.
//
// Determinism contract: events at equal timestamps execute in scheduling
// order (FIFO tie-breaking by a monotonically increasing sequence number),
// so a simulation is a pure function of its inputs and seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

namespace aiac::des {

/// Virtual time in seconds.
using SimTime = double;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Starts at 0.
  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (must be >= now()).
  void schedule_at(SimTime t, std::function<void()> fn);

  /// Schedules `fn` after a non-negative delay.
  void schedule_after(SimTime delay, std::function<void()> fn);

  /// Executes the next event; returns false when the queue is empty or the
  /// simulation was stopped.
  bool step();

  /// Runs until the queue drains, stop() is called, or the event budget is
  /// exhausted (a runaway-loop guard; throws std::runtime_error then).
  void run(std::uint64_t max_events = UINT64_MAX);

  /// Makes run() return after the current event completes.
  void stop() noexcept { stopped_ = true; }
  bool stopped() const noexcept { return stopped_; }

  std::uint64_t events_executed() const noexcept { return executed_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t sequence;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;  // FIFO among simultaneous events
    }
  };

  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace aiac::des
