#include "des/simulator.hpp"

#include <cmath>

namespace aiac::des {

void Simulator::schedule_at(SimTime t, std::function<void()> fn) {
  if (!(t >= now_) || std::isnan(t))
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  queue_.push(Event{t, next_sequence_++, std::move(fn)});
}

void Simulator::schedule_after(SimTime delay, std::function<void()> fn) {
  if (!(delay >= 0.0) || std::isnan(delay))
    throw std::invalid_argument("Simulator::schedule_after: negative delay");
  schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::step() {
  if (queue_.empty() || stopped_) return false;
  // priority_queue::top returns const&; move out via const_cast is the
  // standard idiom to avoid copying the std::function.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.time;
  ++executed_;
  ev.fn();
  return true;
}

void Simulator::run(std::uint64_t max_events) {
  std::uint64_t budget = max_events;
  while (step()) {
    if (budget-- == 0)
      throw std::runtime_error("Simulator::run: event budget exhausted");
  }
}

}  // namespace aiac::des
