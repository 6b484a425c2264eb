// Machine-checked invariants evaluated at every scheduler decision point.
//
// These are the paper's correctness claims, stated over the checked
// model's quiescent state (between atomic actions):
//
//  * component conservation — every component is owned by exactly one
//    block, queued at exactly one receiver, or in exactly one in-flight
//    payload; migrations never lose or duplicate rows;
//  * famine guard — no node's owned count ever drops below its floor
//    (min_keep, or its smaller initial allotment), sampled through the
//    core's own watermark so intra-action dips are caught too;
//  * migration-flag discipline — at most one migration in flight per
//    link, and no node initiates one on a busy link (Algorithm 4/7);
//  * detection safety — no halt (oracle or coordinator) while any
//    residual is stale or exceeds tolerance, i.e. no premature
//    convergence detection.
//
// The suite is open: tests and tools can register extra invariants next
// to the standard four.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/model.hpp"

namespace aiac::check {

struct Violation {
  std::string invariant;
  std::string detail;
  /// Count of actions applied when the violation surfaced (1-based: the
  /// violation was observed right after this many actions).
  std::size_t action_index = 0;

  std::string to_string() const;
};

class InvariantSuite {
 public:
  /// Returns a violation detail when broken, nullopt when the invariant
  /// holds. Must be a pure observer of the model.
  using CheckFn =
      std::function<std::optional<std::string>(const CheckedModel&)>;

  void add(std::string name, CheckFn check);
  std::size_t size() const noexcept { return invariants_.size(); }
  std::vector<std::string> names() const;

  /// Evaluates every invariant against the model's current state.
  std::vector<Violation> evaluate(const CheckedModel& model) const;

  /// The four paper invariants.
  static InvariantSuite standard();

 private:
  struct Entry {
    std::string name;
    CheckFn check;
  };
  std::vector<Entry> invariants_;
};

// Individual registrars, for composing custom suites in tests/tools.
void add_conservation_invariant(InvariantSuite& suite);
void add_famine_invariant(InvariantSuite& suite);
void add_migration_discipline_invariant(InvariantSuite& suite);
void add_detection_safety_invariant(InvariantSuite& suite);

}  // namespace aiac::check
