// A recorded schedule: the full ModelConfig plus the exact sequence of
// scheduler choices taken, with each chosen action's description. The file
// is self-contained — replaying needs nothing but the file — and the
// descriptions let replay detect divergence (a model or config change that
// re-interprets a choice index) instead of silently exploring a different
// run. Serialization is canonical: parse(serialize(s)) == s byte-for-byte,
// which the replay tests rely on.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "check/model.hpp"

namespace aiac::check {

struct ScheduleEntry {
  /// Index into CheckedModel::enabled_actions() at that decision point.
  std::size_t choice = 0;
  /// CheckedModel::describe() of the chosen action when recorded.
  std::string action;
};

struct Schedule {
  ModelConfig config;
  std::vector<ScheduleEntry> entries;
  /// One-line annotation (e.g. the violation that ended the run).
  std::string note;

  std::string serialize() const;
  /// Throws std::invalid_argument on malformed input.
  static Schedule parse(const std::string& text);

  void save(const std::string& path) const;
  /// Throws std::runtime_error when unreadable, std::invalid_argument
  /// when malformed.
  static Schedule load(const std::string& path);

  /// The bare choice sequence (what the explorers force on re-runs).
  std::vector<std::size_t> choices() const;
};

}  // namespace aiac::check
