// Minimal command-line parsing for examples and benchmark binaries.
// Supports `--key=value`, `--key value`, and boolean `--flag` forms, with
// typed accessors and defaults, plus an auto-generated --help text.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace aiac::util {

class CliParser {
 public:
  /// `program_summary` is printed at the top of --help.
  CliParser(std::string program_summary = {});

  /// Declares an option (and its --help line). Only declared keys are
  /// accepted by parse(), so every describe() must precede it.
  void describe(const std::string& key, const std::string& help,
                const std::string& default_repr = {});

  /// Parses argv. Throws std::invalid_argument on malformed input: a
  /// positional argument, or a --key that no describe() call declared.
  void parse(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  /// Typed access with default. Throws std::invalid_argument if the value
  /// is present but unparsable as T.
  std::string get_string(const std::string& key, std::string def = {}) const;
  std::int64_t get_int(const std::string& key, std::int64_t def = 0) const;
  double get_double(const std::string& key, double def = 0.0) const;
  /// A bare `--flag` and `--flag=true/1/yes` are true; `=false/0/no` false.
  bool get_bool(const std::string& key, bool def = false) const;

  /// True when --help/-h was passed; callers should print help and exit 0.
  bool help_requested() const { return help_requested_; }
  std::string help_text() const;

  /// Raw key/value map (flags map to "true").
  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  struct Description {
    std::string key;
    std::string help;
    std::string default_repr;
  };
  std::string summary_;
  std::string program_name_;
  std::vector<Description> descriptions_;
  std::map<std::string, std::string> values_;
  bool help_requested_ = false;
};

}  // namespace aiac::util
