#include "util/cli.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace aiac::util {

CliParser::CliParser(std::string program_summary)
    : summary_(std::move(program_summary)) {}

void CliParser::describe(const std::string& key, const std::string& help,
                         const std::string& default_repr) {
  descriptions_.push_back({key, help, default_repr});
}

void CliParser::parse(int argc, const char* const* argv) {
  if (argc > 0) program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    if (std::none_of(descriptions_.begin(), descriptions_.end(),
                     [&](const Description& d) { return d.key == key; }))
      throw std::invalid_argument("unknown option --" + key +
                                  " (see --help)");
    if (eq != std::string::npos) {
      values_[key] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "true";
    }
  }
}

bool CliParser::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string CliParser::get_string(const std::string& key,
                                  std::string def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

std::int64_t CliParser::get_int(const std::string& key,
                                std::int64_t def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + " expects an integer, got '" +
                                it->second + "'");
  }
}

double CliParser::get_double(const std::string& key, double def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + " expects a number, got '" +
                                it->second + "'");
  }
}

bool CliParser::get_bool(const std::string& key, bool def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("--" + key + " expects a boolean, got '" +
                              it->second + "'");
}

std::string CliParser::help_text() const {
  std::ostringstream out;
  if (!summary_.empty()) out << summary_ << "\n\n";
  out << "Usage: " << (program_name_.empty() ? "program" : program_name_)
      << " [--key=value ...]\n";
  if (!descriptions_.empty()) {
    out << "Options:\n";
    std::size_t width = 0;
    for (const auto& d : descriptions_)
      width = std::max(width, d.key.size());
    for (const auto& d : descriptions_) {
      out << "  --" << d.key << std::string(width - d.key.size() + 2, ' ')
          << d.help;
      if (!d.default_repr.empty()) out << " [default: " << d.default_repr << "]";
      out << '\n';
    }
  }
  return out.str();
}

}  // namespace aiac::util
