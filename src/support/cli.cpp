#include "support/cli.hpp"

#include <cstdlib>
#include <iostream>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace sdlo {

CommandLine::CommandLine(int argc, const char* const* argv) {
  SDLO_EXPECTS(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)].push_back(body.substr(eq + 1));
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      values_[body].push_back(argv[++i]);
    } else {
      values_[body].push_back("true");
    }
  }
}

CommandLine& CommandLine::flag(const std::string& name,
                               const std::string& help) {
  registered_[name] = help;
  return *this;
}

bool CommandLine::finish() {
  SDLO_CHECK(!finished_, "CommandLine::finish called twice");
  finished_ = true;
  registered_.emplace("help", "print this help");
  registered_.emplace("version", "print the version and exit");
  if (values_.count("help") != 0) {
    std::cout << "usage: " << program_ << " [flags]\n";
    for (const auto& [name, help] : registered_) {
      std::cout << "  --" << name << "  " << help << "\n";
    }
    std::cout << "exit codes: 0 ok, 1 error, 2 truncated by budget\n";
    return false;
  }
  if (values_.count("version") != 0) {
    std::cout << kVersionString << "\n";
    return false;
  }
  for (const auto& [name, value] : values_) {
    (void)value;
    if (registered_.count(name) == 0) {
      throw ParseError("unknown flag --" + name + " (see --help)");
    }
  }
  return true;
}

void CommandLine::require_registered(const std::string& name) const {
  SDLO_CHECK(registered_.count(name) != 0,
             "flag --" + name + " queried but never registered");
}

bool CommandLine::has(const std::string& name) const {
  require_registered(name);
  return values_.count(name) != 0;
}

std::int64_t CommandLine::get_int(const std::string& name,
                                  std::int64_t def) const {
  require_registered(name);
  auto it = values_.find(name);
  return it == values_.end() ? def : parse_int(it->second.back());
}

double CommandLine::get_double(const std::string& name, double def) const {
  require_registered(name);
  auto it = values_.find(name);
  return it == values_.end() ? def : std::stod(it->second.back());
}

std::string CommandLine::get_string(const std::string& name,
                                    const std::string& def) const {
  require_registered(name);
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second.back();
}

std::vector<std::string> CommandLine::get_all(const std::string& name) const {
  require_registered(name);
  auto it = values_.find(name);
  return it == values_.end() ? std::vector<std::string>{} : it->second;
}

bool CommandLine::get_bool(const std::string& name, bool def) const {
  require_registered(name);
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second.back();
  return v == "true" || v == "1" || v == "yes";
}

}  // namespace sdlo
