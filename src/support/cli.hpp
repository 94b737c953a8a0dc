// Minimal command-line flag parser for the bench and example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. A flag
// given more than once keeps every value in order (get_all); the scalar
// getters read the last one. Unknown flags raise ParseError so typos in
// bench invocations fail loudly.
//
// Every sdlo binary shares one exit-code taxonomy (ExitCode below):
// 0 = success, 1 = any error (bad usage, parse failure, oracle mismatch,
// injected fault), 2 = the run was truncated by a resource budget
// (--deadline / --mem-budget / cancellation) and the printed result is a
// valid but partial answer.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sdlo {

/// Process exit codes shared by every sdlo binary.
enum class ExitCode : int {
  kOk = 0,         ///< completed; output is a full answer
  kError = 1,      ///< usage/parse/runtime error; output may be partial
  kTruncated = 2,  ///< a budget tripped; output is a valid partial answer
};

inline int to_int(ExitCode c) { return static_cast<int>(c); }

/// Version string printed by --version (kept in lockstep with the CMake
/// project version).
inline constexpr const char* kVersionString = "sdlo 1.0.0";

/// Bare version number embedded in every JSON emitter's "version" field
/// (the tail of kVersionString, past the "sdlo " prefix).
inline constexpr const char* kVersionNumber = kVersionString + 5;

/// Parsed command line. Construct once from (argc, argv), then query flags.
class CommandLine {
 public:
  CommandLine(int argc, const char* const* argv);

  /// Registers a flag with help text; returns *this for chaining. Querying a
  /// flag that was never registered is a ContractViolation (catches typos in
  /// the binary itself).
  CommandLine& flag(const std::string& name, const std::string& help);

  /// After registering all flags, validates that every flag given by the
  /// user was registered. Call exactly once. Handles --help and --version
  /// by printing to stdout and returning false — the caller should then
  /// exit with ExitCode::kOk (no std::exit: destructors still run). Returns
  /// true when execution should proceed.
  bool finish();

  bool has(const std::string& name) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  std::string get_string(const std::string& name,
                         const std::string& def) const;
  bool get_bool(const std::string& name, bool def) const;
  /// Every value given for a repeatable flag, in command-line order.
  std::vector<std::string> get_all(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// argv[0].
  const std::string& program() const { return program_; }

 private:
  void require_registered(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::vector<std::string>> values_;  // in order
  std::map<std::string, std::string> registered_;
  std::vector<std::string> positional_;
  bool finished_ = false;
};

}  // namespace sdlo
