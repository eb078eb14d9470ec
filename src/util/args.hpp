#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace tealeaf {

/// One flag a program accepts, `--name`.  A flag that repeats a deck key
/// names the key in `key` and takes its value by that key's rule through
/// InputDeck::set, at `fallback` when the flag is absent ("" = leave the
/// key alone); see deck_flag in driver/deck.hpp.
struct Flag {
  /// How the value is read.  A kBool flag is a switch: `--name` or
  /// `--name=1|true|on` is on, `--name=0|false|off` is off, and it never
  /// takes the next argument as its value.
  enum Rule { kText, kInt, kDouble, kBool };
  std::string name;
  Rule rule = kText;
  std::string key{};
  std::string fallback{};
};

/// Command-line parser for the example and benchmark programs.
///
/// Accepted forms:  `--key value`, `--key=value`, `--flag` and positional
/// arguments.  Built with the program's flags (as run_main builds it), it
/// rejects with a TeaError an unknown flag (naming the nearest declared
/// one), a value its rule refuses, a value flag with no value, a switch
/// followed by a value (`--learn 0`) and a positional argument beyond
/// `positionals`.  Built from argc/argv alone it keeps every flag and
/// positional argument as given, for harnesses that read their own.
class Args {
 public:
  Args(int argc, const char* const* argv);
  Args(int argc, const char* const* argv, std::vector<Flag> flags,
       int positionals);

  /// True if `--name` was passed (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] int get_int(const std::string& name, int fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  /// A declared switch (Flag::kBool): whether it is on.
  [[nodiscard]] bool enabled(const std::string& name) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// The declared flags (empty when built from argc/argv alone).
  [[nodiscard]] const std::vector<Flag>& flags() const { return flags_; }

  /// Name of the executable (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  void parse(int argc, const char* const* argv, int positionals);
  [[nodiscard]] const Flag* find(const std::string& name) const;
  [[nodiscard]] const std::string* value(const std::string& name) const;

  std::string program_;
  std::vector<Flag> flags_;
  bool strict_ = false;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The candidate nearest `name` within two edits, or "" when none is: the
/// "did you mean" of the deck keys and of the program flags.
[[nodiscard]] std::string nearest_name(
    const std::string& name, const std::vector<std::string>& candidates);

/// The entry point of every example and bench program: parses the flags
/// the program declares (and up to `positionals` positional arguments),
/// runs `body` and returns its exit code.  A TeaError from either prints
/// "<program>: error: <message>" to stderr and returns 1, so bad input
/// never ends in `terminate`.
int run_main(int argc, const char* const* argv, std::vector<Flag> flags,
             const std::function<int(const Args&)>& body, int positionals = 0);

}  // namespace tealeaf
