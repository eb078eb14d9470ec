#pragma once

#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>

namespace tealeaf {

/// Exception thrown for violated preconditions / invariants in the library.
/// A violated precondition (TEA_REQUIRE) carries the rule the input broke;
/// a violated invariant (TEA_ASSERT) also carries where it fired.
class TeaError : public std::runtime_error {
 public:
  explicit TeaError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

[[noreturn]] inline void fail_assert(
    const char* expr, const std::string& msg,
    const std::source_location loc = std::source_location::current()) {
  std::ostringstream os;
  os << loc.file_name() << ":" << loc.line() << ": requirement failed: `"
     << expr << "`";
  if (!msg.empty()) os << " — " << msg;
  throw TeaError(os.str());
}

}  // namespace detail

}  // namespace tealeaf

/// Precondition check that is always active (release builds included).
/// HPC codes die loudly on contract violations instead of corrupting data.
/// The error text is `msg` alone — the rule, as a user reads it, not the
/// source path or the expression — so it must say what was wrong.
#define TEA_REQUIRE(expr, msg)                   \
  do {                                           \
    if (!(expr)) throw ::tealeaf::TeaError(msg); \
  } while (0)

/// Internal-consistency check: a failure indicates a library bug, not
/// user error, so the error carries the check's location and expression:
/// "file:line: requirement failed: `expr` — msg".
#define TEA_ASSERT(expr, msg)                                  \
  do {                                                         \
    if (!(expr)) ::tealeaf::detail::fail_assert(#expr, (msg)); \
  } while (0)
