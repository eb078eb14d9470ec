#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace tealeaf {

/// Parse the whole of `s` as a double.  Throws a TeaError naming `what`
/// (the deck key or CSV column) when any of the token is left over, so
/// "1e-8xyz" is an error, not 1e-8.
inline double parse_double(const std::string& s, const std::string& what) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != s.size()) {
    throw TeaError("bad numeric value for " + what + ": '" + s + "'");
  }
  return v;
}

/// `v` as an Int when it is finite, integral and within Int's range;
/// otherwise a TeaError naming `what` (a deck key, CSV column or JSON
/// key) and showing `text` (the value as written; empty: `v` itself)
/// instead of truncating (or overflowing) in a float-to-int cast.
template <class Int>
Int checked_integer(double v, const std::string& what,
                    std::string text = {}) {
  // min() is −2^(bits−1), exact in a double, so [lo, −lo) is Int's
  // range; NaN and ±inf fail the comparison.
  const double lo = static_cast<double>(std::numeric_limits<Int>::min());
  if (v >= lo && v < -lo && v == std::trunc(v)) return static_cast<Int>(v);
  if (text.empty()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    text = buf;
  }
  throw TeaError("bad integer value for " + what + ": '" + text +
                 "' (need a whole number from " +
                 std::to_string(std::numeric_limits<Int>::min()) + " to " +
                 std::to_string(std::numeric_limits<Int>::max()) + ")");
}

/// Parse the whole of `s` as an int under checked_integer's rule: "64",
/// "64.0" and "1e3" parse; "64abc", "64.7", "1e30" and "inf" throw a
/// TeaError naming `what`.
inline int parse_int(const std::string& s, const std::string& what) {
  return checked_integer<int>(parse_double(s, what), what, s);
}

/// Parse `s` as a switch: "" (the bare form), "1", "true" or "on" is on;
/// "0", "false" or "off" is off; anything else throws a TeaError naming
/// `what`, so a mistyped value never silently flips the switch.
inline bool parse_bool(const std::string& s, const std::string& what) {
  if (s.empty() || s == "1" || s == "true" || s == "on") return true;
  if (s == "0" || s == "false" || s == "off") return false;
  throw TeaError("bad boolean value for " + what + ": '" + s +
                 "' (need 1|true|on or 0|false|off)");
}

/// Relative difference |a-b| / max(|a|,|b|,floor); 0 when both are tiny.
inline double rel_diff(double a, double b, double floor = 1e-300) {
  const double scale = std::max({std::fabs(a), std::fabs(b), floor});
  return std::fabs(a - b) / scale;
}

/// True when a and b agree to within `tol` relative (and `abs_tol` absolute
/// for values near zero).
inline bool almost_equal(double a, double b, double tol = 1e-12,
                         double abs_tol = 1e-300) {
  return std::fabs(a - b) <= std::max(abs_tol, tol * std::max(std::fabs(a),
                                                              std::fabs(b)));
}

/// n evenly spaced samples over [lo, hi] inclusive (n >= 2).
inline std::vector<double> linspace(double lo, double hi, int n) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                           static_cast<double>(n - 1));
  }
  return out;
}

/// Integer ceil-division for non-negative values.
inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Round x up to the next multiple of m (m > 0).
inline std::int64_t round_up(std::int64_t x, std::int64_t m) {
  return ceil_div(x, m) * m;
}

/// Deterministic xorshift-based pseudo-random generator for reproducible
/// test fixtures (no global state, stable across platforms).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

 private:
  std::uint64_t state_;
};

}  // namespace tealeaf
