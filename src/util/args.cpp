#include "util/args.hpp"

#include <algorithm>
#include <cstdio>

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace tealeaf {

namespace {

bool is_flag(const std::string& arg) { return arg.rfind("--", 0) == 0; }

/// Levenshtein distance, small-string edition (names are short).
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t next =
          std::min({row[j] + 1, row[j - 1] + 1,
                    diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = row[j];
      row[j] = next;
    }
  }
  return row[b.size()];
}

}  // namespace

Args::Args(int argc, const char* const* argv) { parse(argc, argv, argc); }

Args::Args(int argc, const char* const* argv, std::vector<Flag> flags,
           int positionals)
    : flags_(std::move(flags)), strict_(true) {
  parse(argc, argv, positionals);
}

void Args::parse(int argc, const char* const* argv, int positionals) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!is_flag(arg)) {
      TEA_REQUIRE(static_cast<int>(positional_.size()) < positionals,
                  "unexpected argument '" + arg + "'");
      positional_.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string name = arg.substr(2, eq - 2);
    const std::string what = "--" + name;
    const Flag* flag = find(name);
    if (strict_ && flag == nullptr) {
      std::vector<std::string> names;
      for (const Flag& f : flags_) names.push_back(f.name);
      const std::string near = nearest_name(name, names);
      throw TeaError("unknown flag " + what +
                     (near.empty() ? "" : " (did you mean --" + near + "?)"));
    }
    // `--key value` takes the next argument unless it is a flag itself;
    // a switch never takes it.
    const bool next = i + 1 < argc && !is_flag(argv[i + 1]);
    const bool bare = flag != nullptr && flag->rule == Flag::kBool;
    const bool inline_value = eq != std::string::npos;
    TEA_REQUIRE(inline_value || !bare || !next,
                what + " is a switch and takes no separate value: write " +
                    what + "=" + argv[i + 1]);
    TEA_REQUIRE(inline_value || bare || next || flag == nullptr,
                what + " needs a value");
    std::string val;
    if (inline_value) {
      val = arg.substr(eq + 1);
    } else if (!bare && next) {
      val = argv[++i];
    }
    if (flag != nullptr && flag->rule == Flag::kInt) parse_int(val, what);
    if (flag != nullptr && flag->rule == Flag::kDouble) parse_double(val, what);
    if (bare) parse_bool(val, what);
    values_[name] = val;
  }
}

const Flag* Args::find(const std::string& name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

const std::string* Args::value(const std::string& name) const {
  TEA_ASSERT(!strict_ || find(name) != nullptr,
             "--" + name + " is read but not declared");
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Args::has(const std::string& name) const {
  return value(name) != nullptr;
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  const std::string* v = value(name);
  return v == nullptr ? fallback : *v;
}

int Args::get_int(const std::string& name, int fallback) const {
  const std::string* v = value(name);
  if (v == nullptr || v->empty()) return fallback;
  return parse_int(*v, "--" + name);
}

double Args::get_double(const std::string& name, double fallback) const {
  const std::string* v = value(name);
  if (v == nullptr || v->empty()) return fallback;
  return parse_double(*v, "--" + name);
}

bool Args::enabled(const std::string& name) const {
  const std::string* v = value(name);
  return v != nullptr && parse_bool(*v, "--" + name);
}

std::string nearest_name(const std::string& name,
                         const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_dist = 3;  // suggest only within two edits
  for (const std::string& c : candidates) {
    const std::size_t d = edit_distance(name, c);
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  return best;
}

int run_main(int argc, const char* const* argv, std::vector<Flag> flags,
             const std::function<int(const Args&)>& body, int positionals) {
  std::string program = argc > 0 ? argv[0] : "tealeaf";
  program = program.substr(program.find_last_of('/') + 1);
  try {
    return body(Args(argc, argv, std::move(flags), positionals));
  } catch (const TeaError& e) {
    std::fprintf(stderr, "%s: error: %s\n", program.c_str(), e.what());
    return 1;
  }
}

}  // namespace tealeaf
