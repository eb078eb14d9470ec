#include "util/args.hpp"

#include <cstdio>
#include <sstream>

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace tealeaf {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--key value` if the next token is not itself an option; else a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[i + 1];
      ++i;
    } else {
      values_[arg] = "";
    }
  }
}

bool Args::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int Args::get_int(const std::string& name, int fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  return parse_int(it->second, "--" + name);
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  return parse_double(it->second, "--" + name);
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (it->second.empty()) return true;  // bare flag
  return it->second == "1" || it->second == "true" || it->second == "yes" ||
         it->second == "on";
}

std::vector<std::string> split_list(const std::string& value,
                                    const std::string& context) {
  std::vector<std::string> items;
  std::string item;
  std::istringstream in(value);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  TEA_REQUIRE(!items.empty(), "empty list for " + context);
  return items;
}

std::vector<int> split_int_list(const std::string& value,
                                const std::string& context) {
  std::vector<int> items;
  for (const std::string& s : split_list(value, context)) {
    items.push_back(parse_int(s, context));
  }
  return items;
}

int run_main(int argc, const char* const* argv,
             const std::function<int(const Args&)>& body) {
  std::string program = argc > 0 ? argv[0] : "tealeaf";
  program = program.substr(program.find_last_of('/') + 1);
  try {
    return body(Args(argc, argv));
  } catch (const TeaError& e) {
    std::fprintf(stderr, "%s: error: %s\n", program.c_str(), e.what());
    return 1;
  }
}

}  // namespace tealeaf
