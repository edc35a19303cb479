#include "util/flags.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"

namespace spmap {

namespace {

bool is_flag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

/// An integer flag value, held to Json::as_int's bound so that a tool can
/// write every value it reads (a seed, say) into its JSON report exactly.
std::int64_t parse_int(const std::string& name, const std::string& text) {
  std::int64_t value = 0;
  try {
    value = std::stoll(text);
  } catch (const std::exception&) {
    throw Error("flag --" + name + " expects an integer, got: " + text);
  }
  constexpr auto kMax = static_cast<std::int64_t>(Json::kMaxExactInteger);
  require(value >= -kMax && value <= kMax,
          "flag --" + name + " must be at most 2^53 in magnitude, got: " +
              text);
  return value;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv,
             const std::vector<std::string>& known) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!is_flag(arg)) {
      throw Error("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      // `--name value` if the next token is not itself a flag; bare bool
      // otherwise.
      if (i + 1 < argc && !is_flag(argv[i + 1])) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw Error("unknown flag: --" + name);
    }
    values_[name] = value;
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_int(name, it->second);
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw Error("flag --" + name + " expects a number, got: " + it->second);
  }
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw Error("flag --" + name + " expects a boolean, got: " + v);
}

std::vector<std::int64_t> Flags::get_int_list(
    const std::string& name, const std::vector<std::int64_t>& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  std::stringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    out.push_back(parse_int(name, item));
  }
  return out;
}

}  // namespace spmap
