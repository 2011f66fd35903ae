#include "common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace approxmem {
namespace {

/// Exits with status 2 unless strtoll/strtod consumed all of `value`
/// without overflowing.
void RequireFullParse(const std::string& name, const std::string& value,
                      const char* end, const char* expected) {
  if (!value.empty() && *end == '\0' && errno != ERANGE) return;
  std::fprintf(stderr, "invalid value for --%s: '%s' (expected %s)\n",
               name.c_str(), value.c_str(), expected);
  std::exit(2);
}

}  // namespace

StatusOr<Flags> Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      return Status::InvalidArgument("unexpected argument: " +
                                     std::string(arg));
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags.values_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
      continue;
    }
    // "--name value" when the next token is not itself a flag; otherwise a
    // boolean "--name".
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      flags.values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      flags.values_[std::string(arg)] = "true";
    }
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  RequireFullParse(name, it->second, end, "an integer");
  return value;
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(it->second.c_str(), &end);
  RequireFullParse(name, it->second, end, "a number");
  return value;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second != "false" && it->second != "0";
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

size_t Flags::EnvSize(const char* var, size_t def) {
  const char* v = std::getenv(var);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v) return def;
  return static_cast<size_t>(parsed);
}

}  // namespace approxmem
