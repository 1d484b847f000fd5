#include "common/flags.h"

#include <cstdio>
#include <cstdlib>

namespace urcl {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

Flags::Flags(int argc, char** argv) : program_(argc > 0 ? argv[0] : "") {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const {
  read_.emplace(name, "unset");
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name, const std::string& fallback) const {
  read_[name] = "\"" + fallback + "\"";
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t fallback) const {
  read_[name] = std::to_string(fallback);
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  char text[32];
  std::snprintf(text, sizeof(text), "%g", fallback);
  read_[name] = text;
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  read_[name] = fallback ? "true" : "false";
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string Flags::Usage() const {
  std::string usage;
  for (const auto& [name, fallback] : read_) {
    usage += "  --" + name + " (default: " + fallback + ")\n";
  }
  return usage;
}

void Flags::ExitOnUnreadFlags() const {
  if (values_.count("help") > 0) {
    std::fprintf(stdout, "usage: %s [--flag value]...\n%s", program_.c_str(), Usage().c_str());
    std::exit(0);
  }
  bool unread = false;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) > 0) continue;
    std::fprintf(stderr, "%s: unknown flag --%s\n", program_.c_str(), name.c_str());
    unread = true;
  }
  if (unread) {
    std::fprintf(stderr, "run %s --help for the accepted flags\n", program_.c_str());
    std::exit(2);
  }
}

}  // namespace urcl
