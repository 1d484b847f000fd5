// Minimal command-line flag parsing for the benchmark/example binaries.
// Supports `--name value`, `--name=value` and a bare `--name` (given, with no
// value) with typed lookups.
#ifndef URCL_COMMON_FLAGS_H_
#define URCL_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace urcl {

// Parses flags once at startup. Every Has / Get* call notes the flag it asks
// for (with its default), so after a binary's last read ExitOnUnreadFlags can
// answer --help and reject flags nothing asked for or could not read.
class Flags {
 public:
  Flags(int argc, char** argv);

  // True when the flag was given, with or without a value.
  bool Has(const std::string& name) const;
  // The flag's value; `fallback` when it was not given or given without one.
  std::string GetString(const std::string& name, const std::string& fallback) const;
  // The flag's value as a whole number; `fallback` when it was not given, or
  // given without a whole number, which ExitOnUnreadFlags reports as an error.
  int64_t GetInt(const std::string& name, int64_t fallback) const;

  // The flags read so far, one "  --name (default: value)" line each.
  std::string Usage() const;

  // Call once after the last read and before any work. With --help, prints
  // Usage() to stdout and exits 0; otherwise, if any given flag was never
  // read or held no value its read could use, names each and exits 2.
  void ExitOnUnreadFlags() const;

 private:
  std::string program_;
  // Each given flag -> its value; empty for a flag given without one.
  std::map<std::string, std::optional<std::string>> values_;
  // Each flag asked for -> its default as text.
  mutable std::map<std::string, std::string> read_;
  // Each flag GetInt could not read -> why.
  mutable std::map<std::string, std::string> errors_;
};

// ApplyRuntimeFlags — the startup glue that pushes parsed flags into the
// runtime/obs layers — lives in runtime/runtime_flags.h: common/ sits at the
// bottom of the layer DAG and may not reach upward (tools/lint/layering.cc).

}  // namespace urcl

#endif  // URCL_COMMON_FLAGS_H_
