// Minimal command-line flag parsing for the benchmark/example binaries.
// Supports `--name value` and `--name=value` forms with typed lookups.
#ifndef URCL_COMMON_FLAGS_H_
#define URCL_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

namespace urcl {

// Parses flags once at startup. Every Has / Get* call notes the flag it asks
// for (with its default), so after a binary's last read ExitOnUnreadFlags can
// answer --help and reject flags nothing asked for.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name, const std::string& fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  // The flags read so far, one "  --name (default: value)" line each.
  std::string Usage() const;

  // Call once after the last read and before any work. With --help, prints
  // Usage() to stdout and exits 0; otherwise, if any given flag was never
  // read, names each on stderr and exits 2.
  void ExitOnUnreadFlags() const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  // Each flag asked for -> its default as text.
  mutable std::map<std::string, std::string> read_;
};

// ApplyRuntimeFlags — the startup glue that pushes parsed flags into the
// runtime/obs layers — lives in runtime/runtime_flags.h: common/ sits at the
// bottom of the layer DAG and may not reach upward (tools/lint/layering.cc).

}  // namespace urcl

#endif  // URCL_COMMON_FLAGS_H_
