#include "obs/obs.h"

#include <cstdlib>
#include <fstream>

#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace urcl {
namespace obs {
namespace {

struct OutputPaths {
  Mutex mu;
  std::string metrics URCL_GUARDED_BY(mu);
  std::string trace URCL_GUARDED_BY(mu);
  std::string profile URCL_GUARDED_BY(mu);
};

OutputPaths& Paths() {
  static OutputPaths* paths = new OutputPaths();
  return *paths;
}

void SetFlag(uint32_t bit, bool enabled) {
  if (enabled) {
    internal::g_flags.fetch_or(bit, std::memory_order_relaxed);
  } else {
    internal::g_flags.fetch_and(~bit, std::memory_order_relaxed);
  }
}

Status WriteStringToFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Error("cannot open output file: " + path);
  out << content;
  out.flush();
  if (!out) return Status::Error("failed writing output file: " + path);
  return Status::Ok();
}

}  // namespace

void Configure(const ObsConfig& config) {
  SetFlag(internal::kMetricsBit, config.metrics);
  SetFlag(internal::kTraceBit, config.trace);
  SetFlag(internal::kProfilerBit, config.profiler);
}

ObsConfig Current() {
  const uint32_t flags = internal::g_flags.load(std::memory_order_relaxed);
  ObsConfig config;
  config.metrics = (flags & internal::kMetricsBit) != 0;
  config.trace = (flags & internal::kTraceBit) != 0;
  config.profiler = (flags & internal::kProfilerBit) != 0;
  return config;
}

void InitFromEnv() {
  // lint:allow(banned-call/getenv) URCL_OBS, the observability switch.
  const char* env = std::getenv("URCL_OBS");
  if (env == nullptr) return;
  const std::string value(env);
  if (value == "0" || value == "off" || value == "OFF" || value == "false" ||
      value.empty()) {
    Configure(ObsConfig{});
    return;
  }
  if (value == "1" || value == "on" || value == "all" || value == "true") {
    Configure(ObsConfig{true, true, true});
    return;
  }
  ObsConfig config;
  size_t start = 0;
  while (start <= value.size()) {
    size_t comma = value.find(',', start);
    if (comma == std::string::npos) comma = value.size();
    const std::string token = value.substr(start, comma - start);
    if (token == "metrics") config.metrics = true;
    if (token == "trace") config.trace = true;
    if (token == "profile" || token == "profiler") config.profiler = true;
    start = comma + 1;
  }
  Configure(config);
}

void SetMetricsOutPath(std::string path) {
  const bool enable = !path.empty();
  {
    MutexLock lock(Paths().mu);
    Paths().metrics = std::move(path);
  }
  if (enable) SetFlag(internal::kMetricsBit, true);
}

void SetTraceOutPath(std::string path) {
  const bool enable = !path.empty();
  {
    MutexLock lock(Paths().mu);
    Paths().trace = std::move(path);
  }
  if (enable) SetFlag(internal::kTraceBit, true);
}

void SetProfileOutPath(std::string path) {
  const bool enable = !path.empty();
  {
    MutexLock lock(Paths().mu);
    Paths().profile = std::move(path);
  }
  if (enable) SetFlag(internal::kProfilerBit, true);
}

std::vector<std::string> WriteConfiguredOutputs(std::vector<std::string>* errors) {
  std::string metrics_path;
  std::string trace_path;
  std::string profile_path;
  {
    MutexLock lock(Paths().mu);
    metrics_path = Paths().metrics;
    trace_path = Paths().trace;
    profile_path = Paths().profile;
  }
  std::vector<std::string> written;
  const auto write = [&](const std::string& path, const std::string& content) {
    if (path.empty()) return;
    const Status status = WriteStringToFile(path, content);
    if (status.ok()) {
      written.push_back(path);
    } else if (errors != nullptr) {
      errors->push_back(status.message());
    }
  };
  write(metrics_path, MetricsRegistry::Get().ToPrometheus());
  write(trace_path, ChromeTraceJson());
  write(profile_path, ProfilerJson());
  return written;
}

}  // namespace obs
}  // namespace urcl
