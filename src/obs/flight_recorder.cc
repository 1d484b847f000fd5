#include "obs/flight_recorder.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "common/stopwatch.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace urcl {
namespace obs {
namespace {

// 8 stripes x 512 slots = 4096 buffered events. Lifecycle events arrive at
// per-publish / per-incident rates, so this spans hours of serving history;
// the stripes exist so concurrent query threads recording sheds/quarantines
// never contend on one lock.
constexpr size_t kFlightStripes = 8;
constexpr size_t kFlightStripeCapacity = 512;

struct FlightStripe {
  mutable Mutex mu;
  std::array<FlightEvent, kFlightStripeCapacity> ring URCL_GUARDED_BY(mu);
  size_t next URCL_GUARDED_BY(mu) = 0;
  size_t size URCL_GUARDED_BY(mu) = 0;
};

}  // namespace

const char* FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kSnapshotPublish: return "snapshot_publish";
    case FlightEventType::kSnapshotAdmit: return "snapshot_admit";
    case FlightEventType::kSnapshotQuarantine: return "snapshot_quarantine";
    case FlightEventType::kHotSwap: return "hot_swap";
    case FlightEventType::kRollback: return "rollback";
    case FlightEventType::kHealthTransition: return "health_transition";
    case FlightEventType::kPlanCompile: return "plan_compile";
    case FlightEventType::kPlanFallback: return "plan_fallback";
    case FlightEventType::kCheckpointWrite: return "checkpoint_write";
    case FlightEventType::kNonFiniteQuarantine: return "nonfinite_quarantine";
    case FlightEventType::kDeadlineShed: return "deadline_shed";
    case FlightEventType::kLameDuck: return "lame_duck";
    case FlightEventType::kFatalAbort: return "fatal_abort";
  }
  return "unknown";
}

struct FlightRecorder::Impl {
  std::array<FlightStripe, kFlightStripes> stripes;
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> dumps{0};
  mutable Mutex dump_mu;
  // Dump directory (empty = env / cwd default) and last written path.
  std::string dump_dir URCL_GUARDED_BY(dump_mu);
  std::string last_dump_path URCL_GUARDED_BY(dump_mu);
};

namespace {

// The fatal-abort path: record the failure itself, then flush everything the
// recorder holds next to the crashing process. Runs under the check layer's
// re-entrancy guard; failures to write are swallowed (the process is already
// aborting).
void FlightAbortHook(const char* file, int line, const char* message) {
  char detail[sizeof(FlightEvent{}.detail)];
  std::snprintf(detail, sizeof(detail), "%s:%d %s", file, line,
                message != nullptr ? message : "");
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Record(FlightEventType::kFatalAbort, 0, 0, detail);
  recorder.AutoDump("fatal");
}

}  // namespace

FlightRecorder::FlightRecorder() : impl_(new Impl()) {
  urcl::internal::SetCheckFailureHook(&FlightAbortHook);
}

FlightRecorder& FlightRecorder::Get() {
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

void FlightRecorder::Record(FlightEventType type, int64_t a, int64_t b,
                            const char* detail) {
  const uint64_t seq = impl_->seq.fetch_add(1, std::memory_order_relaxed);
  FlightStripe& stripe = impl_->stripes[internal::ThreadShardIndex()];
  MutexLock lock(stripe.mu);
  FlightEvent& slot = stripe.ring[stripe.next];
  slot.seq = seq;
  slot.ts_ns = MonotonicNowNs();
  slot.trace_id = CurrentTraceId();
  slot.type = type;
  slot.a = a;
  slot.b = b;
  if (detail != nullptr) {
    std::strncpy(slot.detail, detail, sizeof(slot.detail) - 1);
    slot.detail[sizeof(slot.detail) - 1] = '\0';
  } else {
    slot.detail[0] = '\0';
  }
  stripe.next = (stripe.next + 1) % stripe.ring.size();
  if (stripe.size < stripe.ring.size()) ++stripe.size;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> events;
  for (const FlightStripe& stripe : impl_->stripes) {
    MutexLock lock(stripe.mu);
    const size_t capacity = stripe.ring.size();
    const size_t start = (stripe.next + capacity - stripe.size) % capacity;
    for (size_t i = 0; i < stripe.size; ++i) {
      events.push_back(stripe.ring[(start + i) % capacity]);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& x, const FlightEvent& y) { return x.seq < y.seq; });
  return events;
}

std::string FlightRecorder::ToJsonl() const {
  const std::vector<FlightEvent> events = Snapshot();
  std::ostringstream out;
  for (const FlightEvent& event : events) {
    out << "{\"seq\":" << event.seq << ",\"ts_ns\":" << event.ts_ns << ",\"type\":\""
        << FlightEventTypeName(event.type) << "\"";
    if (event.trace_id != 0) {
      char hex[24];
      std::snprintf(hex, sizeof(hex), "0x%llx",
                    static_cast<unsigned long long>(event.trace_id));
      out << ",\"trace_id\":\"" << hex << "\"";
    }
    out << ",\"a\":" << event.a << ",\"b\":" << event.b;
    if (event.detail[0] != '\0') {
      out << ",\"detail\":" << JsonString(event.detail);
    }
    out << "}\n";
  }
  return out.str();
}

Status FlightRecorder::DumpToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Error("cannot open blackbox dump file: " + path);
  out << ToJsonl();
  out.flush();
  if (!out) return Status::Error("failed writing blackbox dump file: " + path);
  return Status::Ok();
}

std::string FlightRecorder::AutoDump(const char* reason) {
  std::string dir;
  {
    MutexLock lock(impl_->dump_mu);
    dir = impl_->dump_dir;
  }
  if (dir.empty()) {
    if (const char* env = std::getenv("URCL_BLACKBOX_DIR")) dir = std::string(env);
  }
  if (dir.empty()) dir = std::string(".");
  const std::string path =
      dir + "/urcl_blackbox." + (reason != nullptr ? reason : "dump") + ".jsonl";
  const Status status = DumpToFile(path);
  if (!status.ok()) {
    std::fprintf(stderr, "[urcl.obs] blackbox auto-dump failed: %s\n",
                 status.ToString().c_str());
    return std::string();
  }
  impl_->dumps.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(impl_->dump_mu);
    impl_->last_dump_path = path;
  }
  std::fprintf(stderr, "[urcl.obs] flight recorder dumped to %s (%s)\n", path.c_str(),
               reason != nullptr ? reason : "dump");
  return path;
}

void FlightRecorder::SetDumpDir(std::string dir) {
  MutexLock lock(impl_->dump_mu);
  impl_->dump_dir = std::move(dir);
}

void FlightRecorder::Clear() {
  for (FlightStripe& stripe : impl_->stripes) {
    MutexLock lock(stripe.mu);
    stripe.next = 0;
    stripe.size = 0;
  }
}

uint64_t FlightRecorder::events_recorded() const {
  return impl_->seq.load(std::memory_order_relaxed);
}

uint64_t FlightRecorder::dumps_written() const {
  return impl_->dumps.load(std::memory_order_relaxed);
}

std::string FlightRecorder::last_dump_path() const {
  MutexLock lock(impl_->dump_mu);
  return impl_->last_dump_path;
}

}  // namespace obs
}  // namespace urcl
