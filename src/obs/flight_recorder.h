// Black-box flight recorder: an always-on, lock-striped bounded ring of
// structured lifecycle events (snapshot publish/admit/quarantine, hot-swap,
// rollback, health transitions, plan compile/fallback, checkpoint write,
// non-finite quarantine, deadline shed, lame-duck, fatal abort). Unlike the
// metrics registry it is NOT gated on obs::MetricsEnabled: the events it
// records are rare (per-publish / per-incident, never per-element), so
// "always on" costs a stripe-local mutex acquire and a fixed-size record
// copy — and the recorder is exactly what must exist when an incident
// happens on a process that was not started with URCL_OBS=1.
//
// Records are pre-formatted and fixed-size (no allocation on the record
// path): a monotone sequence number, a monotonic timestamp, the request
// trace ID active on the recording thread (obs::CurrentTraceId — links an
// event to the query that triggered it), two type-specific int64 operands
// and a truncating detail string.
//
// Dumps: JSONL, one event per line, oldest first. The serving layer dumps
// automatically on rollback, LAME_DUCK entry and fatal abort (URCL_CHECK
// failure); tools/obs/urcl_blackbox filters and pretty-prints dumps offline.
// The dump directory comes from SetDumpDir or the URCL_BLACKBOX_DIR env var
// (default: current directory); auto-dump filenames are deterministic per
// reason ("urcl_blackbox.<reason>.jsonl") so forensics and tests know where
// to look.
#ifndef URCL_OBS_FLIGHT_RECORDER_H_
#define URCL_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace urcl {
namespace obs {

enum class FlightEventType : uint8_t {
  kSnapshotPublish = 0,   // a: version, b: stage (trainer side)
  kSnapshotAdmit = 1,     // a: version (passed the admission gate)
  kSnapshotQuarantine = 2,  // detail: admission failure message
  kHotSwap = 3,           // a: new live version
  kRollback = 4,          // a: bad version, b: restored version (-1 = none)
  kHealthTransition = 5,  // a: previous HealthState, b: new HealthState
  // Plan events come from exec::PlanCache::Run, once per capture: detail
  // "<family>: <shape key>" on compile, "<family>: <capture error>" on
  // fallback; also on a fallback for a held gradient, "<family>:
  // parameter <i> <shape> holds a gradient". Family serve (a: snapshot
  // version) or the trainer's train, virtual and per_item (a: stage, b: step).
  kPlanCompile = 6,       // a compiled plan now serves this shape
  kPlanFallback = 7,      // the capture failed (this shape stays on the tape),
                          // or a held gradient sent one call to the tape
  kCheckpointWrite = 8,   // a: stage, b: step; detail: path tail
  kNonFiniteQuarantine = 10,  // a: version/stage, b: step; detail: which gate
  kDeadlineShed = 11,     // a: estimated ns, b: deadline ns
  kLameDuck = 12,         // terminal drain began
  kFatalAbort = 13,       // detail: URCL_CHECK failure message
};

// Stable lowercase name used in dumps ("rollback", "hot_swap", ...).
const char* FlightEventTypeName(FlightEventType type);

struct FlightEvent {
  uint64_t seq = 0;      // global order across stripes (monotone)
  int64_t ts_ns = 0;     // MonotonicNowNs at record time
  uint64_t trace_id = 0; // requester's trace ID; 0 = not request-scoped
  FlightEventType type = FlightEventType::kFatalAbort;
  int64_t a = 0;         // type-specific operands (see the enum)
  int64_t b = 0;
  char detail[56] = {0}; // truncating copy, always NUL-terminated
};

class FlightRecorder {
 public:
  // Process-wide instance (leaked). First use installs the fatal-abort hook
  // (common/check.h) that records kFatalAbort and dumps before abort().
  static FlightRecorder& Get();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Records one event into the calling thread's stripe. `detail` may be
  // nullptr; longer strings are truncated to the record's fixed field.
  void Record(FlightEventType type, int64_t a = 0, int64_t b = 0,
              const char* detail = nullptr);

  // All buffered events, oldest first (sorted by sequence number).
  std::vector<FlightEvent> Snapshot() const;

  // One JSON object per line:
  // {"seq":..,"ts_ns":..,"type":"rollback","trace_id":"0x..","a":..,"b":..,
  //  "detail":".."}
  std::string ToJsonl() const;
  Status DumpToFile(const std::string& path) const;

  // Writes "<dump_dir>/urcl_blackbox.<reason>.jsonl" (overwriting: the
  // latest incident of each kind wins). Returns the path written, or an
  // empty string when the write failed (auto-dump must never take the
  // process down harder than the incident already has).
  std::string AutoDump(const char* reason);

  // Overrides the dump directory (tests, embedding servers). Empty resets to
  // the URCL_BLACKBOX_DIR env var / current directory default.
  void SetDumpDir(std::string dir);

  void Clear();                 // empties every stripe (capacity kept)
  uint64_t events_recorded() const;  // total ever recorded (incl. overwritten)
  uint64_t dumps_written() const;
  std::string last_dump_path() const;

 private:
  FlightRecorder();
  struct Impl;
  Impl* impl_;  // leaked with the singleton
};

// Convenience wrapper: FlightRecorder::Get().Record(...), trace ID picked up
// from the calling thread automatically inside Record.
inline void RecordFlightEvent(FlightEventType type, int64_t a = 0, int64_t b = 0,
                              const char* detail = nullptr) {
  FlightRecorder::Get().Record(type, a, b, detail);
}

}  // namespace obs
}  // namespace urcl

#endif  // URCL_OBS_FLIGHT_RECORDER_H_
