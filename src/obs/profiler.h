// Per-op profiler. Hooked into the one place every op runs: the op
// definition's record::OpForward and record::OpBackward (autograd/record.h)
// time each call when ProfilerEnabled(). The tape (Apply, Backward) and the
// compiled plan's thunks both run every op through those two functions, so
// a plan replay charges exactly the tape's per-op cells.
// Ops that delegate entirely to another op (Neg -> MulScalar) attribute
// their time to the inner op.
//
// Records aggregate per op *type* (per-thread shards merged at snapshot):
// wall ns, call count and output bytes, for each direction.
#ifndef URCL_OBS_PROFILER_H_
#define URCL_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/stopwatch.h"
#include "obs/obs.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace urcl {
namespace obs {

struct OpProfile {
  uint64_t forward_calls = 0;
  int64_t forward_ns = 0;
  uint64_t forward_bytes = 0;  // bytes of op outputs (value tensors)
  uint64_t backward_calls = 0;
  int64_t backward_ns = 0;
  uint64_t backward_bytes = 0;  // bytes of upstream gradients consumed
};

namespace internal {

// Fast timestamp for the per-op hot path: raw TSC ticks on x86-64 (a few ns
// per read; converted to wall ns through a one-time calibration against
// MonotonicNowNs), plain monotonic ns elsewhere (TicksToNs is then the
// identity). A clock_gettime pair per op is most of a profiler's overhead at
// ~1.3k records per train step, which is what this dodges.
inline int64_t ProfileTicksNow() {
#if defined(__x86_64__) || defined(_M_X64)
  return static_cast<int64_t>(__rdtsc());
#else
  return MonotonicNowNs();
#endif
}
// Converts a tick interval to nanoseconds (first call calibrates, ~2ms).
int64_t TicksToNs(int64_t ticks);

// Nanoseconds since `start_ticks` (a ProfileTicksNow reading), never
// negative.
inline int64_t ElapsedNs(int64_t start_ticks) {
  const int64_t ns = TicksToNs(ProfileTicksNow() - start_ticks);
  return ns < 0 ? 0 : ns;
}

// Adds one call of `op_name` taking `ns` and moving `bytes` (output bytes
// forward, upstream-gradient bytes backward) to this thread's cell.
void RecordForward(std::string_view op_name, int64_t ns, uint64_t bytes);
void RecordBackward(std::string_view op_name, int64_t ns, uint64_t bytes);

}  // namespace internal

// Aggregated per-op-type table, merged across threads, op name ascending.
std::map<std::string, OpProfile> ProfilerSnapshot();
void ResetProfiler();

// Human-readable table (op, calls, total ms, mean us, MB moved, fwd/bwd).
std::string ProfilerTable();
// JSON: {"ops":{"matmul":{"forward":{"calls":..,"ns":..,"bytes":..},
// "backward":{...}}, ...}}
std::string ProfilerJson();

}  // namespace obs
}  // namespace urcl

#endif  // URCL_OBS_PROFILER_H_
