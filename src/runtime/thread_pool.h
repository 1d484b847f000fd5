// Deterministic fixed-size thread pool executing indexed chunks of a
// parallel region. Chunk *boundaries* are decided by the caller (ParallelFor)
// from the problem shape alone, never from the pool size, so which elements
// share a chunk is identical at any thread count — the pool only decides
// which thread runs which chunk.
//
// A region pays only for the lanes it uses. A region of n chunks runs on
// RegionLanes(n, threads) lanes: lane 0 is the calling thread and lane i is
// always worker i. Each lane owns the contiguous chunk block
// [i*n/L, (i+1)*n/L) through its own cache-line-aligned cursor, so regions
// over one shape keep the same elements on the same core; a lane that
// empties its block takes chunks from the other lanes' blocks. Only the
// L - 1 workers a region uses are woken, each through its own condition
// variable. Once the caller finds every chunk claimed the region closes: a
// worker that wakes later skips it, and the caller waits only for the
// workers that joined. A one-lane region runs on the caller alone and
// touches no pool state (RunOnCaller), so concurrent callers of one-lane
// regions never serialize.
#ifndef URCL_RUNTIME_THREAD_POOL_H_
#define URCL_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace urcl {
namespace runtime {

// A region gets one lane per this many chunks (rounded up). Waking a worker
// costs about as much CPU as a few small chunks, so a region of up to 4
// chunks runs on the caller alone and one of 5-8 chunks on two lanes.
inline constexpr int64_t kMinChunksPerLane = 4;

// When true, regions may use more lanes than the machine has cores. Default
// false: lanes beyond the core count only add context-switch overhead to
// compute-bound kernels — on a 1-core machine a 4-thread pool ran
// TemporalConv2d ~27% slower than serial. Race-hunting tests (TSan
// hammers) enable it so their interleavings still exercise real
// cross-thread execution on small CI machines.
void SetOversubscribe(bool enabled);
bool OversubscribeEnabled();

// Lanes (the caller included) a region of `num_chunks` chunks runs on in a
// pool of `num_threads` threads: min(num_threads, hardware cores unless
// oversubscribed, ceil(num_chunks / kMinChunksPerLane)), at least 1.
int RegionLanes(int64_t num_chunks, int num_threads);

class ThreadPool {
 public:
  // `num_threads` counts the calling thread: the pool spawns num_threads - 1
  // workers (so 1 means fully serial, no threads are created).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs chunk_fn(0) .. chunk_fn(num_chunks - 1), each exactly once, on
  // RegionLanes(num_chunks, num_threads()) lanes; blocks until every chunk
  // has finished. The first exception thrown by a chunk is rethrown on the
  // calling thread (chunks not yet started are skipped once a chunk has
  // failed). Not reentrant, and a region of more than one lane needs the
  // pool to itself: the caller serializes Run calls (ExecutionContext holds
  // its lock), and nested parallelism is handled one level up by
  // ParallelFor, which runs nested regions serially.
  void Run(int64_t num_chunks, const std::function<void(int64_t)>& chunk_fn);

  // The one-lane region: the same chunks in order on the calling thread,
  // exceptions propagating as-is, counted in the runtime metrics like any
  // region. Thread-safe; needs no pool.
  static void RunOnCaller(int64_t num_chunks, const std::function<void(int64_t)>& chunk_fn);

 private:
  // One lane's block of the current region: chunks [next, end) are
  // unclaimed. Aligned so lanes claiming their own blocks never share a
  // cache line.
  struct alignas(64) Lane {
    std::atomic<int64_t> next{0};
    int64_t end = 0;
  };

  void WorkerLoop(int lane);
  // Claims and runs chunks from lane `lane`'s block, then from the other
  // lanes' blocks, until all `lanes` blocks are empty or a chunk failed.
  void Drain(int lane, int lanes, const std::function<void(int64_t)>& chunk_fn);

  std::unique_ptr<Lane[]> lanes_;    // written by Run before it wakes anyone
  std::unique_ptr<CondVar[]> wake_;  // wake_[i] wakes lane i's worker

  Mutex mu_;
  CondVar done_cv_;
  bool shutdown_ URCL_GUARDED_BY(mu_) = false;
  // Region number each lane's worker was last woken for; a worker that finds
  // it equal to the last region it saw keeps waiting.
  std::vector<uint64_t> posted_ URCL_GUARDED_BY(mu_);
  uint64_t region_ URCL_GUARDED_BY(mu_) = 0;
  // True from the region's hand-off until the caller finds every chunk
  // claimed; a woken worker joins the region only while it is true.
  bool open_ URCL_GUARDED_BY(mu_) = false;
  int joined_ URCL_GUARDED_BY(mu_) = 0;  // workers draining the current region

  // State of the active region; written under mu_ before workers are woken
  // and read back under mu_ by each worker that joins.
  const std::function<void(int64_t)>* chunk_fn_ URCL_GUARDED_BY(mu_) = nullptr;
  int num_lanes_ URCL_GUARDED_BY(mu_) = 0;
  // Region submission timestamp (0 when metrics are off); workers that join
  // observe now - region_start_ns_ as their wake-up latency.
  int64_t region_start_ns_ URCL_GUARDED_BY(mu_) = 0;
  std::atomic<bool> failed_{false};
  std::exception_ptr error_ URCL_GUARDED_BY(mu_);

  // Last, after everything the workers use.
  std::vector<std::thread> workers_;  // workers_[i - 1] runs lane i
};

}  // namespace runtime
}  // namespace urcl

#endif  // URCL_RUNTIME_THREAD_POOL_H_
