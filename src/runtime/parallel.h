// The public parallel-execution surface of the runtime. This is the ONLY way
// kernels are allowed to use threads: ops never spawn std::thread themselves,
// they express data parallelism as ParallelFor over an index range and the
// process-wide ExecutionContext maps chunks onto its thread pool.
//
// Determinism contract: ParallelFor splits [begin, end) into fixed chunks of
// `grain` indices. Chunk boundaries depend only on (begin, end, grain) — the
// thread count decides scheduling, never partitioning — so a body that writes
// each output index exactly once and accumulates within a chunk in index
// order produces bitwise-identical results at any thread count.
#ifndef URCL_RUNTIME_PARALLEL_H_
#define URCL_RUNTIME_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/thread_annotations.h"
#include "runtime/thread_pool.h"

namespace urcl {
namespace runtime {

// Process-wide execution context owning the kernel thread pool. The default
// thread count is URCL_NUM_THREADS if set, else std::thread's hardware
// concurrency; override programmatically with SetNumThreads or per-binary
// with the shared `--threads` flag (see common/flags.h).
class ExecutionContext {
 public:
  static ExecutionContext& Get();

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  int num_threads();

  // Replaces the pool. Must not be called concurrently with running kernels;
  // values < 1 are clamped to 1.
  void SetNumThreads(int num_threads);

  // Runs body(chunk_begin, chunk_end) over [begin, end) in chunks of `grain`
  // indices (grain < 1 is treated as 1) on RegionLanes(chunks, threads)
  // lanes (thread_pool.h). Blocks until all chunks finish; the first
  // exception thrown by the body is rethrown here. Nested calls (from
  // inside a body) execute serially on the calling thread with the same
  // chunk boundaries.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& body);

 private:
  ExecutionContext();

  // mu_ guards only regions that hand chunks to workers: it serializes them
  // and keeps SetNumThreads from joining a pool mid-region. A one-lane
  // region (every region of a 1-thread pool) reads num_threads_ and runs on
  // the caller without it.
  Mutex mu_;
  std::unique_ptr<ThreadPool> pool_ URCL_GUARDED_BY(mu_);
  std::atomic<int> num_threads_{1};  // pool_->num_threads(), written under mu_
};

// Convenience wrappers over ExecutionContext::Get().
void SetNumThreads(int num_threads);
int GetNumThreads();
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body);

// True while the calling thread is executing a ParallelFor chunk (used by
// ParallelFor itself to serialize nested regions; exposed for tests).
bool InParallelRegion();

}  // namespace runtime
}  // namespace urcl

#endif  // URCL_RUNTIME_PARALLEL_H_
