#include "runtime/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

namespace urcl {
namespace runtime {
namespace {

thread_local bool t_in_parallel_region = false;

// Saves/restores the flag so nested serial fallbacks do not clear the state
// of the enclosing region on exit.
struct RegionGuard {
  bool previous;
  RegionGuard() : previous(t_in_parallel_region) { t_in_parallel_region = true; }
  ~RegionGuard() { t_in_parallel_region = previous; }
};

int DefaultNumThreads() {
  // lint:allow(banned-call/getenv) URCL_NUM_THREADS, the default pool width.
  if (const char* env = std::getenv("URCL_NUM_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<int>(std::min<long>(parsed, 256));
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

}  // namespace

ExecutionContext::ExecutionContext() {
  MutexLock lock(mu_);
  pool_ = std::make_unique<ThreadPool>(DefaultNumThreads());
  num_threads_.store(pool_->num_threads(), std::memory_order_relaxed);
}

ExecutionContext& ExecutionContext::Get() {
  // Intentionally leaked: worker threads must never outlive their pool, and
  // static-destruction order at exit cannot guarantee that.
  static ExecutionContext* context = new ExecutionContext();
  return *context;
}

int ExecutionContext::num_threads() { return num_threads_.load(std::memory_order_relaxed); }

void ExecutionContext::SetNumThreads(int num_threads) {
  num_threads = std::max(num_threads, 1);
  MutexLock lock(mu_);
  if (pool_->num_threads() == num_threads) return;
  pool_.reset();  // join old workers before spawning the new pool
  pool_ = std::make_unique<ThreadPool>(num_threads);
  num_threads_.store(num_threads, std::memory_order_relaxed);
}

void ExecutionContext::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                                   const std::function<void(int64_t, int64_t)>& body) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const int64_t num_chunks = (end - begin + grain - 1) / grain;
  const auto run_chunk = [&](int64_t chunk) {
    RegionGuard guard;
    const int64_t chunk_begin = begin + chunk * grain;
    body(chunk_begin, std::min(end, chunk_begin + grain));
  };
  if (t_in_parallel_region || num_chunks == 1) {
    // Nested or trivially small region: same chunks, caller's thread.
    for (int64_t chunk = 0; chunk < num_chunks; ++chunk) run_chunk(chunk);
    return;
  }
  if (RegionLanes(num_chunks, num_threads()) == 1) {
    ThreadPool::RunOnCaller(num_chunks, run_chunk);
    return;
  }
  MutexLock lock(mu_);
  pool_->Run(num_chunks, run_chunk);
}

void SetNumThreads(int num_threads) { ExecutionContext::Get().SetNumThreads(num_threads); }

int GetNumThreads() { return ExecutionContext::Get().num_threads(); }

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body) {
  ExecutionContext::Get().ParallelFor(begin, end, grain, body);
}

bool InParallelRegion() { return t_in_parallel_region; }

}  // namespace runtime
}  // namespace urcl
