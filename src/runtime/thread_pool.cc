#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace urcl {
namespace runtime {
namespace {

std::atomic<bool> g_oversubscribe{false};

int HardwareThreads() {
  static const int threads = [] {
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : static_cast<int>(hardware);
  }();
  return threads;
}

// Registry handles for the pool's metrics, resolved once. Updates are gated
// on obs::MetricsEnabled() so a disabled build pays one relaxed load per
// region.
struct RuntimeMetrics {
  obs::Counter& regions;
  obs::Counter& chunks;
  obs::Histogram& region_ns;
  obs::Histogram& region_lanes;
  obs::Histogram& wake_delay_ns;
};

RuntimeMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Get();
  static RuntimeMetrics* metrics = new RuntimeMetrics{
      registry.GetCounter("urcl.runtime.parallel_regions"),
      registry.GetCounter("urcl.runtime.chunks"),
      registry.GetHistogram("urcl.runtime.region_ns",
                            obs::ExponentialBuckets(1024, 4, 12)),
      registry.GetHistogram("urcl.runtime.region_lanes",
                            {1, 2, 3, 4, 8, 16, 32, 64, 128, 256}),
      registry.GetHistogram("urcl.runtime.wake_delay_ns",
                            obs::ExponentialBuckets(256, 4, 12)),
  };
  return *metrics;
}

void RecordRegion(int64_t num_chunks, int lanes, int64_t start_ns) {
  RuntimeMetrics& m = Metrics();
  m.regions.Add(1);
  m.chunks.Add(static_cast<uint64_t>(num_chunks));
  m.region_ns.Observe(static_cast<double>(MonotonicNowNs() - start_ns));
  m.region_lanes.Observe(static_cast<double>(lanes));
}

}  // namespace

void SetOversubscribe(bool enabled) {
  g_oversubscribe.store(enabled, std::memory_order_relaxed);
}

bool OversubscribeEnabled() { return g_oversubscribe.load(std::memory_order_relaxed); }

int RegionLanes(int64_t num_chunks, int num_threads) {
  int64_t lanes = std::min<int64_t>(num_threads,
                                    (num_chunks + kMinChunksPerLane - 1) / kMinChunksPerLane);
  if (!OversubscribeEnabled()) lanes = std::min<int64_t>(lanes, HardwareThreads());
  return static_cast<int>(std::max<int64_t>(lanes, 1));
}

ThreadPool::ThreadPool(int num_threads) {
  const int lanes = std::max(num_threads, 1);
  lanes_ = std::make_unique<Lane[]>(static_cast<size_t>(lanes));
  wake_ = std::make_unique<CondVar[]>(static_cast<size_t>(lanes));
  {
    MutexLock lock(mu_);
    posted_.assign(static_cast<size_t>(lanes), 0);
  }
  workers_.reserve(static_cast<size_t>(lanes - 1));
  for (int lane = 1; lane < lanes; ++lane) {
    workers_.emplace_back([this, lane] { WorkerLoop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  for (int lane = 1; lane < num_threads(); ++lane) wake_[lane].NotifyOne();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Drain(int lane, int lanes, const std::function<void(int64_t)>& chunk_fn) {
  for (int offset = 0; offset < lanes; ++offset) {
    Lane& block = lanes_[(lane + offset) % lanes];
    while (!failed_.load(std::memory_order_relaxed) &&
           block.next.load(std::memory_order_relaxed) < block.end) {
      const int64_t chunk = block.next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= block.end) break;
      try {
        chunk_fn(chunk);
      } catch (...) {
        MutexLock lock(mu_);
        if (!error_) error_ = std::current_exception();
        failed_.store(true, std::memory_order_relaxed);
      }
    }
  }
}

void ThreadPool::WorkerLoop(int lane) {
  uint64_t seen_region = 0;
  bool named = false;
  for (;;) {
    const std::function<void(int64_t)>* chunk_fn = nullptr;
    int lanes = 0;
    int64_t region_start_ns = 0;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && posted_[lane] == seen_region) wake_[lane].Wait(mu_);
      if (shutdown_) return;
      seen_region = posted_[lane];
      // Woken after the caller found every chunk claimed: nothing to join.
      if (!open_ || seen_region != region_) continue;
      ++joined_;
      chunk_fn = chunk_fn_;
      lanes = num_lanes_;
      region_start_ns = region_start_ns_;
    }
    // Lazily label this thread in the trace once tracing is actually on, so
    // idle workers never allocate a trace ring.
    if (!named && obs::TraceEnabled()) {
      obs::SetThreadName("worker-" + std::to_string(lane));
      named = true;
    }
    if (region_start_ns != 0 && obs::MetricsEnabled()) {
      Metrics().wake_delay_ns.Observe(
          static_cast<double>(MonotonicNowNs() - region_start_ns));
    }
    Drain(lane, lanes, *chunk_fn);
    bool last;
    {
      MutexLock lock(mu_);
      last = --joined_ == 0 && !open_;
    }
    if (last) done_cv_.NotifyOne();
  }
}

void ThreadPool::RunOnCaller(int64_t num_chunks,
                             const std::function<void(int64_t)>& chunk_fn) {
  const bool metrics = obs::MetricsEnabled();
  const int64_t start_ns = metrics ? MonotonicNowNs() : 0;
  for (int64_t chunk = 0; chunk < num_chunks; ++chunk) chunk_fn(chunk);
  if (metrics) RecordRegion(num_chunks, 1, start_ns);
}

void ThreadPool::Run(int64_t num_chunks, const std::function<void(int64_t)>& chunk_fn) {
  if (num_chunks <= 0) return;
  const int lanes = RegionLanes(num_chunks, num_threads());
  if (lanes == 1) {
    RunOnCaller(num_chunks, chunk_fn);
    return;
  }
  const bool metrics = obs::MetricsEnabled();
  const int64_t start_ns = metrics ? MonotonicNowNs() : 0;
  // Every worker of the previous region has left (Run waited for them), so
  // the blocks are rewritten without a lock; the hand-off below publishes
  // them to the workers that join.
  for (int lane = 0; lane < lanes; ++lane) {
    lanes_[lane].next.store(num_chunks * lane / lanes, std::memory_order_relaxed);
    lanes_[lane].end = num_chunks * (lane + 1) / lanes;
  }
  failed_.store(false, std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    chunk_fn_ = &chunk_fn;
    num_lanes_ = lanes;
    region_start_ns_ = start_ns;
    error_ = nullptr;
    open_ = true;
    ++region_;
    for (int lane = 1; lane < lanes; ++lane) posted_[lane] = region_;
  }
  for (int lane = 1; lane < lanes; ++lane) wake_[lane].NotifyOne();
  Drain(0, lanes, chunk_fn);
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    open_ = false;
    while (joined_ != 0) done_cv_.Wait(mu_);
    chunk_fn_ = nullptr;
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
  if (metrics) RecordRegion(num_chunks, lanes, start_ns);
}

}  // namespace runtime
}  // namespace urcl
