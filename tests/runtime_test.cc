// Tests for the parallel runtime (runtime/parallel.h): pool lifecycle,
// deterministic chunking, lane sizing and chunk stealing, lock-free
// one-lane regions, exception propagation, nested-call safety, and the
// determinism contract — kernels must produce bitwise-identical results at
// any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "runtime/parallel.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace {

namespace ag = ::urcl::autograd;
namespace top = ::urcl::ops;
using ag::Variable;

// Restores the global thread count on scope exit so tests do not leak state.
// Also forces oversubscription for its scope: these tests exist to exercise
// real cross-thread pool execution, which the hardware-concurrency cap would
// silently serialize on single-core CI machines.
class ThreadCountGuard {
 public:
  ThreadCountGuard()
      : saved_(runtime::GetNumThreads()),
        saved_oversubscribe_(runtime::OversubscribeEnabled()) {
    runtime::SetOversubscribe(true);
  }
  ~ThreadCountGuard() {
    runtime::SetOversubscribe(saved_oversubscribe_);
    runtime::SetNumThreads(saved_);
  }

 private:
  int saved_;
  bool saved_oversubscribe_;
};

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.NumElements()) * sizeof(float)) == 0;
}

// Waits up to 5 s for `flag`; true if it was set in time.
bool AwaitFlag(const std::atomic<bool>& flag) {
  const Stopwatch waited;
  while (!flag.load() && waited.ElapsedSeconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return flag.load();
}

TEST(RuntimeTest, SetAndGetNumThreads) {
  ThreadCountGuard guard;
  runtime::SetNumThreads(3);
  EXPECT_EQ(runtime::GetNumThreads(), 3);
  runtime::SetNumThreads(1);
  EXPECT_EQ(runtime::GetNumThreads(), 1);
  // Clamped to at least one thread.
  runtime::SetNumThreads(0);
  EXPECT_EQ(runtime::GetNumThreads(), 1);
  runtime::SetNumThreads(-5);
  EXPECT_EQ(runtime::GetNumThreads(), 1);
}

TEST(RuntimeTest, ParallelForCoversRangeExactlyOnce) {
  ThreadCountGuard guard;
  for (const int threads : {1, 2, 4}) {
    runtime::SetNumThreads(threads);
    std::vector<std::atomic<int>> hits(103);
    runtime::ParallelFor(0, 103, 7, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(RuntimeTest, ChunkBoundariesIndependentOfThreadCount) {
  ThreadCountGuard guard;
  // The set of [begin, end) chunks must depend only on (begin, end, grain).
  auto collect = [](int threads) {
    runtime::SetNumThreads(threads);
    std::mutex mu;
    std::set<std::pair<int64_t, int64_t>> chunks;
    runtime::ParallelFor(5, 100, 13, [&](int64_t begin, int64_t end) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace(begin, end);
    });
    return chunks;
  };
  const auto serial = collect(1);
  EXPECT_EQ(serial.size(), 8u);  // ceil(95 / 13)
  EXPECT_EQ(serial.begin()->first, 5);
  EXPECT_EQ(serial.rbegin()->second, 100);
  EXPECT_EQ(collect(2), serial);
  EXPECT_EQ(collect(4), serial);
}

TEST(RuntimeTest, EmptyAndTinyRanges) {
  ThreadCountGuard guard;
  runtime::SetNumThreads(4);
  int calls = 0;
  runtime::ParallelFor(3, 3, 8, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> covered{0};
  runtime::ParallelFor(0, 1, 1024, [&](int64_t begin, int64_t end) {
    covered.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(covered.load(), 1);
}

TEST(RuntimeTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadCountGuard guard;
  for (const int threads : {1, 4}) {
    runtime::SetNumThreads(threads);
    EXPECT_THROW(runtime::ParallelFor(0, 64, 1,
                                      [&](int64_t begin, int64_t) {
                                        if (begin == 17) throw std::runtime_error("boom");
                                      }),
                 std::runtime_error);
    // The pool must be reusable after an exception.
    std::atomic<int64_t> total{0};
    runtime::ParallelFor(0, 64, 4, [&](int64_t begin, int64_t end) {
      total.fetch_add(end - begin);
    });
    EXPECT_EQ(total.load(), 64) << "after exception at " << threads << " threads";
  }
}

TEST(RuntimeTest, NestedParallelForRunsSerially) {
  ThreadCountGuard guard;
  runtime::SetNumThreads(4);
  EXPECT_FALSE(runtime::InParallelRegion());
  std::atomic<int64_t> inner_total{0};
  std::atomic<bool> saw_region{false};
  runtime::ParallelFor(0, 8, 1, [&](int64_t, int64_t) {
    if (runtime::InParallelRegion()) saw_region.store(true);
    // Nested call must not deadlock; it runs serially on the calling thread.
    runtime::ParallelFor(0, 10, 3, [&](int64_t begin, int64_t end) {
      inner_total.fetch_add(end - begin);
    });
  });
  EXPECT_TRUE(saw_region.load());
  EXPECT_FALSE(runtime::InParallelRegion());
  EXPECT_EQ(inner_total.load(), 8 * 10);
}

TEST(RuntimeTest, HardwareCapSkipsWorkersWithoutLosingChunks) {
  ThreadCountGuard guard;  // the guard forces oversubscription; turn it off
  runtime::SetNumThreads(8);
  runtime::SetOversubscribe(false);
  // With the cap active, a pool wider than the machine runs a region on at
  // most as many lanes as there are cores; the excess workers are never
  // woken. Coverage and pool reuse across many regions must be unaffected.
  for (int region = 0; region < 50; ++region) {
    std::vector<std::atomic<int>> hits(37);
    runtime::ParallelFor(0, 37, 3, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "region " << region << " index " << i;
    }
  }
  // Flipping oversubscription back on mid-stream re-engages every worker.
  runtime::SetOversubscribe(true);
  std::atomic<int64_t> total{0};
  runtime::ParallelFor(0, 64, 1,
                       [&](int64_t begin, int64_t end) { total.fetch_add(end - begin); });
  EXPECT_EQ(total.load(), 64);
}

TEST(RuntimeTest, RegionLanesFollowTheChunkCount) {
  ThreadCountGuard guard;  // oversubscribed: the core count does not cap lanes
  EXPECT_EQ(runtime::RegionLanes(1, 4), 1);
  EXPECT_EQ(runtime::RegionLanes(runtime::kMinChunksPerLane, 4), 1);
  EXPECT_EQ(runtime::RegionLanes(runtime::kMinChunksPerLane + 1, 4), 2);
  EXPECT_EQ(runtime::RegionLanes(64, 4), 4);
  EXPECT_EQ(runtime::RegionLanes(64, 1), 1);
  EXPECT_EQ(runtime::RegionLanes(1000, 256), 250);
}

// Lane 0 (the caller) owns chunks [0, 4) of this 16-chunk, 4-lane region
// and stalls in its first chunk; the other lanes take the rest of its block.
TEST(RuntimeTest, StolenChunksCoverTheRangeExactlyOnce) {
  ThreadCountGuard guard;
  runtime::SetNumThreads(4);
  ASSERT_EQ(runtime::RegionLanes(16, 4), 4);
  for (const int64_t slow_chunk : {0, 5, 15}) {
    std::vector<std::atomic<int>> hits(16);
    runtime::ParallelFor(0, 16, 1, [&](int64_t begin, int64_t end) {
      if (begin == slow_chunk) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      for (int64_t i = begin; i < end; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with chunk " << slow_chunk << " slow";
    }
  }
}

// Every region of a 1-thread pool runs on its caller without the context
// lock, so two callers' regions overlap in time: chunk A waits for chunk B
// of the other caller's region to start. Were the regions serialized, A
// would give up after 5 s and the test would fail instead of hanging.
TEST(RuntimeTest, OneThreadPoolRegionsOfTwoCallersOverlap) {
  ThreadCountGuard guard;
  runtime::SetNumThreads(1);
  std::atomic<bool> b_started{false};
  std::atomic<bool> a_saw_b{false};
  std::thread a_caller([&] {
    runtime::ParallelFor(0, 2, 1, [&](int64_t begin, int64_t) {
      if (begin == 0) a_saw_b.store(AwaitFlag(b_started));
    });
  });
  std::thread b_caller([&] {
    runtime::ParallelFor(0, 2, 1, [&](int64_t begin, int64_t) {
      if (begin == 0) b_started.store(true);
    });
  });
  a_caller.join();
  b_caller.join();
  EXPECT_TRUE(a_saw_b.load());
}

// In this 8-chunk, 2-lane region the caller owns chunks [0, 4) and worker 1
// owns [4, 8). Worker 1's chunks wait until the caller is inside a chunk, so
// the caller's first claim is chunk 0, where it waits until chunk 1 has
// started: chunk 1 can only run on worker 1, stolen from the caller's block.
// Chunk 1 throws, and the caller rethrows it.
TEST(RuntimeTest, ExceptionInAStolenChunkReachesTheCaller) {
  ThreadCountGuard guard;
  runtime::SetNumThreads(4);
  ASSERT_EQ(runtime::RegionLanes(8, 4), 2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_in_chunk{false};
  std::atomic<bool> chunk1_started{false};
  std::atomic<bool> chunk1_on_caller{false};
  EXPECT_THROW(runtime::ParallelFor(0, 8, 1,
                                    [&](int64_t begin, int64_t) {
                                      const bool on_caller = std::this_thread::get_id() == caller;
                                      if (on_caller) {
                                        caller_in_chunk.store(true);
                                      } else {
                                        AwaitFlag(caller_in_chunk);
                                      }
                                      if (begin == 1) {
                                        chunk1_on_caller.store(on_caller);
                                        chunk1_started.store(true);
                                        throw std::runtime_error("stolen boom");
                                      }
                                      if (on_caller) AwaitFlag(chunk1_started);
                                    }),
               std::runtime_error);
  EXPECT_TRUE(chunk1_started.load());
  EXPECT_FALSE(chunk1_on_caller.load());
  // The pool must be reusable after the exception.
  std::atomic<int64_t> total{0};
  runtime::ParallelFor(0, 64, 1,
                       [&](int64_t begin, int64_t end) { total.fetch_add(end - begin); });
  EXPECT_EQ(total.load(), 64);
}

TEST(RuntimeTest, ResizingBetweenRegionsKeepsCoverage) {
  ThreadCountGuard guard;
  for (const int threads : {1, 4, 1}) {
    runtime::SetNumThreads(threads);
    EXPECT_EQ(runtime::GetNumThreads(), threads);
    std::mutex mu;
    std::set<std::thread::id> runners;
    std::vector<std::atomic<int>> hits(64);
    runtime::ParallelFor(0, 64, 1, [&](int64_t begin, int64_t end) {
      {
        std::lock_guard<std::mutex> lock(mu);
        runners.insert(std::this_thread::get_id());
      }
      for (int64_t i = begin; i < end; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads << " threads";
    }
    EXPECT_LE(runners.size(), static_cast<size_t>(threads));
    if (threads == 1) {
      EXPECT_EQ(runners.count(std::this_thread::get_id()), 1u);
    }
  }
}

// --- Determinism contract: bitwise-identical results at any thread count ----

TEST(RuntimeDeterminismTest, MatMulBitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(11);
  const Tensor a = Tensor::RandomNormal(Shape{3, 37, 19}, rng);
  const Tensor b = Tensor::RandomNormal(Shape{3, 19, 23}, rng);
  runtime::SetNumThreads(1);
  const Tensor serial = top::MatMul(a, b);
  for (const int threads : {2, 4}) {
    runtime::SetNumThreads(threads);
    EXPECT_TRUE(BitwiseEqual(top::MatMul(a, b), serial)) << threads << " threads";
  }
}

TEST(RuntimeDeterminismTest, ReductionsBitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(12);
  const Tensor a = Tensor::RandomNormal(Shape{5, 33, 17}, rng);
  runtime::SetNumThreads(1);
  const Tensor sum = top::Sum(a, {1});
  const Tensor mean = top::Mean(a, {0, 2});
  for (const int threads : {2, 4}) {
    runtime::SetNumThreads(threads);
    EXPECT_TRUE(BitwiseEqual(top::Sum(a, {1}), sum)) << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(top::Mean(a, {0, 2}), mean)) << threads << " threads";
  }
}

TEST(RuntimeDeterminismTest, BroadcastElementwiseBitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(13);
  const Tensor a = Tensor::RandomNormal(Shape{7, 1, 31}, rng);
  const Tensor b = Tensor::RandomNormal(Shape{1, 29, 31}, rng);
  runtime::SetNumThreads(1);
  const Tensor add = top::Add(a, b);
  const Tensor div = top::Div(a, b);
  for (const int threads : {2, 4}) {
    runtime::SetNumThreads(threads);
    EXPECT_TRUE(BitwiseEqual(top::Add(a, b), add)) << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(top::Div(a, b), div)) << threads << " threads";
  }
}

TEST(RuntimeDeterminismTest, TemporalConvForwardBackwardBitwiseIdentical) {
  ThreadCountGuard guard;
  Rng rng(14);
  const Tensor in_value = Tensor::RandomNormal(Shape{2, 3, 9, 16}, rng);
  const Tensor w_value = Tensor::RandomNormal(Shape{4, 3, 1, 2}, rng);
  auto run = [&]() {
    Variable in(in_value, true);
    Variable w(w_value, true);
    Variable loss = ag::Sum(ag::Square(ag::TemporalConv2d(in, w, 2)));
    loss.Backward();
    return std::make_tuple(loss.value(), in.grad(), w.grad());
  };
  runtime::SetNumThreads(1);
  const auto [value1, din1, dw1] = run();
  for (const int threads : {2, 4}) {
    runtime::SetNumThreads(threads);
    const auto [value, din, dw] = run();
    EXPECT_TRUE(BitwiseEqual(value, value1)) << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(din, din1)) << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(dw, dw1)) << threads << " threads";
  }
}

}  // namespace
}  // namespace urcl
