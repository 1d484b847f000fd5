// Pooled tensor storage: a thread-safe size-class free-list behind Tensor's
// shared_ptr storage. Training loops allocate the same handful of shapes
// thousands of times (every op — including each node on the autograd tape —
// produces a fresh output tensor), so steady-state acquisition should be a
// mutex-guarded pop instead of a malloc. Buffers are returned by the
// shared_ptr's custom deleter when the last Tensor referencing them dies.
//
// Policy:
//  - size classes are powers of two (min 32 floats), so recurring shapes hit
//    the same class even when augmentation jitters sizes slightly;
//  - cap-with-trim: cached bytes are bounded (256 MiB; set_capacity_bytes
//    changes the cap); a buffer whose return would exceed the cap is freed
//    instead of cached;
//  - buffers are 64-byte aligned (cache line, and any vector ISA's natural
//    alignment — the SIMD kernels use unaligned loads, so this is a
//    performance nicety, not a correctness requirement).
//
// Poisoning (DESIGN.md §9): recycling makes use-after-release and
// read-before-write of `Tensor::Uninitialized` storage invisible to heap
// tooling — the pool owns the memory either way. When poisoning is enabled
// (URCL_CHECK sets it, with the graph checks: on by default in debug builds;
// tests can flip it at runtime), every cached free-list buffer and every
// non-zero-filled acquisition is filled with kPoisonWord, a signaling-NaN bit
// pattern: a kernel that reads a byte it never wrote produces NaNs that trip
// AllFinite/tests instead of silently wrong numbers, and unwritten output
// regions stay recognizable via IsPoisonWord. Under AddressSanitizer
// (URCL_SANITIZE=address) cached buffers are additionally
// __asan_poison_memory_region'd while they sit in the free list, so touching
// a released buffer is a hard ASan crash.
//
// The pool affects only *where* storage comes from, never its contents, so
// it is invisible to the numerics: results are bitwise identical whether a
// buffer is recycled or freshly allocated. (Poisoning only ever changes
// bytes a correct kernel never reads; with it disabled the contents are
// untouched.)
#ifndef URCL_TENSOR_POOL_H_
#define URCL_TENSOR_POOL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace urcl {
namespace pool {

// Signaling-NaN bit pattern used to poison recycled / uninitialized buffers
// (sign 0, exponent all-ones, quiet bit clear, non-zero mantissa).
inline constexpr uint32_t kPoisonWord = 0x7fa1a1a1u;

// True when `value` holds exactly the poison bit pattern.
bool IsPoisonWord(float value);

// Number of elements in [p, p + count) still holding the poison pattern.
// Audit helper for "did this kernel write every element" tests.
int64_t CountPoisonWords(const float* p, int64_t count);

// Pluggable storage source for Tensor construction. The two Tensor funnels
// (zero-filled construction and Tensor::Uninitialized) route every
// acquisition through AcquireStorage(), which consults the thread-local hook
// before falling back to the process-wide BufferPool. The compiled executor
// (src/exec/) installs its arena as the hook for the duration of a plan
// replay so steady-state steps make zero pool acquisitions; everything else
// never notices the indirection (one predictable thread-local branch).
class StorageHook;  // fwd
StorageHook* ActiveStorageHook();
void SetStorageHook(StorageHook* hook);

// Per-process counters, mirrored from the observability registry: the pool's
// stats live permanently as `urcl.pool.*` counters/gauges (they are updated
// under the pool mutex the pool already takes, so residency costs nothing),
// and this struct is the aggregate read-back view. hits/misses/returns/trims
// are monotonic event counts (resettable for benchmarking windows);
// live_bytes/pooled_bytes are gauges.
struct PoolStats {
  uint64_t hits = 0;          // acquires served from a cached buffer
  uint64_t misses = 0;        // acquires that hit the system allocator
  uint64_t returns = 0;       // buffers returned to the free lists
  uint64_t trims = 0;         // buffers freed instead of cached (cap/Trim)
  uint64_t live_bytes = 0;    // bytes currently handed out to tensors
  uint64_t pooled_bytes = 0;  // bytes currently cached in free lists
};

class BufferPool {
 public:
  // Process-wide instance (leaked on purpose: tensors with static storage
  // duration may return buffers after main exits).
  static BufferPool& Get();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // One storage acquisition: the buffer plus its write-version counter
  // (`urcl::check`, DESIGN.md §9). Both pointers alias a single heap block
  // (make_shared control block carrying the counter), so the counter costs no
  // extra allocation and lives exactly as long as anything pinning either
  // pointer — which is what lets an autograd edge hold the counter to pin the
  // captured storage generation.
  struct Acquisition {
    std::shared_ptr<float> data;
    std::shared_ptr<std::atomic<uint64_t>> version;
  };

  // Returns storage for `count` floats whose deleter hands the buffer back
  // to the pool. `count` 0 is allowed (smallest class). When `zero_fill`,
  // the first `count` floats are zeroed; otherwise contents are
  // unspecified when poisoning is off, kPoisonWord-filled when on.
  Acquisition AcquireWithVersion(int64_t count, bool zero_fill);

  // AcquireWithVersion dropping the version handle (counter stays allocated
  // in the shared block, just unobserved).
  std::shared_ptr<float> Acquire(int64_t count, bool zero_fill);

  // Deleter entry point: hands one buffer of `size_class` back to the free
  // lists (or the allocator). Only meaningful for pointers this pool handed
  // out; Tensor storage calls it via the Acquisition block's destructor.
  void Release(float* ptr, int size_class);

  // Thin wrapper reading the `urcl.pool.*` registry metrics back into the
  // legacy aggregate view (kept for existing callers; new consumers should
  // read the registry directly).
  PoolStats Stats() const;
  // Zeroes the event counters (hits/misses/returns/trims); byte gauges are
  // left alone. For stats windows in tests and benchmarks.
  void ResetCounters();

  // Frees every cached buffer; returns the number of bytes released.
  int64_t Trim();

  bool poison_enabled() const;
  // Test hook; check::IntegrityChecksDefault() (URCL_CHECK, else NDEBUG) sets
  // the initial value.
  void set_poison_enabled(bool enabled);

  void set_capacity_bytes(uint64_t cap);
  uint64_t capacity_bytes() const;

 private:
  BufferPool();

  static void FreeRaw(float* ptr);

  mutable Mutex mu_;
  // Free lists indexed by log2 of the class size in floats.
  std::array<std::vector<float*>, 48> free_lists_ URCL_GUARDED_BY(mu_);
  // Registry-resident stats (stable references; registry outlives the pool).
  // Not guarded: counters/gauges are internally synchronized — updating them
  // under mu_ is a residency convenience, not a requirement.
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& returns_;
  obs::Counter& trims_;
  obs::Gauge& live_bytes_;
  obs::Gauge& pooled_bytes_;
  uint64_t capacity_bytes_ URCL_GUARDED_BY(mu_);
  bool poison_enabled_ URCL_GUARDED_BY(mu_);
};

// Interface a storage hook implements. Acquire must satisfy the same
// contract as BufferPool::AcquireWithVersion: `count` floats, zeroed when
// `zero_fill`, with a live write-version counter aliased to the storage
// lifetime.
class StorageHook {
 public:
  virtual ~StorageHook() = default;
  virtual BufferPool::Acquisition Acquire(int64_t count, bool zero_fill) = 0;
};

// The Tensor storage funnel: thread-local hook when installed, else the pool.
inline BufferPool::Acquisition AcquireStorage(int64_t count, bool zero_fill) {
  if (StorageHook* hook = ActiveStorageHook()) return hook->Acquire(count, zero_fill);
  return BufferPool::Get().AcquireWithVersion(count, zero_fill);
}

// RAII installer for a storage hook (restores the previous one).
class StorageHookScope {
 public:
  explicit StorageHookScope(StorageHook* hook) : previous_(ActiveStorageHook()) {
    SetStorageHook(hook);
  }
  ~StorageHookScope() { SetStorageHook(previous_); }
  StorageHookScope(const StorageHookScope&) = delete;
  StorageHookScope& operator=(const StorageHookScope&) = delete;

 private:
  StorageHook* previous_;
};

}  // namespace pool
}  // namespace urcl

#endif  // URCL_TENSOR_POOL_H_
