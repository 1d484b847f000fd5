#include "tensor/pool.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/check.h"

// AddressSanitizer manual poisoning: detect both GCC (-fsanitize=address
// defines __SANITIZE_ADDRESS__) and Clang (__has_feature) spellings.
#if defined(__SANITIZE_ADDRESS__)
#define URCL_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define URCL_POOL_ASAN 1
#endif
#endif
#ifdef URCL_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace urcl {
namespace pool {
namespace {

constexpr int kMinClassLog2 = 5;  // 32 floats = 128 bytes
constexpr uint64_t kDefaultCapacityBytes = 256ull << 20;
constexpr size_t kAlignment = 64;

// Marks [ptr, ptr + bytes) as unaddressable while a buffer sits in the free
// list (no-op without ASan). The pool mutex orders poison/unpoison between
// releasing and acquiring threads.
void AsanPoison(const float* ptr, uint64_t bytes) {
#ifdef URCL_POOL_ASAN
  __asan_poison_memory_region(ptr, bytes);
#else
  (void)ptr;
  (void)bytes;
#endif
}

void AsanUnpoison(const float* ptr, uint64_t bytes) {
#ifdef URCL_POOL_ASAN
  __asan_unpoison_memory_region(ptr, bytes);
#else
  (void)ptr;
  (void)bytes;
#endif
}

// Fills `count` elements with the signaling-NaN poison pattern. Written via
// 32-bit words (not float stores) so the payload bits survive verbatim —
// copying an sNaN through the FPU may quieten it on some targets.
void PoisonFill(float* ptr, int64_t count) {
  uint32_t* words = reinterpret_cast<uint32_t*>(ptr);
  std::fill_n(words, static_cast<size_t>(count), kPoisonWord);
}

// Smallest class whose capacity holds `count` floats.
int ClassForCount(int64_t count) {
  int cls = kMinClassLog2;
  while ((int64_t{1} << cls) < count) ++cls;
  return cls;
}

uint64_t ClassBytes(int size_class) { return (uint64_t{1} << size_class) * sizeof(float); }

// Owner object behind both shared_ptrs of an Acquisition. A single
// make_shared<StorageBlock> carries the buffer pointer, its size class, and
// the write-version counter; `data` and `version` alias this block, so one
// heap allocation serves the whole acquisition (same allocation count as a
// plain custom-deleter shared_ptr) and the counter outlives every holder of
// either pointer. The destructor is the pool's return path.
struct StorageBlock {
  float* ptr = nullptr;
  int size_class = 0;
  std::atomic<uint64_t> version{0};

  ~StorageBlock() {
    if (ptr != nullptr) BufferPool::Get().Release(ptr, size_class);
  }
};

}  // namespace

namespace {
thread_local StorageHook* t_storage_hook = nullptr;
}  // namespace

StorageHook* ActiveStorageHook() { return t_storage_hook; }

void SetStorageHook(StorageHook* hook) { t_storage_hook = hook; }

bool IsPoisonWord(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits == kPoisonWord;
}

int64_t CountPoisonWords(const float* p, int64_t count) {
  int64_t poisoned = 0;
  for (int64_t i = 0; i < count; ++i) {
    if (IsPoisonWord(p[i])) ++poisoned;
  }
  return poisoned;
}

BufferPool& BufferPool::Get() {
  // Leaked singleton: never destroyed, so deleters of static-lifetime
  // tensors can still return buffers during process teardown.
  static BufferPool* instance = new BufferPool();
  return *instance;
}

BufferPool::BufferPool()
    : hits_(obs::MetricsRegistry::Get().GetCounter("urcl.pool.hits")),
      misses_(obs::MetricsRegistry::Get().GetCounter("urcl.pool.misses")),
      returns_(obs::MetricsRegistry::Get().GetCounter("urcl.pool.returns")),
      trims_(obs::MetricsRegistry::Get().GetCounter("urcl.pool.trims")),
      live_bytes_(obs::MetricsRegistry::Get().GetGauge("urcl.pool.live_bytes")),
      pooled_bytes_(obs::MetricsRegistry::Get().GetGauge("urcl.pool.pooled_bytes")),
      capacity_bytes_(kDefaultCapacityBytes),
      poison_enabled_(check::IntegrityChecksDefault()) {}

void BufferPool::FreeRaw(float* ptr) { std::free(ptr); }

BufferPool::Acquisition BufferPool::AcquireWithVersion(int64_t count, bool zero_fill) {
  URCL_CHECK_GE(count, 0);
  const int cls = ClassForCount(count);
  const uint64_t bytes = ClassBytes(cls);
  float* ptr = nullptr;
  bool pooled = false;
  bool poison = false;
  {
    MutexLock lock(mu_);
    auto& list = free_lists_[static_cast<size_t>(cls)];
    if (!list.empty()) {
      ptr = list.back();
      list.pop_back();
      pooled = true;
      hits_.Add(1);
      pooled_bytes_.Add(-static_cast<double>(bytes));
    } else {
      misses_.Add(1);
    }
    live_bytes_.Add(static_cast<double>(bytes));
    poison = poison_enabled_;
  }
  if (!pooled) {
    // Class bytes are a multiple of the alignment, as aligned_alloc requires.
    ptr = static_cast<float*>(std::aligned_alloc(kAlignment, bytes));
    URCL_CHECK(ptr != nullptr) << "BufferPool: allocation of " << bytes << " bytes failed";
  } else {
    AsanUnpoison(ptr, bytes);
  }
  if (zero_fill && count > 0) {
    std::memset(ptr, 0, static_cast<size_t>(count) * sizeof(float));
  } else if (poison && count > 0) {
    // Unspecified-contents acquisition: hand out poison, not stale data, so
    // any element the kernel reads before writing is a loud signaling NaN.
    PoisonFill(ptr, count);
  }
  auto block = std::make_shared<StorageBlock>();
  block->ptr = ptr;
  block->size_class = cls;
  Acquisition acq;
  acq.data = std::shared_ptr<float>(block, ptr);
  acq.version = std::shared_ptr<std::atomic<uint64_t>>(block, &block->version);
  return acq;
}

std::shared_ptr<float> BufferPool::Acquire(int64_t count, bool zero_fill) {
  return AcquireWithVersion(count, zero_fill).data;
}

void BufferPool::Release(float* ptr, int size_class) {
  const uint64_t bytes = ClassBytes(size_class);
  bool cache = false;
  {
    MutexLock lock(mu_);
    live_bytes_.Add(-static_cast<double>(bytes));
    if (static_cast<uint64_t>(pooled_bytes_.Value()) + bytes <= capacity_bytes_) {
      // Poison before the push makes the buffer visible to other acquirers;
      // the fill runs under the lock only when poisoning is on (debug/test
      // builds), so the release fast path is unchanged.
      if (poison_enabled_) PoisonFill(ptr, static_cast<int64_t>(bytes / sizeof(float)));
      AsanPoison(ptr, bytes);
      free_lists_[static_cast<size_t>(size_class)].push_back(ptr);
      pooled_bytes_.Add(static_cast<double>(bytes));
      returns_.Add(1);
      cache = true;
    } else {
      trims_.Add(1);
    }
  }
  if (!cache) FreeRaw(ptr);
}

PoolStats BufferPool::Stats() const {
  MutexLock lock(mu_);
  PoolStats stats;
  stats.hits = hits_.Value();
  stats.misses = misses_.Value();
  stats.returns = returns_.Value();
  stats.trims = trims_.Value();
  stats.live_bytes = static_cast<uint64_t>(live_bytes_.Value());
  stats.pooled_bytes = static_cast<uint64_t>(pooled_bytes_.Value());
  return stats;
}

void BufferPool::ResetCounters() {
  MutexLock lock(mu_);
  hits_.Reset();
  misses_.Reset();
  returns_.Reset();
  trims_.Reset();
}

int64_t BufferPool::Trim() {
  std::vector<float*> to_free;
  uint64_t freed = 0;
  {
    MutexLock lock(mu_);
    for (size_t cls = 0; cls < free_lists_.size(); ++cls) {
      for (float* ptr : free_lists_[cls]) {
        // Cached buffers are ASan-poisoned; make them addressable again
        // before handing them back to the system allocator.
        AsanUnpoison(ptr, ClassBytes(static_cast<int>(cls)));
        to_free.push_back(ptr);
        freed += ClassBytes(static_cast<int>(cls));
      }
      free_lists_[cls].clear();
    }
    pooled_bytes_.Add(-static_cast<double>(freed));
    trims_.Add(to_free.size());
  }
  for (float* ptr : to_free) FreeRaw(ptr);
  return static_cast<int64_t>(freed);
}

bool BufferPool::poison_enabled() const {
  MutexLock lock(mu_);
  return poison_enabled_;
}

void BufferPool::set_poison_enabled(bool enabled) {
  MutexLock lock(mu_);
  poison_enabled_ = enabled;
}

void BufferPool::set_capacity_bytes(uint64_t cap) {
  MutexLock lock(mu_);
  capacity_bytes_ = cap;
}

uint64_t BufferPool::capacity_bytes() const {
  MutexLock lock(mu_);
  return capacity_bytes_;
}

}  // namespace pool
}  // namespace urcl
