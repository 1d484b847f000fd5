// Clang thread-safety annotations and capability-annotated synchronization
// wrappers (DESIGN.md §14). The macros expand to clang's thread-safety
// attributes so a Clang build with -Wthread-safety (CMake option
// URCL_THREAD_SAFETY, wired into scripts/check.sh) statically proves the
// locking contract: every URCL_GUARDED_BY member access must hold the named
// capability, and the RAII guards below are the only way to acquire one. On
// GCC (and any compiler without the attributes) everything compiles to
// no-ops, so the wrappers cost exactly what the std primitives cost.
//
// Library code declares urcl::Mutex / urcl::SharedMutex members instead of
// the raw std types and locks them with MutexLock / ReaderMutexLock /
// WriterMutexLock. The repo lint enforces this mechanically (rules
// lock/unannotated-mutex and lock/bare-lock, tools/lint/rules.cc): raw
// std::mutex declarations and bare Lock()/unlock() calls outside this header
// fail repo_lint, so the annotated wrappers cannot be bypassed by accident.
#ifndef URCL_COMMON_THREAD_ANNOTATIONS_H_
#define URCL_COMMON_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__)
#define URCL_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define URCL_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

// Type annotations.
#define URCL_CAPABILITY(x) URCL_THREAD_ANNOTATION_(capability(x))
#define URCL_SCOPED_CAPABILITY URCL_THREAD_ANNOTATION_(scoped_lockable)

// Member annotations: the member may only be read/written while holding the
// named capability (pt_: the pointed-to data, not the pointer itself).
#define URCL_GUARDED_BY(x) URCL_THREAD_ANNOTATION_(guarded_by(x))
#define URCL_PT_GUARDED_BY(x) URCL_THREAD_ANNOTATION_(pt_guarded_by(x))

// Lock-ordering declarations between capabilities.
#define URCL_ACQUIRED_BEFORE(...) URCL_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define URCL_ACQUIRED_AFTER(...) URCL_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

// Function annotations: capabilities the caller must hold (REQUIRES), must
// not hold (EXCLUDES), or that the function itself acquires/releases.
#define URCL_REQUIRES(...) URCL_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define URCL_REQUIRES_SHARED(...) \
  URCL_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define URCL_ACQUIRE(...) URCL_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define URCL_ACQUIRE_SHARED(...) \
  URCL_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define URCL_RELEASE(...) URCL_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define URCL_RELEASE_SHARED(...) \
  URCL_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define URCL_RELEASE_GENERIC(...) \
  URCL_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))
#define URCL_TRY_ACQUIRE(...) URCL_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define URCL_TRY_ACQUIRE_SHARED(...) \
  URCL_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))
#define URCL_EXCLUDES(...) URCL_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define URCL_ASSERT_CAPABILITY(x) URCL_THREAD_ANNOTATION_(assert_capability(x))
#define URCL_ASSERT_SHARED_CAPABILITY(x) \
  URCL_THREAD_ANNOTATION_(assert_shared_capability(x))
#define URCL_RETURN_CAPABILITY(x) URCL_THREAD_ANNOTATION_(lock_returned(x))

// Escape hatch for hand-verified publication protocols the analysis cannot
// express. Every use carries a comment proving the synchronization; the goal
// is zero uses in src/.
#define URCL_NO_THREAD_SAFETY_ANALYSIS URCL_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace urcl {

// Capability-annotated exclusive mutex. Lock/Unlock are public so the RAII
// guards (and clang's analysis of them) can reach the capability, but
// library code outside this header may only lock through the guards — the
// lock/bare-lock lint rule bans direct Lock()/Unlock() calls.
class URCL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() URCL_ACQUIRE() { mu_.lock(); }
  void Unlock() URCL_RELEASE() { mu_.unlock(); }

  // For CondVar::Wait only: the condition variable needs the underlying
  // handle to release/reacquire atomically around the block.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

// Capability-annotated reader/writer mutex (exclusive writers, shared
// readers). Lock through WriterMutexLock / ReaderMutexLock.
class URCL_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() URCL_ACQUIRE() { mu_.lock(); }
  void Unlock() URCL_RELEASE() { mu_.unlock(); }
  void LockShared() URCL_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() URCL_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

// RAII exclusive lock of a Mutex.
class URCL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) URCL_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() URCL_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// RAII exclusive (writer) lock of a SharedMutex.
class URCL_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) URCL_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~WriterMutexLock() URCL_RELEASE_GENERIC() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII shared (reader) lock of a SharedMutex.
class URCL_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) URCL_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() URCL_RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable paired with urcl::Mutex. Wait takes the Mutex whose
// MutexLock the caller holds; there is deliberately no predicate overload —
// callers write `while (!pred) cv.Wait(mu);` so the predicate's guarded
// reads sit in the caller's scope, where the analysis can see the capability
// (a lambda body is analyzed as its own function and cannot).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, blocks, and reacquires before returning.
  // Spurious wakeups happen; always re-test the predicate in a loop.
  void Wait(Mutex& mu) URCL_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.native(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's MutexLock
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace urcl

#endif  // URCL_COMMON_THREAD_ANNOTATIONS_H_
