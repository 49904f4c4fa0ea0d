// Synchronization primitives wired for Clang Thread Safety Analysis.
//
// Every lock in the tree is a base::Mutex or base::SharedMutex, every
// guarded member carries GUARDED_BY, and every lock-requiring method
// carries REQUIRES / REQUIRES_SHARED, so `-Wthread-safety` proves lock
// discipline at compile time (see docs/concurrency.md; CI builds with
// `-Werror=thread-safety` under -DOODBSUB_LINT=ON). On non-Clang
// compilers the attributes expand to nothing and the wrappers are
// zero-cost veneers over <mutex>/<shared_mutex>.
#ifndef OODB_BASE_SYNC_H_
#define OODB_BASE_SYNC_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---- Thread-safety annotation macros ---------------------------------------
//
// The full set from the Clang Thread Safety Analysis documentation.
// Attribute spellings follow the modern capability-based names; the
// macros compile to no-ops on compilers without the attributes.

#if defined(__clang__) && !defined(SWIG)
#define OODB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define OODB_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

// Type attributes: a capability type, and a scoped (RAII) capability.
#define CAPABILITY(x) OODB_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY OODB_THREAD_ANNOTATION(scoped_lockable)

// Data members: protected by a capability (directly / through a pointer).
#define GUARDED_BY(x) OODB_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) OODB_THREAD_ANNOTATION(pt_guarded_by(x))

// Lock-ordering declarations (checked under -Wthread-safety-beta).
#define ACQUIRED_BEFORE(...) OODB_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) OODB_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Function preconditions: the caller must hold the capability.
#define REQUIRES(...) OODB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  OODB_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// Function effects: acquire / release the capability.
#define ACQUIRE(...) OODB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  OODB_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) OODB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  OODB_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  OODB_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  OODB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  OODB_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

// The function must NOT be called with the capability held.
#define EXCLUDES(...) OODB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Runtime assertions and accessor annotations.
#define ASSERT_CAPABILITY(x) OODB_THREAD_ANNOTATION(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  OODB_THREAD_ANNOTATION(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) OODB_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch for functions the analysis cannot follow.
#define NO_THREAD_SAFETY_ANALYSIS \
  OODB_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace oodb::base {

class CondVar;

// Exclusive mutex. Prefer the scoped MutexLock; the raw Lock/Unlock
// entry points exist for hand-over-hand code (ThreadPool's worker loop,
// Server::Wait) where a scope does not match the critical section.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// Reader/writer mutex: one writer or many readers.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }
  // The reader side without waiting: false while a writer holds it.
  bool TryLockShared() TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

// RAII exclusive lock of a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// RAII shared (reader) lock of a SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderLock() RELEASE() { mu_->UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// RAII exclusive (writer) lock of a SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~WriterLock() RELEASE() { mu_->Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// Condition variable over base::Mutex. No predicate overload on purpose:
// the analysis does not propagate REQUIRES into lambdas, so callers spell
// the standard `while (!cond) cv.Wait(mu);` loop inside the annotated
// critical section.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, blocks, and reacquires `mu` before
  // returning; may wake spuriously (loop on the condition).
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still owns the mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace oodb::base

#endif  // OODB_BASE_SYNC_H_
