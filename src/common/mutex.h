#ifndef IVDB_COMMON_MUTEX_H_
#define IVDB_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "common/lock_order.h"
#include "common/thread_annotations.h"

// Ranked, capability-annotated mutexes — the engine's only mutex types.
//
// RankedMutex fuses three enforcement layers into the lock itself:
//   * it is a Clang thread-safety CAPABILITY, so GUARDED_BY/REQUIRES
//     annotations against it are machine-checked under the clang-tsa preset;
//   * its declaration names a LockRank, which tools/ivdb_lint parses to
//     build the static acquires-while-holding graph;
//   * its Lock/Unlock paths feed the runtime lock-order tracker
//     (common/lock_order.cc) in checked builds, replacing the old
//     free-standing IVDB_LOCK_ORDER declarations at every call site.
//
// Raw std::mutex / std::lock_guard use in the engine is rejected by
// ivdb_lint (rules `naked-mutex-lock` and `unranked-mutex`); the scoped
// guards below are the only sanctioned way to lock. Declaration style the
// lint relies on (rank and name on the member's declaration):
//
//   RankedMutex cache_mu_{LockRank::kCatalog, "cache_mu_"};
//   std::map<Key, Entry> entries_ IVDB_GUARDED_BY(cache_mu_);
//
// Contention accounting: every blocking acquisition tries the lock first and
// only on failure bumps a process-wide per-rank counter before it blocks
// (`ivdb_mutex_contended_total{rank=...}`, docs/OBSERVABILITY.md). The
// uncontended path costs one try-lock — no clock read, no extra atomic.

namespace ivdb {

class CondVar;

// Records one acquisition of a `rank` mutex that found it held (slow path
// only; out of line so the fast path stays a single try-lock).
void NoteMutexContended(LockRank rank);

// Blocking acquisitions of `rank` mutexes that found the mutex held, summed
// over every instance in the process since it started.
uint64_t MutexContendedCount(LockRank rank);

// A std::mutex with a LockRank, wired into the runtime order tracker.
class IVDB_CAPABILITY("mutex") RankedMutex {
 public:
  RankedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}

  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void Lock() IVDB_ACQUIRE() {
    // Record before blocking, matching the old IVDB_LOCK_ORDER placement:
    // a would-be deadlock aborts with the report instead of hanging.
    LockOrderAcquire(rank_, name_);
    if (!mu_.try_lock()) {
      NoteMutexContended(rank_);
      mu_.lock();
    }
  }

  void Unlock() IVDB_RELEASE() {
    mu_.unlock();
    LockOrderRelease(rank_);
  }

  // Non-blocking probe; exempt from the rank-order check (see
  // lock_order.h). The watchdog's owner-latch probe depends on this.
  bool TryLock() IVDB_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    LockOrderAcquireTry(rank_, name_);
    return true;
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  friend class UniqueMutexLock;

  std::mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

// A std::shared_mutex with a LockRank. Shared and exclusive acquisitions
// are tracked identically (the rank order must hold for both).
class IVDB_CAPABILITY("shared_mutex") RankedSharedMutex {
 public:
  RankedSharedMutex(LockRank rank, const char* name)
      : rank_(rank), name_(name) {}

  RankedSharedMutex(const RankedSharedMutex&) = delete;
  RankedSharedMutex& operator=(const RankedSharedMutex&) = delete;

  void Lock() IVDB_ACQUIRE() {
    LockOrderAcquire(rank_, name_);
    if (!mu_.try_lock()) {
      NoteMutexContended(rank_);
      mu_.lock();
    }
  }

  void Unlock() IVDB_RELEASE() {
    mu_.unlock();
    LockOrderRelease(rank_);
  }

  void LockShared() IVDB_ACQUIRE_SHARED() {
    LockOrderAcquire(rank_, name_);
    if (!mu_.try_lock_shared()) {
      NoteMutexContended(rank_);
      mu_.lock_shared();
    }
  }

  void UnlockShared() IVDB_RELEASE_SHARED() {
    mu_.unlock_shared();
    LockOrderRelease(rank_);
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

// Scoped exclusive lock (the std::lock_guard equivalent).
class IVDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(RankedMutex* mu) IVDB_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~MutexLock() IVDB_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  RankedMutex* const mu_;
};

// Scoped exclusive lock with mid-scope Unlock/Lock and condition-variable
// support (the std::unique_lock equivalent). Blocking construction only;
// try-probes go through RankedMutex::TryLock directly.
class IVDB_SCOPED_CAPABILITY UniqueMutexLock {
 public:
  explicit UniqueMutexLock(RankedMutex* mu) IVDB_ACQUIRE(mu)
      : mu_(mu), lock_(mu->mu_, std::defer_lock) {
    LockOrderAcquire(mu_->rank_, mu_->name_);
    if (!lock_.try_lock()) {
      NoteMutexContended(mu_->rank_);
      lock_.lock();
    }
  }

  ~UniqueMutexLock() IVDB_RELEASE() {
    if (lock_.owns_lock()) {
      lock_.unlock();
      LockOrderRelease(mu_->rank_);
    }
  }

  UniqueMutexLock(const UniqueMutexLock&) = delete;
  UniqueMutexLock& operator=(const UniqueMutexLock&) = delete;

  void Unlock() IVDB_RELEASE() {
    lock_.unlock();
    LockOrderRelease(mu_->rank_);
  }

  void Lock() IVDB_ACQUIRE() {
    LockOrderAcquire(mu_->rank_, mu_->name_);
    if (!lock_.try_lock()) {
      NoteMutexContended(mu_->rank_);
      lock_.lock();
    }
  }

  bool OwnsLock() const { return lock_.owns_lock(); }
  RankedMutex* mutex() const IVDB_RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  friend class CondVar;

  RankedMutex* const mu_;
  std::unique_lock<std::mutex> lock_;
};

// Scoped non-blocking probe: attempts the lock in the constructor; check
// OwnsLock() before touching anything the mutex guards. Deliberately
// invisible to the thread-safety analysis (clang cannot model a
// conditionally-held scoped capability across the branch) — callers touch
// guarded state behind OwnsLock() under IVDB_NO_THREAD_SAFETY_ANALYSIS
// with a comment. The runtime tracker still records the hold.
class TryMutexLock {
 public:
  explicit TryMutexLock(RankedMutex* mu) IVDB_NO_THREAD_SAFETY_ANALYSIS
      : mu_(mu), owns_(mu->TryLock()) {}
  ~TryMutexLock() IVDB_NO_THREAD_SAFETY_ANALYSIS {
    if (owns_) mu_->Unlock();
  }

  TryMutexLock(const TryMutexLock&) = delete;
  TryMutexLock& operator=(const TryMutexLock&) = delete;

  bool OwnsLock() const { return owns_; }

 private:
  RankedMutex* const mu_;
  const bool owns_;
};

// Scoped shared (reader) lock on a RankedSharedMutex.
class IVDB_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(RankedSharedMutex* mu) IVDB_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderMutexLock() IVDB_RELEASE() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  RankedSharedMutex* const mu_;
};

// Scoped exclusive (writer) lock on a RankedSharedMutex.
class IVDB_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(RankedSharedMutex* mu) IVDB_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() IVDB_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  RankedSharedMutex* const mu_;
};

// Condition variable over a RankedMutex. Wait() releases and reacquires the
// *inner* std::mutex only: the rank stays on the tracker's held stack for
// the whole guard scope (conservative, and exactly the documented semantics
// of the old IVDB_LOCK_ORDER scopes — the wait itself never acquires
// further locks on this thread).
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(UniqueMutexLock* lock) { cv_.wait(lock->lock_); }

  template <typename Pred>
  void Wait(UniqueMutexLock* lock, Pred pred) {
    cv_.wait(lock->lock_, std::move(pred));
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(UniqueMutexLock* lock,
                         const std::chrono::duration<Rep, Period>& dur) {
    return cv_.wait_for(lock->lock_, dur);
  }

  template <typename ClockT, typename Duration>
  std::cv_status WaitUntil(
      UniqueMutexLock* lock,
      const std::chrono::time_point<ClockT, Duration>& deadline) {
    return cv_.wait_until(lock->lock_, deadline);
  }

  template <typename Rep, typename Period, typename Pred>
  bool WaitFor(UniqueMutexLock* lock,
               const std::chrono::duration<Rep, Period>& dur, Pred pred) {
    return cv_.wait_for(lock->lock_, dur, std::move(pred));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ivdb

#endif  // IVDB_COMMON_MUTEX_H_
