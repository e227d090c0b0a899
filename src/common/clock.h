#ifndef IVDB_COMMON_CLOCK_H_
#define IVDB_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ivdb {

// Wall-clock microseconds since an arbitrary (monotonic) epoch.
inline uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Time source seam. Components that *measure* durations (lock wait
// accounting, latency histograms, trace timestamps) take a Clock* so tests
// and fault/torture harnesses can substitute virtual time; Default() is the
// monotonic clock behind NowMicros(). Mirrors the Env seam for file I/O.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual uint64_t NowMicros() const = 0;

  // Blocks the calling thread for `micros` of this clock's time. The
  // default implementation really sleeps; virtual-time clocks advance
  // themselves instead, which is what makes retry backoff deterministic
  // under ManualClock. All intentional waiting in the engine goes through
  // this seam (ivdb_lint forbids ad-hoc sleeps outside it).
  virtual void SleepMicros(uint64_t micros);

  // Process-wide monotonic clock; never null, never deleted.
  static Clock* Default();
};

// Test double: time advances only when told to. Thread-safe.
class ManualClock : public Clock {
 public:
  explicit ManualClock(uint64_t start_micros = 0) : now_(start_micros) {}

  uint64_t NowMicros() const override {
    return now_.load(std::memory_order_relaxed);
  }
  // Virtual time: "sleeping" just advances the clock, so code that backs
  // off through the Clock seam runs instantly and deterministically.
  void SleepMicros(uint64_t micros) override { Advance(micros); }
  void Advance(uint64_t micros) {
    now_.fetch_add(micros, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> now_;
};

// Monotonic logical timestamp source. Transaction begin/commit timestamps
// are drawn from one shared LogicalClock so that snapshot visibility
// (`commit_ts <= snapshot_ts`) is a total order.
class LogicalClock {
 public:
  LogicalClock() : next_(1) {}

  LogicalClock(const LogicalClock&) = delete;
  LogicalClock& operator=(const LogicalClock&) = delete;

  uint64_t Tick() { return next_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t Peek() const { return next_.load(std::memory_order_relaxed); }

  // Moves the clock forward so that the next Tick() is > `ts`. Used after
  // recovery to resume past the highest timestamp in the log.
  void AdvancePast(uint64_t ts) {
    uint64_t cur = next_.load(std::memory_order_relaxed);
    while (cur <= ts &&
           !next_.compare_exchange_weak(cur, ts + 1,
                                        std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<uint64_t> next_;
};

// Sharded logical timestamp source for the parallel commit pipeline.
//
// A single LogicalClock makes every Begin and every commit contend on one
// cache line. EpochClock splits the timestamp space instead:
//
//   ts = (epoch << kEpochShift) | ((slot + 1) << kSlotShift) | seq
//
//   * Commit timestamps are exact multiples of 2^kEpochShift ("epochs"),
//     reserved one at a time under advance_mu_ by the (already serialized)
//     commit-visibility path.
//   * Begin (snapshot) timestamps are drawn lock-free: the calling thread
//     reads the last *published* epoch and fills the low bits from its own
//     cache-line-private slot counter. The slot field is never zero, so a
//     begin timestamp is never an epoch multiple — begin and commit
//     timestamps are disjoint, and every begin drawn at epoch e satisfies
//       e·2^kEpochShift  <  begin_ts  <  (e+1)·2^kEpochShift.
//
// The reserve/publish split is the flush-window-atomicity hook: the commit
// path *reserves* its visibility epoch, stores it into the transaction's
// version-store commit stamp, and only then *publishes* — a concurrent
// lock-free Begin always reads a published epoch, so its snapshot is
// strictly below any commit still being flipped.
//
// Slot sequence numbers may wrap within an epoch: begin timestamps need not
// be unique (visibility compares commit_ts <= snapshot_ts; commit
// timestamps ARE unique), and a duplicated snapshot is just two readers
// sharing one snapshot. Per-slot draws on one thread are monotone within an
// epoch, which is all the single-threaded tests observe.
class EpochClock {
 public:
  static constexpr int kEpochShift = 21;
  static constexpr int kSlotShift = 12;   // 4096 draws per slot per epoch
  static constexpr uint32_t kSlots = 64;  // must fit above seq, below epoch
  static constexpr uint32_t kSeqMask = (1u << kSlotShift) - 1;

  EpochClock() = default;
  EpochClock(const EpochClock&) = delete;
  EpochClock& operator=(const EpochClock&) = delete;

  // Lock-free snapshot draw: low bits from this thread's slot, epoch from
  // the last published commit. Never blocks, never touches a shared line
  // other than the published-epoch word (read-only) and its own slot.
  uint64_t BeginTs() {
    uint64_t epoch = published_.load(std::memory_order_acquire);
    Slot& slot = slots_[SlotIndex()];
    uint64_t seq = slot.seq.fetch_add(1, std::memory_order_relaxed) & kSeqMask;
    return (epoch << kEpochShift) |
           (uint64_t{SlotIndex() + 1} << kSlotShift) | seq;
  }

  // Reserves the next commit epoch without making it visible to BeginTs.
  // The caller stamps its versions with the returned timestamp, then calls
  // PublishCommitTs. Reserve/publish pairs must not interleave — the
  // transaction manager guarantees that by running them under its
  // visibility mutex.
  uint64_t ReserveCommitTs() {
    MutexLock guard(&advance_mu_);
    ++epoch_;
    return epoch_ << kEpochShift;
  }

  // Makes a reserved commit timestamp visible to subsequent BeginTs draws.
  void PublishCommitTs(uint64_t ts) {
    MutexLock guard(&advance_mu_);
    uint64_t epoch = ts >> kEpochShift;
    if (epoch > published_.load(std::memory_order_relaxed)) {
      published_.store(epoch, std::memory_order_release);
    }
  }

  // Reserve + publish in one step, for commit-path draws that stamp nothing
  // (durable timestamps, checkpoint captures).
  uint64_t CommitTs() {
    MutexLock guard(&advance_mu_);
    ++epoch_;
    published_.store(epoch_, std::memory_order_release);
    return epoch_ << kEpochShift;
  }

  // Advances the idle horizon past every begin timestamp issued so far —
  // called when a read-only transaction finishes, so Peek() (the GC
  // horizon) can move even in a pure-reader workload. No-ops while a
  // reserve is unpublished: bumping past a half-stamped commit would let a
  // fresh snapshot read its partially flipped state.
  void BumpIdle() {
    MutexLock guard(&advance_mu_);
    if (epoch_ == published_.load(std::memory_order_relaxed)) {
      ++epoch_;
      published_.store(epoch_, std::memory_order_release);
    }
  }

  // A timestamp <= every future BeginTs draw and > every published commit
  // timestamp: the version-store GC horizon when no transaction is active.
  // (Begin draws at published epoch e carry a non-zero slot field, so they
  // are strictly above e·2^kEpochShift + 1; an unpublished reserve stays
  // above Peek until its stamping completes.)
  uint64_t Peek() const {
    return (published_.load(std::memory_order_acquire) << kEpochShift) + 1;
  }

  // Moves the clock so every future draw is > `ts` (restart recovery,
  // resuming past the highest timestamp in the log).
  void AdvancePast(uint64_t ts) {
    MutexLock guard(&advance_mu_);
    uint64_t epoch = (ts >> kEpochShift) + 1;
    if (epoch_ < epoch) epoch_ = epoch;
    if (epoch_ > published_.load(std::memory_order_relaxed)) {
      published_.store(epoch_, std::memory_order_release);
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint32_t> seq{0};
  };

  // Stable per-thread slot: threads hash onto one of kSlots cache-line
  // private counters. Collisions only share a counter, never break draws.
  static uint32_t SlotIndex() {
    thread_local const uint32_t slot = static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % kSlots);
    return slot;
  }

  RankedMutex advance_mu_{LockRank::kTxnEpoch, "advance_mu_"};
  // Highest reserved epoch; published_ trails it only between a reserve and
  // its publish. published_ is atomic so BeginTs/Peek read it lock-free.
  uint64_t epoch_ IVDB_GUARDED_BY(advance_mu_) = 0;
  std::atomic<uint64_t> published_{0};
  Slot slots_[kSlots];
};

}  // namespace ivdb

#endif  // IVDB_COMMON_CLOCK_H_
