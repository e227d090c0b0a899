#ifndef IVDB_TXN_TXN_MANAGER_H_
#define IVDB_TXN_TXN_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <thread>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "lock/lock_manager.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "storage/version_store.h"
#include "txn/epoch_registry.h"
#include "txn/transaction.h"
#include "wal/log_manager.h"

namespace ivdb {

// Applies the physical effect of a (redo-interpreted) log record to storage.
// Implemented by the engine; used for rollback (applying compensations) and
// restart recovery.
class LogApplier {
 public:
  virtual ~LogApplier() = default;

  // `op_type` is kInsert/kDelete/kUpdate/kIncrement; for CLRs the caller
  // passes the compensation operation (rec.clr_op).
  virtual Status ApplyRedo(LogRecordType op_type, const LogRecord& rec) = 0;
};

// Transaction-lifecycle instruments (`ivdb_txn_*`); see
// docs/OBSERVABILITY.md.
struct TxnManagerMetrics {
  obs::Counter* begun;
  obs::Counter* committed;
  obs::Counter* aborted;
  obs::Counter* system_committed;
  // Admission-gate overflows (Begin gave up after admission_timeout) and
  // transactions force-aborted by the stuck-transaction watchdog.
  obs::Counter* admission_rejected;
  obs::Counter* watchdog_aborted;
  obs::Gauge* active;
  // End-to-end commit-path latency of user transactions with writes
  // (`ivdb_txn_commit_micros`): timestamp draw + COMMIT append + group
  // commit flush + END. The escrow-vs-X-lock story is in this tail.
  obs::Histogram* commit_latency;
  // Stage attribution of that same path
  // (`ivdb_commit_stage_micros{stage="..."}`). The four stages partition
  // each commit's latency exactly — per commit they sum to the
  // commit_latency sample recorded from the same timestamps:
  //   staging_wait    Begin of Commit() to COMMIT record staged (timestamp
  //                   draw + visibility_mu_ wait + shard staging).
  //   batch_assembly  Flush-join wait spent before/around the writer's
  //                   batch fsync: window sleep, shard drain, framing.
  //   fsync           The durable write itself (the writer's measured batch
  //                   sync time, clamped to this commit's flush wait).
  //   flip_wait       Post-durability: in-LSN-order visibility flip + END.
  obs::Histogram* stage_staging_wait;
  obs::Histogram* stage_batch_assembly;
  obs::Histogram* stage_fsync;
  obs::Histogram* stage_flip_wait;

  explicit TxnManagerMetrics(obs::MetricsRegistry* registry);
};

// Coordinates transaction lifecycle: timestamps, WAL records, rollback,
// lock release, and multiversion visibility.
//
// Commit protocol (user transactions with writes):
//   1. under the visibility mutex: draw the durable commit timestamp,
//      append the COMMIT record carrying it, and enqueue the transaction
//      on the flip queue (the mutex makes queue order == COMMIT LSN
//      order);
//   2. group-commit flush of the WAL up to the COMMIT record;
//   3. under the visibility mutex again: pop the flip queue in LSN order
//      while the head's COMMIT LSN is covered by the durable watermark —
//      for each popped transaction, reserve a fresh visible_ts, store it
//      into the transaction's version-store commit stamp (which all of its
//      entries share), fire the scan-cache hooks, then publish;
//   4. append END, release all locks.
//
// Step 3 is the in-LSN-order visibility sequencer the parallel group
// commit relies on: the WAL writer may make several transactions' COMMIT
// records durable with one fsync, and whichever committer reaches step 3
// first flips ALL of them, in LSN order — a later-LSN commit can never
// become visible before an earlier one, and visible-timestamp order equals
// durable-LSN order for user transactions. A committer whose flush FAILS
// removes its own queue entry under the visibility mutex before returning
// (its versions stay pending; the engine rolls it back), so a poisoned
// batch can never be flipped by a bystander.
//
// The flip happens only after the COMMIT record is durable, so an
// unacknowledged commit is never visible to other transactions in this
// process. Snapshot draws are LOCK-FREE against all of this (EpochClock):
// a Begin reads the last *published* commit epoch, and the flip's
// reserve-stamp-publish split guarantees a flush-window snapshot draws
// begin_ts < visible_ts and keeps resolving to the pre-image after the
// flip (superseded_ts = visible_ts > begin_ts), while any transaction that
// begins after Commit() returns draws begin_ts > visible_ts and sees the
// converted versions. No snapshot ever observes a flip mid-transaction.
// The WAL record and Transaction::commit_ts() carry the step-1 timestamp —
// the durable one, which recovery's clock high-water mark keeps strictly
// monotone across restarts — while visible_ts is unlogged and never leaves
// the process: visibility state restarts empty, so only in-memory begin_ts
// draws are ever compared against it.
//
// System transactions (ghost creation/cleanup) follow the same protocol
// but skip step 2 and bypass the flip queue, flipping immediately: their
// effects are structural and become durable with (and strictly before, in
// log order) the user commit that depends on them, so holding their
// visibility hostage to a durable watermark they never flush would only
// stall the dependent user statement.
class TransactionManager {
 public:
  struct Options {
    // Unified metrics registry (`ivdb_txn_*`); nullptr => private registry.
    obs::MetricsRegistry* metrics = nullptr;
    // Time source for commit-latency accounting and trace timestamps;
    // nullptr => Clock::Default().
    Clock* clock = nullptr;
    // Engine flight recorder: commit-stage spans and watchdog passes land
    // on the calling thread's lane. nullptr disables (unit tests that
    // construct a bare TransactionManager).
    obs::FlightRecorder* flight = nullptr;
    // Per-transaction trace ring size (span events); 0 — the default
    // outside tests/benches — disables tracing entirely.
    size_t trace_ring_capacity = 0;
    // Admission control: maximum concurrently active *user* transactions
    // (system transactions bypass the gate, like the quiesce gate). 0
    // disables the gate. The gate applies only to gated Begins (the
    // engine's BeginChecked): when the engine is full, a gated Begin
    // queues up to admission_timeout_micros for a slot, then gives up
    // (returns nullptr; the engine surfaces kBusy). Ungated Begins bypass
    // the gate entirely but still count against it.
    size_t max_active_txns = 0;
    uint64_t admission_timeout_micros = 1000 * 1000;
    // Stuck-transaction watchdog: user transactions older than this are
    // force-aborted when their owner latch can be taken (i.e. the owner is
    // idle between statements — a stalled client, not a running one). 0
    // disables the watchdog; > 0 also starts the background sweep thread.
    uint64_t max_txn_lifetime_micros = 0;
  };

  TransactionManager(LockManager* lock_manager, LogManager* log_manager,
                     VersionStore* version_store, LogApplier* applier,
                     Options options);
  TransactionManager(LockManager* lock_manager, LogManager* log_manager,
                     VersionStore* version_store, LogApplier* applier)
      : TransactionManager(lock_manager, log_manager, version_store, applier,
                           Options()) {}

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  ~TransactionManager();

  // Ungated (the default) Begin only waits on the quiesce gate and NEVER
  // returns null — the contract every pre-admission-control call site was
  // written against. With gated = true and max_active_txns > 0, Begin
  // additionally queues for an admission slot and returns nullptr when
  // none frees up within admission_timeout_micros (the engine's
  // BeginChecked maps that to kBusy).
  Transaction* Begin(ReadMode read_mode = ReadMode::kLocking,
                     bool gated = false);
  Transaction* BeginSystem();

  Status Commit(Transaction* txn);

  // Rolls back all of the transaction's effects (writing CLRs) and releases
  // its locks. Safe to call after a Deadlock/TimedOut/Aborted status.
  Status Abort(Transaction* txn);

  // --- Statement-level (partial) rollback. ---
  //
  // A savepoint marks a position in the transaction's undo log. Rolling
  // back to it undoes everything logged after the mark (writing CLRs, so
  // the partial rollback is crash-consistent) while keeping the
  // transaction — and all its locks — alive. The engine wraps each DML
  // statement in one, giving statement atomicity: a failed statement
  // leaves no trace, the transaction stays usable.
  using Savepoint = size_t;
  static Savepoint GetSavepoint(Transaction* txn) {
    return txn->undo_records().size();
  }
  Status RollbackToSavepoint(Transaction* txn, Savepoint savepoint);

  // --- WAL helpers used by the engine's DML paths. WAL rule: the engine
  //     must call these BEFORE applying the physical change. ---
  Status LogInsert(Transaction* txn, ObjectId object_id, std::string key,
                   std::string value);
  Status LogDelete(Transaction* txn, ObjectId object_id, std::string key,
                   std::string before);
  Status LogUpdate(Transaction* txn, ObjectId object_id, std::string key,
                   std::string before, std::string after);
  Status LogIncrement(Transaction* txn, ObjectId object_id, std::string key,
                      std::vector<ColumnDelta> deltas);

  // Oldest begin timestamp pinned by any transaction inside the reader
  // epoch (version-store GC horizon); the current clock value when none are
  // active. Served by the EpochReaderRegistry's striped slot sweep — never
  // touches active_mu_, so the GC driver cannot contend with Begin/Finish.
  // Safety: a transaction registered after the sweep draws a fresh begin_ts
  // strictly above every published epoch, hence above any horizon computed
  // from the clock before it existed.
  uint64_t OldestActiveTs() const;

  // The reader-epoch registry (epoch reclamation + tests).
  EpochReaderRegistry* epochs() { return &epochs_; }

  int ActiveCount() const;

  // Quiescent-checkpoint support: blocks new transactions from starting and
  // waits until no transaction is active. EndQuiesce() re-opens the gate.
  void BeginQuiesce();
  void EndQuiesce();

  // Bounded-wait variant for the online view build's flip barrier: closes
  // the Begin gate and waits up to `timeout_micros` for the active set to
  // drain. Returns true with the gate still closed (caller must
  // EndQuiesce() when done); on timeout re-opens the gate and returns
  // false, so a convoy of long transactions can never wedge the build —
  // the caller backs off, catches up further, and retries. The wait is
  // sliced so a ManualClock (frozen wall time) still times out after a
  // bounded number of slices.
  bool TryQuiesce(uint64_t timeout_micros);

  // --- Fuzzy-checkpoint capture. ---
  //
  // The short critical section at the start of a fuzzy checkpoint: under
  // active_mu_ + visibility_mu_ (the same order Begin uses) it draws the
  // capture timestamp, reads the WAL high-water mark, and snapshots the set
  // of transactions whose effects will NOT be in the image — every active
  // transaction that has not yet performed its visibility flip. Because
  // flips are serialized by visibility_mu_ and FinishTxn by active_mu_,
  // this set is exact w.r.t. the capture timestamp: a transaction outside
  // it either flipped before capture_ts (its effects are captured) or
  // finished an abort (its effects net to zero). The snapshot-reader
  // transaction registered here pins the version-store GC horizon at
  // capture_ts so the image builder can read as-of capture_ts while
  // commits keep flowing; release it with ReleaseCheckpointReader.
  struct CheckpointCapture {
    uint64_t capture_ts = 0;
    // WAL high-water mark at capture: the image reflects every flipped
    // transaction's records up to here; records above it always replay.
    Lsn checkpoint_lsn = kInvalidLsn;
    // Replay must start here: min over active transactions' begin-floor
    // LSNs (+1), or checkpoint_lsn + 1 when nothing was in flight.
    // Segments entirely below are dead once the image publishes.
    Lsn redo_start_lsn = kInvalidLsn;
    // Transactions whose records must replay even at or below
    // checkpoint_lsn (their effects are excluded from the image).
    std::vector<TxnId> active_txns;
    // System snapshot reader pinning the GC horizon at capture_ts.
    Transaction* reader = nullptr;
  };
  CheckpointCapture CaptureCheckpoint();
  void ReleaseCheckpointReader(Transaction* reader);

  // One watchdog pass: aborts every *idle* user transaction whose age
  // exceeds max_txn_lifetime_micros (no-op when the watchdog is disabled).
  // "Idle" means the owner latch could be taken without blocking — a
  // transaction whose owner thread is mid-operation is skipped and caught
  // on a later pass. Returns the number of transactions aborted. The
  // background thread calls this periodically; tests with a ManualClock
  // call it directly for a deterministic sweep. Exempt from the static
  // analysis: the owner latch is try-acquired inside one scope and released
  // after the abort, a conditionally-held hand-off clang cannot model.
  uint64_t SweepStuckTransactions() IVDB_NO_THREAD_SAFETY_ANALYSIS;

  // Releases the descriptor of a finished transaction. Optional — finished
  // descriptors are also reclaimed lazily — but long-running benchmarks
  // should call it to bound memory.
  void Forget(Transaction* txn);

  EpochClock* clock() { return &clock_; }
  const TxnManagerMetrics& metrics() const { return metrics_; }

  // Next id to be handed out (checkpoint high-water mark).
  TxnId PeekNextTxnId() const {
    return next_txn_id_.load(std::memory_order_relaxed);
  }

  // After restart: resume id/timestamp allocation above everything replayed.
  void AdvancePast(TxnId max_txn_id, uint64_t max_ts);

 private:
  Status AppendBeginIfNeeded(Transaction* txn);
  Status AppendDataRecord(Transaction* txn, LogRecord rec);
  void FinishTxn(Transaction* txn, TxnState final_state);
  Transaction* Register(std::unique_ptr<Transaction> txn)
      IVDB_REQUIRES(active_mu_);
  void WatchdogLoop();

  // Step-3 sequencer: pops flip_queue_ while the head's COMMIT LSN is
  // <= durable_upto, flipping each popped transaction (reserve visible_ts,
  // stamp the version store, set_flipped, publish). Strict LSN order.
  void FlipCommittedLocked(Lsn durable_upto) IVDB_REQUIRES(visibility_mu_);

  LockManager* const lock_manager_;
  LogManager* const log_manager_;
  VersionStore* const version_store_;
  LogApplier* const applier_;
  Options options_;
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  TxnManagerMetrics metrics_;
  Clock* const wall_clock_;
  obs::FlightRecorder* const flight_;

  // Sharded timestamp source: Begin draws are lock-free per-thread; commit
  // epochs are reserved/published under visibility_mu_ (see class comment).
  EpochClock clock_;
  std::atomic<TxnId> next_txn_id_{1};

  // Reader-epoch registry: every live transaction pins its begin_ts here
  // (Enter in Register, Leave in FinishTxn); the minimum pin is the
  // version-store reclamation horizon.
  EpochReaderRegistry epochs_;

  // Serializes commit-epoch draws + the in-LSN-order version-store flip
  // sequencer (see class comment). Begin's snapshot draw no longer takes
  // it — EpochClock's publish protocol orders lock-free snapshots against
  // unpublished flips.
  RankedMutex visibility_mu_{LockRank::kTxnVisibility, "visibility_mu_"};
  // COMMIT-appended-but-not-yet-flipped user transactions, in COMMIT LSN
  // order (appends happen under visibility_mu_).
  struct FlipEntry {
    Lsn lsn = kInvalidLsn;
    Transaction* txn = nullptr;
  };
  std::deque<FlipEntry> flip_queue_ IVDB_GUARDED_BY(visibility_mu_);

  mutable RankedMutex active_mu_{LockRank::kTxnActive, "active_mu_"};
  CondVar active_cv_;
  bool quiescing_ IVDB_GUARDED_BY(active_mu_) = false;
  // Admission-gate population (excludes system).
  size_t user_active_ IVDB_GUARDED_BY(active_mu_) = 0;
  std::map<TxnId, std::unique_ptr<Transaction>> active_
      IVDB_GUARDED_BY(active_mu_);
  std::map<TxnId, std::unique_ptr<Transaction>> finished_
      IVDB_GUARDED_BY(active_mu_);

  // Stuck-transaction watchdog (only when max_txn_lifetime_micros > 0).
  // The thread paces itself on real time; transaction ages come from
  // wall_clock_, so under a ManualClock the thread is inert and tests
  // drive SweepStuckTransactions() directly.
  std::thread watchdog_;
  RankedMutex watchdog_mu_{LockRank::kTxnWatchdog, "watchdog_mu_"};
  CondVar watchdog_cv_;
  bool watchdog_stop_ IVDB_GUARDED_BY(watchdog_mu_) = false;
};

}  // namespace ivdb

#endif  // IVDB_TXN_TXN_MANAGER_H_
