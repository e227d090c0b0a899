#ifndef IVDB_STORAGE_VERSION_STORE_H_
#define IVDB_STORAGE_VERSION_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <functional>

#include "common/mutex.h"
#include "common/slice.h"
#include "common/thread_annotations.h"
#include "storage/btree.h"
#include "storage/epoch_reclaimer.h"
#include "storage/increment.h"
#include "wal/log_record.h"

namespace ivdb {

// Committed-version bookkeeping for snapshot (multiversion) reads.
//
// The paper's answer to readers blocking behind escrow writers is
// multiversioning: a read-only query reads the state committed before its
// snapshot timestamp and never touches the lock manager. The storage
// B-trees are updated *in place* (with WAL undo), so this side store keeps
// exactly what in-place updating destroys:
//
//  1. For plain writes (insert/delete/update under X locks): a chain of
//     superseded committed values per key, each stamped with the commit
//     timestamp of the transaction that replaced it, plus "pending" entries
//     for in-flight writers (whose old value *is* the current committed
//     state).
//  2. For escrow increments (E locks): per-key lists of column deltas, each
//     either uncommitted (owned by a live transaction) or committed at some
//     timestamp. The committed value visible at snapshot S is
//        physical_value − Σ uncommitted deltas − Σ committed deltas with
//        commit_ts > S.
//     Delta-based reconstruction is the only correct option here: with
//     several uncommitted incrementers interleaved on one row, *no*
//     before-image of the row equals the committed state.
//
// The two representations never overlap on a key at the same instant
// because E conflicts with X/S/U in the lock manager.
//
// Concurrency: chains are striped — (object, key) hashes onto a fixed
// array of cache-line-aligned stripes, each with its own mutex and chain
// map, so writers on independent keys never contend. All stripe mutexes
// share one rank, which forbids nesting two (multi-key operations — abort,
// GC, scans — visit stripes one at a time). The txn -> stamp and
// dirty-chain-key bookkeeping (pending_) is split into kPendingShards
// cache-line-aligned shards chosen by `txn % kPendingShards`, each with its
// own pending_mu_, so concurrent transactions' PendingFor/Commit/Abort
// calls touch disjoint mutexes. A shard mutex ranks below the stripes and
// is taken only with no stripe held: a writer fetches its record before
// taking the stripe and records a new dirty key after releasing it, which
// is safe because only the owning transaction's thread touches its own key
// list until commit/abort.
//
// Commit stamps: every pending entry of a transaction shares one
// CommitStamp, so Commit is one release-store of the commit timestamp,
// whatever the number or length of the chains it touched — no stripe
// mutex, no chain walk. Readers resolve an entry's timestamp through the
// stamp (acquire) until GC or the next writer under the entry's stripe
// copies it in (docs/INTERNALS.md §5, §7).
//
// Reclamation is epoch-based (docs/INTERNALS.md §7): GarbageCollect and
// Abort only UNLINK dead versions under the stripes; the payloads move into
// the EpochReclaimer's retire pile and are physically freed by
// AdvanceReclamation once every reader pinned at or below the batch's epoch
// stamp has left the reader epoch.
class VersionStore {
 public:
  // Shards of the pending-transaction map; transaction `t` lives in shard
  // `t % kPendingShards`.
  static constexpr size_t kPendingShards = 16;

  VersionStore();
  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  // --- Writer-side hooks (called by the engine while it holds the
  //     appropriate transaction locks). ---

  // First physical replace of (object, key) by `txn`: remembers the
  // pre-transaction committed value (nullopt = key absent). Subsequent calls
  // by the same txn for the same key are ignored.
  void NotePendingWrite(uint32_t object_id, const Slice& key,
                        std::optional<std::string> old_value, TxnId txn);

  // Escrow increment applied physically by `txn`.
  void NotePendingIncrement(uint32_t object_id, const Slice& key,
                            const std::vector<ColumnDelta>& deltas, TxnId txn);

  // --- Atomic note+apply (the physical change and its version-store
  //     bookkeeping become one event w.r.t. snapshot readers, which is what
  //     makes GetAsOfConsistent race-free). ---

  // A lower bound the committed value of a row column must never violate,
  // whatever subset of the currently pending increments eventually commits
  // (O'Neil-style escrow constraint, e.g. "quantity on hand >= 0").
  struct ColumnBound {
    uint32_t column = 0;
    int64_t min_value = 0;
  };

  // Records the pending increment for `txn` and applies it to `tree`, both
  // under the store's mutex. With create_pending = false, only an existing
  // pending entry of `txn` is accumulated into (rollback compensation:
  // cancels the entry as the physical undo lands) — when none exists (e.g.
  // restart redo, where there are no readers), the apply is purely physical.
  //
  // When `bounds` is non-null the increment is admitted only if every bound
  // holds in the *worst case* (this increment commits, every other pending
  // increment aborts). Returns:
  //   kInvalidArgument — violated even if everything commits (permanent);
  //   kBusy            — only the pessimistic outcome violates; the caller
  //                      may retry once concurrent transactions settle.
  // `pre_apply`, when provided, runs under the mutex after bound admission
  // and before the physical application — the hook where the caller appends
  // its WAL record, preserving log-before-apply without letting another
  // increment slip between admission and application.
  Status ApplyIncrement(uint32_t object_id, const Slice& key,
                        const std::vector<ColumnDelta>& deltas, TxnId txn,
                        bool create_pending, BTree* tree,
                        const std::vector<ColumnBound>* bounds = nullptr,
                        const std::function<Status()>& pre_apply = {});

  // The pending (uncommitted) delta sets currently attached to (object,
  // key), excluding those owned by `exclude_txn`. Used for escrow-bound
  // checks and optimistic "value bounds" reads.
  std::vector<std::vector<ColumnDelta>> PendingDeltas(
      uint32_t object_id, const Slice& key, TxnId exclude_txn = 0) const;

  // Records the pending write (pre-image `old_value`) for `txn` and runs
  // `apply` (the physical insert/update/delete) under the store's mutex.
  Status ApplyWithPendingWrite(uint32_t object_id, const Slice& key,
                               std::optional<std::string> old_value,
                               TxnId txn, const std::function<Status()>& apply);

  // Converts all pending entries of `txn` into committed versions stamped
  // with commit_ts (> 0): one store into the transaction's CommitStamp, then
  // the commit hook for each dirty key. Takes only `txn`'s pending shard;
  // the caller may be another transaction's thread (the commit flip).
  void Commit(TxnId txn, uint64_t commit_ts);

  // Discards all pending entries of `txn` (the physical rollback restores
  // the B-tree itself). The removed entries are unlinked under their
  // stripes and retired at `retire_stamp` (the epoch-clock value current at
  // the abort; 0 = "retire at the next Advance", safe because the entries
  // were pending — no snapshot resolves them after the unlink).
  void Abort(TxnId txn, uint64_t retire_stamp = 0);

  // Commit-visibility hook, fired once per dirty (object, key) of each
  // Commit(txn, commit_ts) after the stamp store, with no stripe held. The
  // scan cache uses it for precise invalidation. Install before concurrent
  // use (Database construction); not synchronized.
  using CommitHook =
      std::function<void(uint32_t object_id, const std::string& key,
                         uint64_t visible_ts)>;
  void SetCommitHook(CommitHook hook) { commit_hook_ = std::move(hook); }

  // --- Reader side. ---

  struct SnapshotView {
    // When true, `chain_value` (possibly absent) is the base image instead
    // of the current physical value.
    bool use_chain_value = false;
    std::optional<std::string> chain_value;
    // Delta sets to subtract from the base image (increments invisible at
    // the snapshot but physically contained in it).
    std::vector<std::vector<ColumnDelta>> subtract;
  };

  // Computes how a reader at `snapshot_ts` must interpret (object, key).
  // An empty view (no chain value, no subtractions) means the physical
  // B-tree value is directly visible.
  SnapshotView GetAsOf(uint32_t object_id, const Slice& key,
                       uint64_t snapshot_ts) const;

  // Race-free variant: computes the view AND reads the physical value from
  // `tree` under the store's mutex, so no writer's note+apply pair can fall
  // between them. On return, *physical holds the tree value (when present)
  // — only meaningful when the view does not carry a chain value.
  SnapshotView GetAsOfConsistent(uint32_t object_id, const Slice& key,
                                 uint64_t snapshot_ts, const BTree* tree,
                                 std::optional<std::string>* physical) const;

  // Point-in-time version-chain length distribution: entries (committed
  // versions + pending notes, value and delta alike) per chained key.
  // p99 is the nearest-rank 99th percentile across chains (equal to max
  // when fewer than 100 chains exist).
  struct ChainLengthStats {
    uint64_t chain_count = 0;
    uint64_t max_len = 0;
    uint64_t p99_len = 0;
  };

  // Unlinks versions invisible to every snapshot with ts >=
  // oldest_active_ts. Unlinked entries are NOT destroyed here: they move
  // into the epoch reclaimer's retire pile stamped with `retire_stamp` (the
  // epoch-clock value current at the unlink) and are freed by
  // AdvanceReclamation once every reader pinned at or below that stamp has
  // left the epoch. Returns the number of entries unlinked. When `stats` is
  // non-null it is filled with the post-prune chain-length distribution
  // collected during the same walk (no second pass over the stripes).
  uint64_t GarbageCollect(uint64_t oldest_active_ts, uint64_t retire_stamp = 0,
                          ChainLengthStats* stats = nullptr);

  // Physically frees retired batches every epoch reader has moved past;
  // `min_active_pin` is EpochReaderRegistry::MinActivePin(). Returns
  // entries freed.
  uint64_t AdvanceReclamation(uint64_t min_active_pin) {
    return reclaimer_.Advance(min_active_pin);
  }

  EpochReclaimer* reclaimer() { return &reclaimer_; }

  uint64_t TotalEntries() const;

  // Standalone chain-length distribution pass (DumpMetrics-path / tests);
  // GC passes get the same stats for free via GarbageCollect's out-param.
  ChainLengthStats CollectChainLengthStats() const;

  // Keys of `object_id` that currently have version chains. Snapshot scans
  // union these with the physical keys (a recently deleted key may still be
  // visible to old snapshots only through its chain).
  std::vector<std::string> ListChainKeys(uint32_t object_id) const;

 private:
  // One per writing transaction, shared by every pending entry it creates.
  // The visibility flip is one release-store of the commit timestamp here;
  // until then the entries read as pending.
  struct CommitStamp {
    std::atomic<uint64_t> ts{0};  // 0 => not committed
    TxnId owner = 0;
    std::atomic<uint32_t> refs{1};
  };

  // Counted reference to a CommitStamp; the last one frees it. Intrusive,
  // so an entry pays 8 bytes for it instead of a shared_ptr's 16 — entries
  // keep their pre-stamp size, which matters because chains are stored
  // per key and most hold a single entry.
  class StampRef {
   public:
    StampRef() = default;
    explicit StampRef(TxnId owner)
        : stamp_(std::make_unique<CommitStamp>().release()) {
      stamp_->owner = owner;
    }
    StampRef(const StampRef& other) : stamp_(other.stamp_) {
      if (stamp_ != nullptr) {
        stamp_->refs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    StampRef(StampRef&& other) noexcept
        : stamp_(std::exchange(other.stamp_, nullptr)) {}
    StampRef& operator=(StampRef other) noexcept {
      std::swap(stamp_, other.stamp_);
      return *this;
    }
    ~StampRef() { reset(); }

    void reset() {
      CommitStamp* stamp = std::exchange(stamp_, nullptr);
      if (stamp != nullptr &&
          stamp->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::unique_ptr<CommitStamp> last(stamp);  // last reference frees it
      }
    }
    CommitStamp* operator->() const { return stamp_; }
    explicit operator bool() const { return stamp_ != nullptr; }

   private:
    CommitStamp* stamp_ = nullptr;
  };

  // Commit-timestamp bookkeeping common to value and delta entries. While
  // `stamp` is set the timestamp lives in the owner's CommitStamp; the next
  // writer under the entry's stripe, or GC, copies a committed stamp's
  // timestamp into `ts` and drops the reference (CopyIn).
  struct Stamped {
    uint64_t ts = 0;  // copied-in commit timestamp; meaningless while stamped
    StampRef stamp;

    // The commit timestamp, 0 while the owner has not committed.
    uint64_t Resolve() const {
      return stamp ? stamp->ts.load(std::memory_order_acquire) : ts;
    }
    // The owner while the entry still references its stamp, else 0.
    TxnId Owner() const { return stamp ? stamp->owner : 0; }
    bool PendingOf(TxnId txn) const { return Owner() == txn && Resolve() == 0; }
    void CopyIn() {
      if (!stamp) return;
      const uint64_t committed = stamp->ts.load(std::memory_order_acquire);
      if (committed == 0) return;
      ts = committed;
      stamp.reset();
    }
  };
  // A committed value superseded at Resolve() (0 => pending: the value
  // before the owner's in-flight write).
  struct ValueVersion : Stamped {
    std::optional<std::string> value;
  };
  // An escrow delta committed at Resolve() (0 => pending).
  struct DeltaVersion : Stamped {
    std::vector<ColumnDelta> deltas;
  };
  struct Chain {
    // Insertion order, which is commit order: X locks admit one value
    // writer at a time and hold it through its flip, so resolved
    // timestamps never decrease along the vector and a pending entry can
    // only be last.
    std::vector<ValueVersion> values;
    std::vector<DeltaVersion> deltas;
  };

  // One GC/abort pass's unlinked entries, awaiting epoch retirement. Lives
  // behind the reclaimer's type-erased payload; its destructor (run inside
  // EpochReclaimer::Advance, the IVDB_EPOCH_RETIRE_PATH) is the only place
  // dead versions are physically freed.
  struct RetiredVersions {
    std::vector<ValueVersion> values;
    std::vector<DeltaVersion> deltas;
  };

  using ChainKey = std::pair<uint32_t, std::string>;

  // One hash bucket of the chain map. Cache-line aligned so independent
  // keys never false-share; all stripe mutexes carry rank kVersionStore,
  // so the order checker rejects nesting two.
  struct alignas(64) Stripe {
    mutable RankedMutex version_stripe_mu_{LockRank::kVersionStore,
                                           "version_stripe_mu_"};
    std::map<ChainKey, Chain> chains IVDB_GUARDED_BY(version_stripe_mu_);
  };

  Stripe& StripeFor(const ChainKey& ck) const;

  // A writing transaction's stamp and the chain keys it has pending
  // entries in (for O(changes) commit/abort).
  struct PendingTxn {
    StampRef stamp;  // set by PendingFor
    // Appended without pending_mu_ by the owning transaction's thread only;
    // Commit/Abort take the record out under its shard's pending_mu_ after
    // the owner's last write happened-before them (see Commit).
    std::vector<ChainKey> keys;
  };

  // One shard of the txn -> PendingTxn map. Cache-line aligned so two
  // shards never false-share; every shard mutex carries rank
  // kVersionPending, so the order checker rejects nesting two.
  struct alignas(64) PendingShard {
    mutable RankedMutex pending_mu_{LockRank::kVersionPending, "pending_mu_"};
    std::unordered_map<TxnId, PendingTxn> txns IVDB_GUARDED_BY(pending_mu_);
  };

  PendingShard& PendingShardFor(TxnId txn) {
    return pending_[txn % kPendingShards];
  }

  // `txn`'s record, created on first use (its shard's pending_mu_). Called
  // before the caller takes a stripe, so pending_mu_ is never acquired
  // under one; unordered_map nodes are stable, so the pointer outlives the
  // mutex.
  PendingTxn* PendingFor(TxnId txn);

  // Removes and returns `txn`'s record (nullopt when it wrote nothing).
  std::optional<PendingTxn> TakePending(TxnId txn);

  // Unlocked internals (the owning stripe's mutex held by caller). The
  // note helpers return true when they created a new pending entry, whose
  // key the caller then records in `pending->keys`. A null `pending` (the
  // undo path's create_pending = false) never creates one.
  bool NotePendingWriteLocked(Stripe& stripe, const ChainKey& ck,
                              std::optional<std::string> old_value, TxnId txn,
                              const PendingTxn& pending)
      IVDB_REQUIRES(stripe.version_stripe_mu_);
  bool NotePendingIncrementLocked(Stripe& stripe, const ChainKey& ck,
                                  const std::vector<ColumnDelta>& deltas,
                                  TxnId txn, const PendingTxn* pending)
      IVDB_REQUIRES(stripe.version_stripe_mu_);
  SnapshotView GetAsOfLocked(const Stripe& stripe, uint32_t object_id,
                             const Slice& key, uint64_t snapshot_ts) const
      IVDB_REQUIRES(stripe.version_stripe_mu_);

  // Striped chain map (fixed size after construction).
  std::vector<std::unique_ptr<Stripe>> stripes_;

  // txn -> its stamp and dirty keys, sharded by txn id. Ranked below the
  // stripes and never taken while one is held.
  std::array<PendingShard, kPendingShards> pending_;

  // Deferred-free pile for unlinked versions (rank 38, taken with no
  // stripe held).
  EpochReclaimer reclaimer_;

  // Fired per committed dirty key after its stripe is released; see
  // SetCommitHook.
  CommitHook commit_hook_;
};

}  // namespace ivdb

#endif  // IVDB_STORAGE_VERSION_STORE_H_
