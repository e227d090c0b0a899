#include "storage/version_store.h"

#include <algorithm>

#include "common/invariant.h"
#include "common/logging.h"
#include "common/mutex.h"

namespace ivdb {

namespace {

// Default stripe count: enough buckets that concurrent committers hashing
// random keys almost never collide, at a trivial fixed footprint.
constexpr size_t kVersionStripes = 16;

}  // namespace

VersionStore::VersionStore() {
  stripes_.reserve(kVersionStripes);
  for (size_t i = 0; i < kVersionStripes; i++) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

VersionStore::Stripe& VersionStore::StripeFor(const ChainKey& ck) const {
  size_t h = std::hash<uint32_t>{}(ck.first);
  h ^= std::hash<std::string>{}(ck.second) + 0x9e3779b97f4a7c15ULL +
       (h << 6) + (h >> 2);
  return *stripes_[h % stripes_.size()];
}

VersionStore::PendingTxn* VersionStore::PendingFor(TxnId txn) {
  PendingShard& shard = PendingShardFor(txn);
  MutexLock guard(&shard.pending_mu_);
  PendingTxn& pending = shard.txns[txn];
  if (!pending.stamp) pending.stamp = StampRef(txn);
  return &pending;
}

std::optional<VersionStore::PendingTxn> VersionStore::TakePending(TxnId txn) {
  PendingShard& shard = PendingShardFor(txn);
  MutexLock guard(&shard.pending_mu_);
  auto it = shard.txns.find(txn);
  if (it == shard.txns.end()) return std::nullopt;
  PendingTxn record = std::move(it->second);
  shard.txns.erase(it);
  return record;
}

#if IVDB_CHECKS_ENABLED
namespace {

// Structural invariants of one version chain (its stripe mutex held):
//  - resolved superseded timestamps are non-decreasing in insertion order,
//    and a pending value version (resolved 0) can only be the last — so
//    there is at most one;
//  - every pending entry (value or delta) still references its stamp.
// (Template so the private Chain type is deduced, not named.)
template <typename ChainT>
void CheckChainInvariants(const ChainT& chain) {
  uint64_t prev_ts = 0;
  bool seen_pending = false;
  for (const auto& v : chain.values) {
    const uint64_t superseded = v.Resolve();
    IVDB_INVARIANT(!seen_pending,
                   "value version ordered after a pending one");
    if (superseded == 0) {
      IVDB_INVARIANT(static_cast<bool>(v.stamp),
                     "pending value version must reference its stamp");
      seen_pending = true;
      continue;
    }
    IVDB_INVARIANT(superseded >= prev_ts,
                   "value versions out of superseded_ts order");
    prev_ts = superseded;
  }
  for (const auto& d : chain.deltas) {
    if (d.Resolve() == 0) {
      IVDB_INVARIANT(static_cast<bool>(d.stamp),
                     "pending delta must reference its stamp");
    }
  }
}

}  // namespace
#endif  // IVDB_CHECKS_ENABLED

bool VersionStore::NotePendingWriteLocked(Stripe& stripe, const ChainKey& ck,
                                          std::optional<std::string> old_value,
                                          TxnId txn,
                                          const PendingTxn& pending) {
  Chain& chain = stripe.chains[ck];
  for (ValueVersion& v : chain.values) {
    v.CopyIn();
    if (v.PendingOf(txn)) return false;  // already noted
  }
  ValueVersion v;
  v.value = std::move(old_value);
  v.stamp = pending.stamp;
  chain.values.push_back(std::move(v));
#if IVDB_CHECKS_ENABLED
  CheckChainInvariants(chain);
#endif
  return true;
}

void VersionStore::NotePendingWrite(uint32_t object_id, const Slice& key,
                                    std::optional<std::string> old_value,
                                    TxnId txn) {
  ChainKey ck{object_id, key.ToString()};
  Stripe& stripe = StripeFor(ck);
  PendingTxn* pending = PendingFor(txn);
  bool created;
  {
    MutexLock guard(&stripe.version_stripe_mu_);
    created = NotePendingWriteLocked(stripe, ck, std::move(old_value), txn,
                                     *pending);
  }
  if (created) pending->keys.push_back(std::move(ck));
}

bool VersionStore::NotePendingIncrementLocked(
    Stripe& stripe, const ChainKey& ck, const std::vector<ColumnDelta>& deltas,
    TxnId txn, const PendingTxn* pending) {
  auto chain_it = stripe.chains.find(ck);
  if (chain_it == stripe.chains.end()) {
    if (pending == nullptr) return false;
    chain_it = stripe.chains.emplace(ck, Chain{}).first;
  }
  Chain& chain = chain_it->second;
  // Coalesce with an existing pending delta entry of this transaction.
  for (DeltaVersion& d : chain.deltas) {
    d.CopyIn();
    if (d.PendingOf(txn)) {
      for (const ColumnDelta& nd : deltas) {
        bool merged = false;
        for (ColumnDelta& od : d.deltas) {
          if (od.column == nd.column) {
            // Both deltas already passed increment validation (same column,
            // same chain ⇒ same type, non-null), so a failure here would be
            // silent lost-update corruption, not a recoverable error.
            IVDB_CHECK_MSG(od.delta.AccumulateAdd(nd.delta).ok(),
                           "pending delta coalesce must be type-compatible");
            merged = true;
            break;
          }
        }
        if (!merged) d.deltas.push_back(nd);
      }
      return false;
    }
  }
  if (pending == nullptr) {
    return false;  // undo path with nothing pending: physical only
  }
  DeltaVersion d;
  d.deltas = deltas;
  d.stamp = pending->stamp;
  chain.deltas.push_back(std::move(d));
  return true;
}

void VersionStore::NotePendingIncrement(uint32_t object_id, const Slice& key,
                                        const std::vector<ColumnDelta>& deltas,
                                        TxnId txn) {
  ChainKey ck{object_id, key.ToString()};
  Stripe& stripe = StripeFor(ck);
  PendingTxn* pending = PendingFor(txn);
  bool created;
  {
    MutexLock guard(&stripe.version_stripe_mu_);
    created = NotePendingIncrementLocked(stripe, ck, deltas, txn, pending);
  }
  if (created) pending->keys.push_back(std::move(ck));
}

Status VersionStore::ApplyIncrement(uint32_t object_id, const Slice& key,
                                    const std::vector<ColumnDelta>& deltas,
                                    TxnId txn, bool create_pending,
                                    BTree* tree,
                                    const std::vector<ColumnBound>* bounds,
                                    const std::function<Status()>& pre_apply) {
  ChainKey ck{object_id, key.ToString()};
  Stripe& stripe = StripeFor(ck);
  PendingTxn* pending = create_pending ? PendingFor(txn) : nullptr;
  bool created = false;
  {
    MutexLock guard(&stripe.version_stripe_mu_);

    if (bounds != nullptr && !bounds->empty()) {
      // Escrow-bound admission: candidate = physical + my deltas (= the
      // value if every pending transaction commits, since physical already
      // contains the others' applied deltas). Worst case subtracts every
      // *positive* pending contribution of other transactions (they might
      // all abort). A delta whose stamp is committed but not yet copied in
      // counts as committed.
      std::string value;
      if (!tree->Get(key, &value)) {
        return Status::NotFound("escrow bound check: row missing");
      }
      Row row;
      IVDB_RETURN_NOT_OK(DecodeRow(value, &row));
      IVDB_RETURN_NOT_OK(ApplyIncrementToRow(&row, deltas));
      auto chain_it = stripe.chains.find(ck);
      for (const ColumnBound& bound : *bounds) {
        if (bound.column >= row.size() ||
            row[bound.column].type() != TypeId::kInt64) {
          return Status::InvalidArgument("escrow bound on non-int64 column");
        }
        int64_t candidate = row[bound.column].AsInt64();
        if (candidate < bound.min_value) {
          return Status::InvalidArgument(
              "escrow bound violated even if all pending work commits");
        }
        int64_t worst = candidate;
        if (chain_it != stripe.chains.end()) {
          for (const DeltaVersion& d : chain_it->second.deltas) {
            if (d.Owner() == txn || d.Resolve() != 0) continue;
            for (const ColumnDelta& cd : d.deltas) {
              if (cd.column == bound.column && !cd.delta.is_null() &&
                  cd.delta.AsInt64() > 0) {
                worst -= cd.delta.AsInt64();
              }
            }
          }
        }
        if (worst < bound.min_value) {
          return Status::Busy(
              "escrow bound at risk until concurrent transactions settle");
        }
      }
    }

    if (pre_apply) {
      IVDB_RETURN_NOT_OK(pre_apply());  // WAL append, log-before-apply
    }
    // Apply after admission: if the physical application fails (corrupt
    // row, missing key) the bookkeeping must not claim a delta that never
    // landed.
    IVDB_RETURN_NOT_OK(ApplyIncrementToTree(tree, key, deltas));
    created = NotePendingIncrementLocked(stripe, ck, deltas, txn, pending);
  }
  if (created) pending->keys.push_back(std::move(ck));
  return Status::OK();
}

std::vector<std::vector<ColumnDelta>> VersionStore::PendingDeltas(
    uint32_t object_id, const Slice& key, TxnId exclude_txn) const {
  ChainKey ck{object_id, key.ToString()};
  Stripe& stripe = StripeFor(ck);
  MutexLock guard(&stripe.version_stripe_mu_);
  std::vector<std::vector<ColumnDelta>> out;
  auto it = stripe.chains.find(ck);
  if (it == stripe.chains.end()) return out;
  for (const DeltaVersion& d : it->second.deltas) {
    if (d.Owner() != exclude_txn && d.Resolve() == 0) {
      out.push_back(d.deltas);
    }
  }
  return out;
}

Status VersionStore::ApplyWithPendingWrite(
    uint32_t object_id, const Slice& key,
    std::optional<std::string> old_value, TxnId txn,
    const std::function<Status()>& apply) {
  ChainKey ck{object_id, key.ToString()};
  Stripe& stripe = StripeFor(ck);
  PendingTxn* pending = PendingFor(txn);
  bool created;
  {
    MutexLock guard(&stripe.version_stripe_mu_);
    IVDB_RETURN_NOT_OK(apply());
    created = NotePendingWriteLocked(stripe, ck, std::move(old_value), txn,
                                     *pending);
  }
  if (created) pending->keys.push_back(std::move(ck));
  return Status::OK();
}

void VersionStore::Commit(TxnId txn, uint64_t commit_ts) {
  IVDB_CHECK_MSG(commit_ts != 0, "commit timestamp 0 means pending");
  // Take the record out of its shard first. Nothing can add to its key
  // list in between: only the owning transaction's thread appends, and its
  // writes happened-before whichever thread is flipping it here
  // (flip_queue_ hand-off under the txn manager's visibility mutex). That
  // thread may be flipping other transactions too; it takes only this
  // transaction's shard, so the owners of the other shards keep writing.
  std::optional<PendingTxn> record = TakePending(txn);
  if (!record) return;
  // The flip itself: every entry of the transaction resolves through this
  // one stamp. A reader that drew its snapshot before the caller publishes
  // commit_ts has snapshot_ts < commit_ts, so it keeps resolving the
  // pre-image whether it loads the stamp before or after this store.
  record->stamp->ts.store(commit_ts, std::memory_order_release);
  // Invalidation hook, no stripe held (rank 20 -> 33 only, never
  // 40 -> 33). The commit is not yet published: any snapshot that can see
  // commit_ts draws its begin_ts after the publish, hence after this.
  if (commit_hook_) {
    for (const ChainKey& ck : record->keys) {
      commit_hook_(ck.first, ck.second, commit_ts);
    }
  }
}

void VersionStore::Abort(TxnId txn, uint64_t retire_stamp) {
  std::optional<PendingTxn> record = TakePending(txn);
  if (!record) return;
  const std::vector<ChainKey>& keys = record->keys;
  // Unlink under the stripes, free via the epoch reclaimer: same discipline
  // as GarbageCollect, so NO version payload is ever destroyed while a
  // stripe mutex is held. The stamp is never stored, so the entries read
  // as pending, never as committed, until they are unlinked.
  auto batch = std::make_shared<RetiredVersions>();
  for (const ChainKey& ck : keys) {
    Stripe& stripe = StripeFor(ck);
    MutexLock guard(&stripe.version_stripe_mu_);
    auto chain_it = stripe.chains.find(ck);
    if (chain_it == stripe.chains.end()) continue;
    Chain& chain = chain_it->second;
    auto v_it = std::stable_partition(
        chain.values.begin(), chain.values.end(),
        [txn](const ValueVersion& v) { return !v.PendingOf(txn); });
    std::move(v_it, chain.values.end(), std::back_inserter(batch->values));
    chain.values.erase(v_it, chain.values.end());
    auto d_it = std::stable_partition(
        chain.deltas.begin(), chain.deltas.end(),
        [txn](const DeltaVersion& d) { return !d.PendingOf(txn); });
    std::move(d_it, chain.deltas.end(), std::back_inserter(batch->deltas));
    chain.deltas.erase(d_it, chain.deltas.end());
    if (chain.values.empty() && chain.deltas.empty()) {
      stripe.chains.erase(chain_it);
    } else {
#if IVDB_CHECKS_ENABLED
      CheckChainInvariants(chain);
#endif
    }
  }
  const uint64_t unlinked = batch->values.size() + batch->deltas.size();
  if (unlinked > 0) {
    reclaimer_.Retire(retire_stamp, unlinked, std::move(batch));
  }
}

VersionStore::SnapshotView VersionStore::GetAsOfLocked(
    const Stripe& stripe, uint32_t object_id, const Slice& key,
    uint64_t snapshot_ts) const {
  SnapshotView view;
  auto it = stripe.chains.find(ChainKey{object_id, key.ToString()});
  if (it == stripe.chains.end()) return view;
  const Chain& chain = it->second;

  // 1. The oldest value version the snapshot cannot see — superseded after
  //    snapshot_ts, or pending (the pre-image of an in-flight write) — is
  //    the base image (versions are in commit order, a pending one last).
  //    That image physically contains every increment committed before it
  //    was captured, so increments committed in (snapshot_ts, superseded)
  //    — invisible to the reader but baked into the image — must still be
  //    stripped; below a pending write every committed increment above
  //    snapshot_ts is. (Lock conflicts guarantee increments and
  //    image-superseding writes serialize in commit order; pending
  //    increments cannot coexist with a pending write: E conflicts with X.)
  for (const ValueVersion& v : chain.values) {
    const uint64_t superseded = v.Resolve();
    if (superseded != 0 && superseded <= snapshot_ts) continue;
    view.use_chain_value = true;
    view.chain_value = v.value;
    for (const DeltaVersion& d : chain.deltas) {
      const uint64_t committed = d.Resolve();
      if (committed > snapshot_ts &&
          (superseded == 0 || committed < superseded)) {
        view.subtract.push_back(d.deltas);
      }
    }
    return view;
  }
  // 2. Otherwise reconstruct by stripping invisible increments off the
  //    physical value.
  for (const DeltaVersion& d : chain.deltas) {
    const uint64_t committed = d.Resolve();
    if (committed == 0 || committed > snapshot_ts) {
      view.subtract.push_back(d.deltas);
    }
  }
  return view;
}

VersionStore::SnapshotView VersionStore::GetAsOf(uint32_t object_id,
                                                 const Slice& key,
                                                 uint64_t snapshot_ts) const {
  Stripe& stripe = StripeFor(ChainKey{object_id, key.ToString()});
  MutexLock guard(&stripe.version_stripe_mu_);
  return GetAsOfLocked(stripe, object_id, key, snapshot_ts);
}

VersionStore::SnapshotView VersionStore::GetAsOfConsistent(
    uint32_t object_id, const Slice& key, uint64_t snapshot_ts,
    const BTree* tree, std::optional<std::string>* physical) const {
  // Holding the chain's stripe across the tree probe keeps a writer's
  // note+apply pair (which runs under the same stripe) from falling
  // between the view computation and the physical read.
  Stripe& stripe = StripeFor(ChainKey{object_id, key.ToString()});
  MutexLock guard(&stripe.version_stripe_mu_);
  SnapshotView view = GetAsOfLocked(stripe, object_id, key, snapshot_ts);
  physical->reset();
  if (!view.use_chain_value) {
    std::string value;
    if (tree->Get(key, &value)) *physical = std::move(value);
  }
  return view;
}

std::vector<std::string> VersionStore::ListChainKeys(
    uint32_t object_id) const {
  // One stripe at a time, then sort: callers union this with the physical
  // key set and expect deterministic ordering.
  std::vector<std::string> keys;
  for (const auto& stripe : stripes_) {
    MutexLock guard(&stripe->version_stripe_mu_);
    for (auto it = stripe->chains.lower_bound(ChainKey{object_id, ""});
         it != stripe->chains.end() && it->first.first == object_id; ++it) {
      keys.push_back(it->first.second);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

uint64_t VersionStore::GarbageCollect(uint64_t oldest_active_ts,
                                      uint64_t retire_stamp,
                                      ChainLengthStats* stats) {
  // Unlink-only pass: dead versions move out of the chains (under their
  // stripe, so no reader mid-lookup can resolve to one) into a retire batch
  // the epoch reclaimer frees once every reader pinned at or below
  // retire_stamp has left (AdvanceReclamation). Keeping destruction out of
  // the stripes is the point — a GC pass costs readers only the unlink.
  uint64_t unlinked = 0;
  auto batch = std::make_shared<RetiredVersions>();
  std::vector<uint64_t> lengths;
  for (const auto& stripe : stripes_) {
    MutexLock guard(&stripe->version_stripe_mu_);
    for (auto it = stripe->chains.begin(); it != stripe->chains.end();) {
      Chain& chain = it->second;
      // Copy committed stamps in, dropping the references.
      for (ValueVersion& v : chain.values) v.CopyIn();
      for (DeltaVersion& d : chain.deltas) d.CopyIn();
      auto live = [&](const Stamped& e) {
        const uint64_t ts = e.Resolve();
        return ts == 0 || ts > oldest_active_ts;
      };
      size_t before = chain.values.size() + chain.deltas.size();
      auto v_it = std::stable_partition(chain.values.begin(),
                                        chain.values.end(), live);
      std::move(v_it, chain.values.end(), std::back_inserter(batch->values));
      chain.values.erase(v_it, chain.values.end());
      auto d_it = std::stable_partition(chain.deltas.begin(),
                                        chain.deltas.end(), live);
      std::move(d_it, chain.deltas.end(), std::back_inserter(batch->deltas));
      chain.deltas.erase(d_it, chain.deltas.end());
      size_t after = chain.values.size() + chain.deltas.size();
      unlinked += before - after;
      if (after == 0) {
        it = stripe->chains.erase(it);
      } else {
        if (stats != nullptr) lengths.push_back(after);
        ++it;
      }
    }
  }
  if (unlinked > 0) {
    reclaimer_.Retire(retire_stamp, unlinked, std::move(batch));
  }
  if (stats != nullptr) {
    *stats = ChainLengthStats{};
    stats->chain_count = lengths.size();
    if (!lengths.empty()) {
      std::sort(lengths.begin(), lengths.end());
      stats->max_len = lengths.back();
      stats->p99_len = lengths[static_cast<size_t>(
          static_cast<double>(lengths.size() - 1) * 0.99)];
    }
  }
  return unlinked;
}

uint64_t VersionStore::TotalEntries() const {
  uint64_t n = 0;
  for (const auto& stripe : stripes_) {
    MutexLock guard(&stripe->version_stripe_mu_);
    for (const auto& [ck, chain] : stripe->chains) {
      n += chain.values.size() + chain.deltas.size();
    }
  }
  return n;
}

VersionStore::ChainLengthStats VersionStore::CollectChainLengthStats() const {
  std::vector<uint64_t> lengths;
  for (const auto& stripe : stripes_) {
    MutexLock guard(&stripe->version_stripe_mu_);
    for (const auto& [ck, chain] : stripe->chains) {
      lengths.push_back(chain.values.size() + chain.deltas.size());
    }
  }
  ChainLengthStats stats;
  stats.chain_count = lengths.size();
  if (lengths.empty()) return stats;
  // Nearest-rank percentile; chains are visited stripe by stripe, so the
  // distribution is "as of no single instant" — fine for a gauge.
  std::sort(lengths.begin(), lengths.end());
  stats.max_len = lengths.back();
  stats.p99_len =
      lengths[static_cast<size_t>(static_cast<double>(lengths.size() - 1) *
                                  0.99)];
  return stats;
}

}  // namespace ivdb
