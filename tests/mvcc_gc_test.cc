// Epoch-based version reclamation and the read-optimized scan cache
// (docs/INTERNALS.md §7).
//
// The component-level half drives a bare TransactionManager + VersionStore
// (the TxnTest fixture shape) so it can assert on the reclaimer's pile and
// the reader-epoch registry directly: a pinned old snapshot blocks physical
// frees, releasing it advances the minimum active pin and lets
// AdvanceReclamation destroy the retired batches, and chain lengths shrink
// accordingly. Everything is single-threaded and runs on a ManualClock —
// each assertion is deterministic, never a race with a background sweep.
//
// The Database-level half exercises the last-committed scan cache through
// the public API: repeat snapshot scans of an indexed view are served from
// the cache, and an escrow commit invalidates exactly the dirty group key
// — one slow re-resolution, not a cache rebuild.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "engine/database.h"
#include "test_util.h"
#include "txn/txn_manager.h"
#include "view/maintenance.h"

namespace ivdb {
namespace {

// Minimal storage for exercising the transaction manager in isolation (one
// map per object id), as in txn_test.cc.
class FakeStorage : public LogApplier {
 public:
  Status ApplyRedo(LogRecordType op_type, const LogRecord& rec) override {
    auto& object = objects_[rec.object_id];
    switch (op_type) {
      case LogRecordType::kInsert:
      case LogRecordType::kUpdate:
        object[rec.key] = rec.after;
        return Status::OK();
      case LogRecordType::kDelete:
        object.erase(rec.key);
        return Status::OK();
      case LogRecordType::kIncrement: {
        Row row;
        IVDB_RETURN_NOT_OK(DecodeRow(object.at(rec.key), &row));
        IVDB_RETURN_NOT_OK(ApplyIncrementToRow(&row, rec.deltas));
        object[rec.key] = EncodeRow(row);
        return Status::OK();
      }
      default:
        return Status::Corruption("unexpected op");
    }
  }

  std::map<uint32_t, std::map<std::string, std::string>> objects_;
};

class MvccGcTest : public ::testing::Test {
 protected:
  static TransactionManager::Options TxnOptions(Clock* clock) {
    TransactionManager::Options options;
    options.clock = clock;
    return options;
  }

  MvccGcTest()
      : log_(LogManagerOptions{}),  // empty dir => in-memory log
        txns_(&locks_, &log_, &versions_, &storage_, TxnOptions(&clock_)) {
    EXPECT_TRUE(log_.Open().ok());
  }

  // WAL-before-apply, with the engine's note+apply version bookkeeping so
  // snapshot chains actually grow.
  Status Insert(Transaction* txn, uint32_t obj, const std::string& key,
                const std::string& value) {
    IVDB_RETURN_NOT_OK(txns_.LogInsert(txn, obj, key, value));
    return versions_.ApplyWithPendingWrite(
        obj, key, std::nullopt, txn->id(), [&] {
          storage_.objects_[obj][key] = value;
          return Status::OK();
        });
  }
  Status Update(Transaction* txn, uint32_t obj, const std::string& key,
                const std::string& value) {
    std::string before = storage_.objects_[obj][key];
    IVDB_RETURN_NOT_OK(txns_.LogUpdate(txn, obj, key, before, value));
    return versions_.ApplyWithPendingWrite(
        obj, key, before, txn->id(), [&] {
          storage_.objects_[obj][key] = value;
          return Status::OK();
        });
  }

  // One committed transaction updating (obj, key).
  void CommitUpdate(uint32_t obj, const std::string& key,
                    const std::string& value) {
    Transaction* txn = txns_.Begin();
    ASSERT_TRUE(Update(txn, obj, key, value).ok());
    ASSERT_TRUE(txns_.Commit(txn).ok());
  }

  ManualClock clock_;
  FakeStorage storage_;
  LockManager locks_;
  VersionStore versions_;
  LogManager log_;
  TransactionManager txns_;
};

TEST_F(MvccGcTest, EpochPinsTrackTransactionLifetime) {
  EXPECT_EQ(txns_.epochs()->ActivePins(), 0u);
  EXPECT_EQ(txns_.epochs()->MinActivePin(), UINT64_MAX);

  Transaction* a = txns_.Begin();
  EXPECT_EQ(txns_.epochs()->ActivePins(), 1u);
  EXPECT_EQ(txns_.epochs()->MinActivePin(), a->begin_ts());

  // System transactions pin the epoch too: a checkpoint reader or a ghost
  // cleaner must hold the GC horizon exactly like a user snapshot.
  Transaction* sys = txns_.BeginSystem();
  EXPECT_EQ(txns_.epochs()->ActivePins(), 2u);
  EXPECT_EQ(txns_.epochs()->MinActivePin(), a->begin_ts());

  ASSERT_TRUE(txns_.Commit(a).ok());
  EXPECT_EQ(txns_.epochs()->ActivePins(), 1u);
  EXPECT_EQ(txns_.epochs()->MinActivePin(), sys->begin_ts());

  ASSERT_TRUE(txns_.Abort(sys).ok());  // abort leaves the epoch as well
  EXPECT_EQ(txns_.epochs()->ActivePins(), 0u);
  EXPECT_EQ(txns_.epochs()->MinActivePin(), UINT64_MAX);
}

TEST_F(MvccGcTest, PinnedReaderDefersPhysicalFrees) {
  const uint32_t kObj = 1;
  {
    Transaction* t1 = txns_.Begin();
    ASSERT_TRUE(Insert(t1, kObj, "k", "v1").ok());
    ASSERT_TRUE(txns_.Commit(t1).ok());
  }
  CommitUpdate(kObj, "k", "v2");

  // The reader pins its begin timestamp in the epoch registry for its whole
  // lifetime; a later commit publishes a fresh epoch above it.
  Transaction* reader = txns_.Begin(ReadMode::kSnapshot);
  CommitUpdate(kObj, "k", "v3");

  const uint64_t retire_stamp = txns_.clock()->Peek();
  ASSERT_GT(retire_stamp, reader->begin_ts());

  // GC unlinks the versions no active snapshot can resolve (the pre-insert
  // absence marker and v1, both superseded before the reader began) but
  // leaves v2 — the reader's visible version — chained.
  VersionStore::ChainLengthStats stats;
  const uint64_t unlinked =
      versions_.GarbageCollect(txns_.OldestActiveTs(), retire_stamp, &stats);
  EXPECT_GE(unlinked, 1u);
  EXPECT_GE(stats.max_len, 1u);  // v2 survives for the pinned reader

  VersionStore::SnapshotView view =
      versions_.GetAsOf(kObj, "k", reader->begin_ts());
  ASSERT_TRUE(view.use_chain_value);
  ASSERT_TRUE(view.chain_value.has_value());
  EXPECT_EQ(*view.chain_value, "v2");

  // Unlinked is not freed: the batch sits in the retire pile stamped above
  // the reader's pin, so AdvanceReclamation at the current minimum active
  // pin must destroy nothing while the reader is inside the epoch.
  EpochReclaimer::Stats pile = versions_.reclaimer()->GetStats();
  EXPECT_GE(pile.pending_batches, 1u);
  EXPECT_EQ(pile.pending_entries, unlinked);
  EXPECT_EQ(pile.freed_entries_total, 0u);
  EXPECT_LE(pile.oldest_stamp, retire_stamp);

  EXPECT_EQ(txns_.epochs()->MinActivePin(), reader->begin_ts());
  EXPECT_EQ(versions_.AdvanceReclamation(txns_.epochs()->MinActivePin()), 0u);
  pile = versions_.reclaimer()->GetStats();
  EXPECT_EQ(pile.pending_entries, unlinked);
  EXPECT_EQ(pile.freed_entries_total, 0u);

  // The reader can still resolve its snapshot after the unlink — the pile
  // holds the only references, and it has not been advanced past the pin.
  view = versions_.GetAsOf(kObj, "k", reader->begin_ts());
  ASSERT_TRUE(view.use_chain_value);
  EXPECT_EQ(*view.chain_value, "v2");

  // Releasing the snapshot empties the epoch; the deferred frees run.
  ASSERT_TRUE(txns_.Commit(reader).ok());
  EXPECT_EQ(txns_.epochs()->MinActivePin(), UINT64_MAX);
  EXPECT_EQ(versions_.AdvanceReclamation(txns_.epochs()->MinActivePin()),
            unlinked);
  pile = versions_.reclaimer()->GetStats();
  EXPECT_EQ(pile.pending_batches, 0u);
  EXPECT_EQ(pile.pending_entries, 0u);
  EXPECT_EQ(pile.freed_entries_total, unlinked);
  EXPECT_EQ(pile.oldest_stamp, UINT64_MAX);
}

TEST_F(MvccGcTest, ReleasingSnapshotShrinksChains) {
  const uint32_t kObj = 1;
  {
    Transaction* t = txns_.Begin();
    ASSERT_TRUE(Insert(t, kObj, "k", "v0").ok());
    ASSERT_TRUE(txns_.Commit(t).ok());
  }

  // Pin a snapshot, then bury the key under twenty newer versions.
  Transaction* reader = txns_.Begin(ReadMode::kSnapshot);
  for (int i = 1; i <= 20; i++) {
    CommitUpdate(kObj, "k", "v" + std::to_string(i));
  }

  VersionStore::ChainLengthStats before = versions_.CollectChainLengthStats();
  EXPECT_GE(before.max_len, 20u);

  // Every superseding commit happened after the reader began, so the whole
  // chain is still potentially visible: GC at the pinned horizon unlinks
  // only what predates the snapshot and the chain stays long.
  VersionStore::ChainLengthStats pinned;
  versions_.GarbageCollect(txns_.OldestActiveTs(), txns_.clock()->Peek(),
                           &pinned);
  EXPECT_GE(pinned.max_len, 20u);

  // Releasing the snapshot advances the horizon to the clock; the next GC
  // pass prunes the chain down to nothing (the live value lives in the
  // B-tree, not the chain) and reports the shrink in the same walk.
  ASSERT_TRUE(txns_.Commit(reader).ok());
  VersionStore::ChainLengthStats after;
  const uint64_t unlinked = versions_.GarbageCollect(
      txns_.OldestActiveTs(), txns_.clock()->Peek(), &after);
  EXPECT_GE(unlinked, 20u);
  EXPECT_EQ(after.max_len, 0u);
  EXPECT_EQ(after.chain_count, 0u);

  // The GC walk's stats equal a standalone collection pass.
  VersionStore::ChainLengthStats standalone =
      versions_.CollectChainLengthStats();
  EXPECT_EQ(after.chain_count, standalone.chain_count);
  EXPECT_EQ(after.max_len, standalone.max_len);
  EXPECT_EQ(after.p99_len, standalone.p99_len);

  EXPECT_EQ(versions_.AdvanceReclamation(txns_.epochs()->MinActivePin()),
            unlinked + 1);  // +1: the first pass retired the pre-pin prefix
}

TEST_F(MvccGcTest, AbortedTransactionsRetireThroughTheEpochPile) {
  const uint32_t kObj = 1;
  Transaction* t = txns_.Begin();
  ASSERT_TRUE(Insert(t, kObj, "a", "v").ok());
  ASSERT_TRUE(Insert(t, kObj, "b", "v").ok());
  ASSERT_TRUE(txns_.Abort(t).ok());

  // The rollback unlinked the pending notes into the retire pile (nothing
  // can resolve them, but destruction still waits for the epoch).
  EpochReclaimer::Stats pile = versions_.reclaimer()->GetStats();
  EXPECT_GE(pile.pending_entries, 2u);
  EXPECT_EQ(versions_.TotalEntries(), 0u);

  EXPECT_EQ(versions_.AdvanceReclamation(txns_.epochs()->MinActivePin()),
            pile.pending_entries);
  EXPECT_EQ(versions_.reclaimer()->GetStats().pending_batches, 0u);
}

// The flip is reserve -> stamp store -> commit hooks -> publish. A snapshot
// drawn after the stamp store but before the publish (here: from inside the
// commit hook) lies below the new commit timestamp and must keep reading the
// pre-image, during the flip and after it.
TEST_F(MvccGcTest, SnapshotDrawnBetweenStampAndPublishReadsThePreImage) {
  const uint32_t kObj = 1;
  Transaction* setup = txns_.Begin();
  ASSERT_TRUE(Insert(setup, kObj, "a", "v1").ok());
  ASSERT_TRUE(txns_.Commit(setup).ok());

  std::vector<uint64_t> mid_flip;
  versions_.SetCommitHook(
      [&](uint32_t object_id, const std::string& key, uint64_t visible_ts) {
        const uint64_t snapshot = txns_.clock()->BeginTs();
        EXPECT_LT(snapshot, visible_ts);
        mid_flip.push_back(snapshot);
        VersionStore::SnapshotView view =
            versions_.GetAsOf(object_id, key, snapshot);
        ASSERT_TRUE(view.use_chain_value);
        EXPECT_EQ(view.chain_value, std::optional<std::string>("v1"));
      });
  Transaction* writer = txns_.Begin();
  ASSERT_TRUE(Update(writer, kObj, "a", "v2").ok());
  ASSERT_TRUE(txns_.Commit(writer).ok());
  versions_.SetCommitHook(nullptr);
  ASSERT_EQ(mid_flip.size(), 1u);

  VersionStore::SnapshotView after = versions_.GetAsOf(kObj, "a", mid_flip[0]);
  ASSERT_TRUE(after.use_chain_value);
  EXPECT_EQ(after.chain_value, std::optional<std::string>("v1"));

  Transaction* reader = txns_.Begin(ReadMode::kSnapshot);
  EXPECT_FALSE(
      versions_.GetAsOf(kObj, "a", reader->begin_ts()).use_chain_value);
  ASSERT_TRUE(txns_.Commit(reader).ok());
}

// --- Database-level: the read-optimized snapshot scan path. ---

Status CommitSale(Database* db, int64_t id, const std::string& region,
                  double amount, int64_t qty = 1) {
  Transaction* txn = db->Begin();
  Status s = db->Insert(txn, "sales", Sale(id, region, amount, qty));
  if (s.ok()) s = db->Commit(txn);
  if (!s.ok() && txn->state() == TxnState::kActive) (void)db->Abort(txn);
  db->Forget(txn);
  return s;
}

class ScanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;  // in-memory; scan_cache on by default
    auto result = Database::Open(options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    db_ = std::move(result).value();
    auto table = db_->CreateTable("sales", SalesSchema(), {0});
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(db_->CreateIndexedView(RegionView(table.value()->id)).ok());
    ASSERT_TRUE(CommitSale(db_.get(), 1, "eu", 10).ok());
    ASSERT_TRUE(CommitSale(db_.get(), 2, "us", 20).ok());
    ASSERT_TRUE(CommitSale(db_.get(), 3, "apac", 30).ok());
  }

  std::vector<Row> SnapshotScan() {
    Transaction* txn = db_->Begin(ReadMode::kSnapshot);
    auto rows = db_->ScanView(txn, "by_region");
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_TRUE(db_->Commit(txn).ok());
    db_->Forget(txn);
    return std::move(rows).value();
  }

  // Finalized aggregate rows are [group, count, SUM(amount)].
  double TotalFor(const std::vector<Row>& rows, const std::string& region) {
    for (const Row& row : rows) {
      if (row[0].AsString() == region) return row[2].AsDouble();
    }
    ADD_FAILURE() << "no row for region " << region;
    return 0;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ScanCacheTest, RepeatSnapshotScansAreServedFromTheCache) {
  const ScanCache::Stats before = db_->scan_cache()->GetStats();

  // First snapshot scan: the cache has never been published, so the scan
  // runs slow and installs the result.
  std::vector<Row> first = SnapshotScan();
  ASSERT_EQ(first.size(), 3u);
  ScanCache::Stats stats = db_->scan_cache()->GetStats();
  EXPECT_EQ(stats.full_scans - before.full_scans, 1u);
  EXPECT_EQ(stats.served_scans - before.served_scans, 0u);

  // Second scan at a later snapshot: every key is served from the cache,
  // no version chain is walked.
  std::vector<Row> second = SnapshotScan();
  EXPECT_EQ(second, first);
  ScanCache::Stats served = db_->scan_cache()->GetStats();
  EXPECT_EQ(served.served_scans - stats.served_scans, 1u);
  EXPECT_EQ(served.hits - stats.hits, 3u);
  EXPECT_EQ(served.misses - stats.misses, 0u);
  EXPECT_EQ(served.full_scans - stats.full_scans, 0u);
}

TEST_F(ScanCacheTest, EscrowCommitInvalidatesExactlyTheDirtyGroup) {
  SnapshotScan();  // publish the cache
  const ScanCache::Stats before = db_->scan_cache()->GetStats();

  // One escrow commit into an existing group: the commit hook must mark
  // exactly one cached key stale — the "eu" aggregate row — and nothing
  // else (the fact table is not a cached object).
  ASSERT_TRUE(CommitSale(db_.get(), 4, "eu", 5).ok());
  ScanCache::Stats after = db_->scan_cache()->GetStats();
  EXPECT_EQ(after.invalidations - before.invalidations, 1u);

  // The next snapshot scan is still served: the two clean groups come from
  // the cache, only the dirty group re-resolves slowly (one miss), and the
  // resolved value is written back.
  std::vector<Row> rows = SnapshotScan();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(TotalFor(rows, "eu"), 15.0);
  EXPECT_EQ(TotalFor(rows, "us"), 20.0);
  ScanCache::Stats resolved = db_->scan_cache()->GetStats();
  EXPECT_EQ(resolved.served_scans - after.served_scans, 1u);
  EXPECT_EQ(resolved.misses - after.misses, 1u);
  EXPECT_EQ(resolved.hits - after.hits, 2u);

  // Write-back held: scanning again serves all three groups from cache.
  std::vector<Row> again = SnapshotScan();
  EXPECT_EQ(again, rows);
  ScanCache::Stats cached = db_->scan_cache()->GetStats();
  EXPECT_EQ(cached.hits - resolved.hits, 3u);
  EXPECT_EQ(cached.misses - resolved.misses, 0u);

  // A commit touching two groups invalidates two keys, no more.
  {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(5, "us", 7)).ok());
    ASSERT_TRUE(db_->Insert(txn, "sales", Sale(6, "apac", 9)).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
    db_->Forget(txn);
  }
  ScanCache::Stats two = db_->scan_cache()->GetStats();
  EXPECT_EQ(two.invalidations - cached.invalidations, 2u);
}

TEST_F(ScanCacheTest, NewGroupsAppearInServedScans) {
  SnapshotScan();  // publish with three groups
  const ScanCache::Stats before = db_->scan_cache()->GetStats();

  // A brand-new group key was never cached; the commit hook leaves a
  // marker entry so the next served scan resolves and caches it.
  ASSERT_TRUE(CommitSale(db_.get(), 7, "latam", 42).ok());
  std::vector<Row> rows = SnapshotScan();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(TotalFor(rows, "latam"), 42.0);
  ScanCache::Stats stats = db_->scan_cache()->GetStats();
  EXPECT_EQ(stats.served_scans - before.served_scans, 1u);
  EXPECT_GE(stats.misses - before.misses, 1u);
}

TEST_F(ScanCacheTest, OldSnapshotsAreNotServedStaleRows) {
  SnapshotScan();  // publish

  // A snapshot that began before an escrow commit must keep seeing the
  // pre-commit aggregate even when the cache has moved past it.
  Transaction* old_reader = db_->Begin(ReadMode::kSnapshot);
  ASSERT_TRUE(CommitSale(db_.get(), 8, "eu", 100).ok());

  auto old_rows = db_->ScanView(old_reader, "by_region");
  ASSERT_TRUE(old_rows.ok());
  EXPECT_EQ(TotalFor(*old_rows, "eu"), 10.0);
  ASSERT_TRUE(db_->Commit(old_reader).ok());
  db_->Forget(old_reader);

  std::vector<Row> fresh = SnapshotScan();
  EXPECT_EQ(TotalFor(fresh, "eu"), 110.0);
}

TEST_F(ScanCacheTest, StraddledInvalidationsDoNotServeStaleRows) {
  SnapshotScan();  // publish

  // Two escrow commits on the same group with a reader pinned between
  // them. The cache must NOT serve the pre-both row (the first commit is
  // visible to the reader) and must not leak the second (invisible) one:
  // the earliest unreconciled change gates serving, not the latest.
  ASSERT_TRUE(CommitSale(db_.get(), 10, "eu", 5).ok());  // V1
  Transaction* mid = db_->Begin(ReadMode::kSnapshot);    // V1 < B < V2
  ASSERT_TRUE(CommitSale(db_.get(), 11, "eu", 7).ok());  // V2

  auto rows = db_->ScanView(mid, "by_region");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(TotalFor(*rows, "eu"), 15.0);  // 10 + 5, not 10 and not 22
  ASSERT_TRUE(db_->Commit(mid).ok());
  db_->Forget(mid);

  // A fresh snapshot sees both commits.
  EXPECT_EQ(TotalFor(SnapshotScan(), "eu"), 22.0);
}

TEST_F(ScanCacheTest, GcPassUpdatesChainGauges) {
  // Bury one aggregate row under escrow history, then let a GC pass prune
  // it; the pass must refresh the chain gauges and the GC-lag gauge that
  // DumpMetrics re-ages.
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(CommitSale(db_.get(), 100 + i, "eu", 1).ok());
  }
  EXPECT_GT(db_->version_store_entries(), 0u);
  db_->GarbageCollectVersions();
  EXPECT_EQ(db_->version_store_entries(), 0u);

  std::string dump = db_->DumpMetrics();
  EXPECT_NE(dump.find("ivdb_storage_gc_lag_micros"), std::string::npos);
  EXPECT_NE(dump.find("ivdb_scan_cache_hits"), std::string::npos);
  EXPECT_NE(dump.find("ivdb_storage_version_chain_max"), std::string::npos);
}

}  // namespace
}  // namespace ivdb
