#include "storage/version_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "catalog/schema.h"
#include "common/invariant.h"
#include "storage/btree.h"

namespace ivdb {
namespace {

constexpr uint32_t kObj = 9;

TEST(VersionStore, EmptyMeansPhysicalVisible) {
  VersionStore vs;
  auto view = vs.GetAsOf(kObj, "k", 100);
  EXPECT_FALSE(view.use_chain_value);
  EXPECT_TRUE(view.subtract.empty());
}

TEST(VersionStore, PendingWriteExposesOldValueToEveryone) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::string("old"), /*txn=*/1);
  // Any snapshot during the write sees the old committed value.
  for (uint64_t ts : {1ull, 50ull, 1000ull}) {
    auto view = vs.GetAsOf(kObj, "k", ts);
    ASSERT_TRUE(view.use_chain_value);
    ASSERT_TRUE(view.chain_value.has_value());
    EXPECT_EQ(*view.chain_value, "old");
  }
}

TEST(VersionStore, CommitMakesNewValueVisibleToLaterSnapshots) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::string("old"), 1);
  vs.Commit(1, /*commit_ts=*/100);

  // Snapshot before the commit still sees the superseded value.
  auto before = vs.GetAsOf(kObj, "k", 99);
  ASSERT_TRUE(before.use_chain_value);
  EXPECT_EQ(*before.chain_value, "old");

  // Snapshot at/after the commit reads the physical (new) value.
  auto after = vs.GetAsOf(kObj, "k", 100);
  EXPECT_FALSE(after.use_chain_value);
  EXPECT_TRUE(after.subtract.empty());
}

TEST(VersionStore, PendingInsertShowsAbsence) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::nullopt, 1);
  auto view = vs.GetAsOf(kObj, "k", 10);
  ASSERT_TRUE(view.use_chain_value);
  EXPECT_FALSE(view.chain_value.has_value());  // did not exist
  vs.Commit(1, 100);
  auto before = vs.GetAsOf(kObj, "k", 50);
  ASSERT_TRUE(before.use_chain_value);
  EXPECT_FALSE(before.chain_value.has_value());
  auto after = vs.GetAsOf(kObj, "k", 150);
  EXPECT_FALSE(after.use_chain_value);
}

TEST(VersionStore, AbortDropsPending) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::string("old"), 1);
  vs.Abort(1);
  auto view = vs.GetAsOf(kObj, "k", 10);
  EXPECT_FALSE(view.use_chain_value);
  EXPECT_TRUE(view.subtract.empty());
  EXPECT_EQ(vs.TotalEntries(), 0u);
}

TEST(VersionStore, MultiVersionChainPicksOldestCovering) {
  VersionStore vs;
  // v1 superseded at 10, v2 superseded at 20.
  vs.NotePendingWrite(kObj, "k", std::string("v1"), 1);
  vs.Commit(1, 10);
  vs.NotePendingWrite(kObj, "k", std::string("v2"), 2);
  vs.Commit(2, 20);

  auto at5 = vs.GetAsOf(kObj, "k", 5);
  ASSERT_TRUE(at5.use_chain_value);
  EXPECT_EQ(*at5.chain_value, "v1");

  auto at15 = vs.GetAsOf(kObj, "k", 15);
  ASSERT_TRUE(at15.use_chain_value);
  EXPECT_EQ(*at15.chain_value, "v2");

  auto at25 = vs.GetAsOf(kObj, "k", 25);
  EXPECT_FALSE(at25.use_chain_value);
}

TEST(VersionStore, UncommittedDeltasAreSubtracted) {
  VersionStore vs;
  std::vector<ColumnDelta> d1 = {{1, Value::Int64(5)}};
  std::vector<ColumnDelta> d2 = {{1, Value::Int64(3)}};
  vs.NotePendingIncrement(kObj, "k", d1, 1);
  vs.NotePendingIncrement(kObj, "k", d2, 2);
  auto view = vs.GetAsOf(kObj, "k", 10);
  EXPECT_FALSE(view.use_chain_value);
  ASSERT_EQ(view.subtract.size(), 2u);
}

TEST(VersionStore, CommittedDeltaVisibleOnlyAfterCommitTs) {
  VersionStore vs;
  vs.NotePendingIncrement(kObj, "k", {{1, Value::Int64(5)}}, 1);
  vs.Commit(1, 100);
  // Reader at 50 must subtract the delta committed at 100.
  auto at50 = vs.GetAsOf(kObj, "k", 50);
  ASSERT_EQ(at50.subtract.size(), 1u);
  EXPECT_EQ(at50.subtract[0][0].delta.AsInt64(), 5);
  // Reader at 100+ sees it.
  auto at100 = vs.GetAsOf(kObj, "k", 100);
  EXPECT_TRUE(at100.subtract.empty());
}

TEST(VersionStore, SameTxnDeltasCoalesce) {
  VersionStore vs;
  vs.NotePendingIncrement(kObj, "k", {{1, Value::Int64(5)}}, 1);
  vs.NotePendingIncrement(kObj, "k", {{1, Value::Int64(2)}}, 1);
  vs.NotePendingIncrement(kObj, "k", {{2, Value::Double(1.5)}}, 1);
  auto view = vs.GetAsOf(kObj, "k", 10);
  ASSERT_EQ(view.subtract.size(), 1u);  // one entry for txn 1
  ASSERT_EQ(view.subtract[0].size(), 2u);
  EXPECT_EQ(view.subtract[0][0].delta.AsInt64(), 7);
  EXPECT_EQ(view.subtract[0][1].delta.AsDouble(), 1.5);
}

TEST(VersionStore, AbortDropsDeltas) {
  VersionStore vs;
  vs.NotePendingIncrement(kObj, "k", {{1, Value::Int64(5)}}, 1);
  vs.Abort(1);
  auto view = vs.GetAsOf(kObj, "k", 10);
  EXPECT_TRUE(view.subtract.empty());
}

TEST(VersionStore, PendingWriteTakesPriorityOverDeltas) {
  // A ghost insert (pending write) plus earlier committed deltas: the chain
  // value answers for snapshots that predate everything.
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::nullopt, 1);  // creating the row
  auto view = vs.GetAsOf(kObj, "k", 5);
  ASSERT_TRUE(view.use_chain_value);
  EXPECT_FALSE(view.chain_value.has_value());
}

TEST(VersionStore, GhostLifecycleVisibility) {
  VersionStore vs;
  // System txn 1 creates ghost at ts 10; txn 2 increments, commits at 20.
  vs.NotePendingWrite(kObj, "g", std::nullopt, 1);
  vs.Commit(1, 10);
  vs.NotePendingIncrement(kObj, "g", {{1, Value::Int64(1)}}, 2);
  vs.Commit(2, 20);

  auto at5 = vs.GetAsOf(kObj, "g", 5);
  ASSERT_TRUE(at5.use_chain_value);
  EXPECT_FALSE(at5.chain_value.has_value());  // before creation: absent

  auto at15 = vs.GetAsOf(kObj, "g", 15);
  EXPECT_FALSE(at15.use_chain_value);
  ASSERT_EQ(at15.subtract.size(), 1u);  // strip the ts-20 increment => ghost

  auto at25 = vs.GetAsOf(kObj, "g", 25);
  EXPECT_FALSE(at25.use_chain_value);
  EXPECT_TRUE(at25.subtract.empty());  // fully visible
}

TEST(VersionStore, GarbageCollectReclaimsInvisible) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::string("v1"), 1);
  vs.Commit(1, 10);
  vs.NotePendingIncrement(kObj, "k", {{1, Value::Int64(2)}}, 2);
  vs.Commit(2, 20);
  EXPECT_EQ(vs.TotalEntries(), 2u);

  EXPECT_EQ(vs.GarbageCollect(5), 0u);   // both still visible to ts<10 readers
  EXPECT_EQ(vs.GarbageCollect(15), 1u);  // value version dead
  EXPECT_EQ(vs.GarbageCollect(25), 1u);  // delta dead
  EXPECT_EQ(vs.TotalEntries(), 0u);
}

TEST(VersionStore, GcKeepsPendingEntries) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::string("v"), 1);
  vs.NotePendingIncrement(kObj, "k2", {{1, Value::Int64(1)}}, 2);
  EXPECT_EQ(vs.GarbageCollect(1000), 0u);
  EXPECT_EQ(vs.TotalEntries(), 2u);
}

TEST(VersionStore, ListChainKeys) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "a", std::string("v"), 1);
  vs.NotePendingWrite(kObj, "b", std::string("v"), 1);
  vs.NotePendingWrite(kObj + 1, "c", std::string("v"), 1);
  auto keys = vs.ListChainKeys(kObj);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
  EXPECT_EQ(vs.ListChainKeys(kObj + 2).size(), 0u);
}

TEST(VersionStore, DuplicatePendingWriteIgnored) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::string("first"), 1);
  vs.NotePendingWrite(kObj, "k", std::string("second"), 1);
  auto view = vs.GetAsOf(kObj, "k", 10);
  ASSERT_TRUE(view.use_chain_value);
  EXPECT_EQ(*view.chain_value, "first");  // pre-transaction value wins
}

bool SameView(const VersionStore::SnapshotView& a,
              const VersionStore::SnapshotView& b) {
  return a.use_chain_value == b.use_chain_value &&
         a.chain_value == b.chain_value && a.subtract == b.subtract;
}

// A history mixing value writes and escrow deltas on one key, committed at
// 10, 20, ..., with one transaction still pending at the end.
void BuildMixedHistory(VersionStore* vs) {
  vs->NotePendingWrite(kObj, "k", std::nullopt, 1);  // ghost creation
  vs->Commit(1, 10);
  vs->NotePendingIncrement(kObj, "k", {{1, Value::Int64(1)}}, 2);
  vs->NotePendingIncrement(kObj, "k", {{1, Value::Int64(2)}}, 3);
  vs->Commit(3, 20);
  vs->Commit(2, 30);
  vs->NotePendingWrite(kObj, "k", std::string("row@30"), 4);
  vs->Commit(4, 40);
  vs->NotePendingIncrement(kObj, "k", {{1, Value::Int64(4)}}, 5);
  vs->Commit(5, 50);
  vs->NotePendingIncrement(kObj, "k", {{1, Value::Int64(8)}}, 6);  // pending
}

// Copying stamps in (GC with a horizon that reclaims nothing, or the next
// writer under the stripe) must not change what any snapshot reads.
TEST(VersionStore, CopyingStampsInPreservesEverySnapshotView) {
  VersionStore vs;
  BuildMixedHistory(&vs);
  std::vector<VersionStore::SnapshotView> before;
  for (uint64_t ts = 0; ts <= 60; ts++) {
    before.push_back(vs.GetAsOf(kObj, "k", ts));
  }
  EXPECT_EQ(vs.GarbageCollect(/*oldest_active_ts=*/0), 0u);
  for (uint64_t ts = 0; ts <= 60; ts++) {
    EXPECT_TRUE(SameView(vs.GetAsOf(kObj, "k", ts), before[ts])) << ts;
  }

  // Same through the writer path: a fresh store, where the next writer's
  // note copies the stamps in instead of GC.
  VersionStore vs2;
  BuildMixedHistory(&vs2);
  vs2.NotePendingIncrement(kObj, "k", {{1, Value::Int64(16)}}, 7);
  for (uint64_t ts = 0; ts <= 60; ts++) {
    VersionStore::SnapshotView view = vs2.GetAsOf(kObj, "k", ts);
    // Txn 7's pending delta is the only difference: one more subtraction
    // off the physical value, none off an older base image.
    if (!before[ts].use_chain_value) {
      ASSERT_FALSE(view.subtract.empty()) << ts;
      EXPECT_EQ(view.subtract.back()[0].delta.AsInt64(), 16) << ts;
      view.subtract.pop_back();
    }
    EXPECT_TRUE(SameView(view, before[ts])) << ts;
  }
}

TEST(VersionStore, AbortedEntriesNeverResolveAsCommitted) {
  VersionStore vs;
  vs.NotePendingWrite(kObj, "k", std::string("v0"), 1);
  vs.NotePendingIncrement(kObj, "g", {{1, Value::Int64(5)}}, 1);
  vs.NotePendingIncrement(kObj, "g", {{1, Value::Int64(3)}}, 2);
  vs.Commit(2, 20);
  // While pending, no snapshot, however late, sees txn 1's effects.
  for (uint64_t ts : {uint64_t{1}, uint64_t{25}, UINT64_MAX}) {
    VersionStore::SnapshotView k = vs.GetAsOf(kObj, "k", ts);
    ASSERT_TRUE(k.use_chain_value);
    EXPECT_EQ(*k.chain_value, "v0");
    VersionStore::SnapshotView g = vs.GetAsOf(kObj, "g", ts);
    ASSERT_FALSE(g.subtract.empty());
    EXPECT_EQ(g.subtract[0][0].delta.AsInt64(), 5);
  }
  EXPECT_EQ(vs.PendingDeltas(kObj, "g").size(), 1u);

  vs.Abort(1);
  // A stray commit of the aborted transaction must not resurrect anything.
  vs.Commit(1, 30);
  for (uint64_t ts : {uint64_t{1}, uint64_t{25}, uint64_t{35}}) {
    EXPECT_FALSE(vs.GetAsOf(kObj, "k", ts).use_chain_value) << ts;
    VersionStore::SnapshotView g = vs.GetAsOf(kObj, "g", ts);
    for (const auto& deltas : g.subtract) {
      EXPECT_EQ(deltas[0].delta.AsInt64(), 3) << ts;  // only txn 2's
    }
  }
  EXPECT_TRUE(vs.PendingDeltas(kObj, "g").empty());
  EXPECT_EQ(vs.TotalEntries(), 1u);  // txn 2's committed delta
}

TEST(VersionStore, EscrowAdmissionCountsCommittedStampsAsCommitted) {
  VersionStore vs;
  BTree tree;
  ASSERT_TRUE(tree.Insert("g", EncodeRow({Value::Int64(7), Value::Int64(0)})));
  const std::vector<VersionStore::ColumnBound> bounds = {{1, 0}};
  ASSERT_TRUE(vs.ApplyIncrement(kObj, "g", {{1, Value::Int64(10)}}, 1,
                                /*create_pending=*/true, &tree, &bounds)
                  .ok());
  // Flipped, but no writer or GC has touched the chain since: the delta is
  // still resolved through its stamp.
  vs.Commit(1, 5);
  EXPECT_TRUE(vs.PendingDeltas(kObj, "g").empty());
  // Taking the committed 10 back out is safe whatever else happens; had
  // the delta still counted as pending, the worst case (txn 1 aborts)
  // would read -10 and admission would answer Busy.
  Status s = vs.ApplyIncrement(kObj, "g", {{1, Value::Int64(-10)}}, 2,
                               /*create_pending=*/true, &tree, &bounds);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(VersionStore, ValueVersionsMustBeAddedInCommitOrder) {
  if (!ChecksEnabled()) GTEST_SKIP() << "chain invariants compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two concurrent pending writers on one key cannot happen under X locks;
  // the chain check rejects the second rather than mis-order the history.
  EXPECT_DEATH(
      {
        VersionStore vs;
        vs.NotePendingWrite(kObj, "k", std::string("a"), 1);
        vs.NotePendingWrite(kObj, "k", std::string("b"), 2);
      },
      "ordered after a pending one");
}

// Transactions k and k + kPendingShards share one pending shard. One is
// committed from another thread while the other keeps writing; neither
// may lose or leak the other's entries.
TEST(VersionStore, SharedPendingShardFlipWhileOtherWrites) {
  VersionStore vs;
  const TxnId flipped = 5;
  const TxnId writer = flipped + VersionStore::kPendingShards;
  constexpr int kKeys = 200;
  for (int i = 0; i < kKeys; i++) {
    vs.NotePendingWrite(kObj, "f" + std::to_string(i), std::string("old"),
                        flipped);
  }
  vs.NotePendingIncrement(kObj, "g", {{1, Value::Int64(4)}}, flipped);

  std::atomic<bool> flipped_done{false};
  std::thread writer_thread([&] {
    for (int i = 0; i < kKeys; i++) {
      vs.NotePendingWrite(kObj, "w" + std::to_string(i), std::string("old"),
                          writer);
      vs.NotePendingIncrement(kObj, "g", {{1, Value::Int64(1)}}, writer);
    }
    // Keep writing until the flip has certainly happened.
    int extra = 0;
    while (!flipped_done.load()) {
      vs.NotePendingWrite(kObj, "x" + std::to_string(extra++),
                          std::string("old"), writer);
    }
  });
  std::thread flipper([&] {
    vs.Commit(flipped, 100);
    flipped_done = true;
  });
  flipper.join();
  writer_thread.join();

  // The flipped transaction's writes are visible from 100 on.
  for (int i = 0; i < kKeys; i++) {
    const std::string key = "f" + std::to_string(i);
    EXPECT_TRUE(vs.GetAsOf(kObj, key, 99).use_chain_value) << key;
    EXPECT_FALSE(vs.GetAsOf(kObj, key, 100).use_chain_value) << key;
  }
  // The writer's are still pending at any snapshot.
  for (int i = 0; i < kKeys; i++) {
    const std::string key = "w" + std::to_string(i);
    VersionStore::SnapshotView view = vs.GetAsOf(kObj, key, UINT64_MAX);
    ASSERT_TRUE(view.use_chain_value) << key;
    EXPECT_EQ(*view.chain_value, "old");
  }
  std::vector<std::vector<ColumnDelta>> pending = vs.PendingDeltas(kObj, "g");
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0][0].delta.AsInt64(), kKeys);
  EXPECT_TRUE(vs.GetAsOf(kObj, "g", 100).subtract.size() == 1u);

  // The writer's record survived the flip intact: committing it flips
  // every key it wrote, including those written during the flip.
  vs.Commit(writer, 200);
  EXPECT_TRUE(vs.PendingDeltas(kObj, "g").empty());
  for (int i = 0; i < kKeys; i++) {
    const std::string key = "w" + std::to_string(i);
    EXPECT_TRUE(vs.GetAsOf(kObj, key, 199).use_chain_value) << key;
    EXPECT_FALSE(vs.GetAsOf(kObj, key, 200).use_chain_value) << key;
  }
  EXPECT_FALSE(vs.GetAsOf(kObj, "x0", 200).use_chain_value);
  EXPECT_TRUE(vs.GetAsOf(kObj, "g", 200).subtract.empty());
  // Aborting either id now finds nothing left to undo.
  vs.Abort(flipped);
  vs.Abort(writer);
  EXPECT_FALSE(vs.GetAsOf(kObj, "w0", 200).use_chain_value);
}

}  // namespace
}  // namespace ivdb
