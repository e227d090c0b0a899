#include "lock/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/invariant.h"
#include "common/mutex.h"

namespace ivdb {
namespace {

using namespace std::chrono_literals;

ResourceId Table() { return ResourceId::Object(1); }
ResourceId RowKey(const std::string& k = "row") {
  return ResourceId::Key(1, k);
}

TEST(ResourceIdTest, OrderingAndLevels) {
  EXPECT_TRUE(ResourceId::Object(1).IsObjectLevel());
  EXPECT_FALSE(RowKey().IsObjectLevel());
  EXPECT_LT(ResourceId::Object(1), ResourceId::Key(1, "a"));
  EXPECT_LT(ResourceId::Key(1, "a"), ResourceId::Key(1, "b"));
  EXPECT_LT(ResourceId::Key(1, "z"), ResourceId::Key(2, "a"));
  EXPECT_TRUE(ResourceId::Key(1, "a") == ResourceId::Key(1, "a"));
}

TEST(LockManager, GrantAndRelease) {
  LockManager lm;
  EXPECT_TRUE(lm.Lock(1, RowKey(), LockMode::kX).ok());
  EXPECT_EQ(lm.HeldMode(1, RowKey()), LockMode::kX);
  EXPECT_EQ(lm.NumHolders(RowKey()), 1);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.HeldMode(1, RowKey()), LockMode::kNL);
  EXPECT_EQ(lm.NumHolders(RowKey()), 0);
}

TEST(LockManager, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Lock(1, RowKey(), LockMode::kS).ok());
  EXPECT_TRUE(lm.Lock(2, RowKey(), LockMode::kS).ok());
  EXPECT_TRUE(lm.Lock(3, RowKey(), LockMode::kS).ok());
  EXPECT_EQ(lm.NumHolders(RowKey()), 3);
}

TEST(LockManager, EscrowLocksCoexist) {
  LockManager lm;
  for (TxnId t = 1; t <= 8; t++) {
    EXPECT_TRUE(lm.Lock(t, RowKey(), LockMode::kE).ok()) << t;
  }
  EXPECT_EQ(lm.NumHolders(RowKey()), 8);
}

TEST(LockManager, ReentrantRequestIsNoop) {
  LockManager lm;
  EXPECT_TRUE(lm.Lock(1, RowKey(), LockMode::kX).ok());
  EXPECT_TRUE(lm.Lock(1, RowKey(), LockMode::kX).ok());
  EXPECT_TRUE(lm.Lock(1, RowKey(), LockMode::kS).ok());  // covered by X
  EXPECT_EQ(lm.NumHolders(RowKey()), 1);
}

TEST(LockManager, TryLockBusy) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RowKey(), LockMode::kE).ok());
  EXPECT_TRUE(lm.TryLock(2, RowKey(), LockMode::kX).IsBusy());
  EXPECT_TRUE(lm.TryLock(2, RowKey(), LockMode::kS).IsBusy());
  EXPECT_TRUE(lm.TryLock(2, RowKey(), LockMode::kE).ok());
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_TRUE(lm.TryLock(3, RowKey(), LockMode::kX).ok());
}

TEST(LockManager, SBlocksBehindEUntilRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RowKey(), LockMode::kE).ok());
  std::atomic<bool> got_s{false};
  std::thread reader([&] {
    ASSERT_TRUE(lm.Lock(2, RowKey(), LockMode::kS).ok());
    got_s = true;
  });
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(got_s.load());
  lm.ReleaseAll(1);
  reader.join();
  EXPECT_TRUE(got_s.load());
}

TEST(LockManager, EBlocksBehindS) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RowKey(), LockMode::kS).ok());
  std::atomic<bool> got_e{false};
  std::thread writer([&] {
    ASSERT_TRUE(lm.Lock(2, RowKey(), LockMode::kE).ok());
    got_e = true;
  });
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(got_e.load());
  lm.ReleaseAll(1);
  writer.join();
  EXPECT_TRUE(got_e.load());
}

TEST(LockManager, XSerializesWaiters) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RowKey(), LockMode::kX).ok());
  std::atomic<int> acquired{0};
  std::vector<std::thread> threads;
  for (TxnId t = 2; t <= 4; t++) {
    threads.emplace_back([&, t] {
      ASSERT_TRUE(lm.Lock(t, RowKey(), LockMode::kX).ok());
      acquired++;
      lm.ReleaseAll(t);
    });
  }
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(acquired.load(), 0);
  lm.ReleaseAll(1);
  for (auto& t : threads) t.join();
  EXPECT_EQ(acquired.load(), 3);
}

TEST(LockManager, UpgradeSToXWhenSoleHolder) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RowKey(), LockMode::kS).ok());
  ASSERT_TRUE(lm.Lock(1, RowKey(), LockMode::kX).ok());
  EXPECT_EQ(lm.HeldMode(1, RowKey()), LockMode::kX);
}

TEST(LockManager, UpgradeWaitsForOtherReaders) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RowKey(), LockMode::kS).ok());
  ASSERT_TRUE(lm.Lock(2, RowKey(), LockMode::kS).ok());
  std::atomic<bool> upgraded{false};
  std::thread upgrader([&] {
    ASSERT_TRUE(lm.Lock(1, RowKey(), LockMode::kX).ok());
    upgraded = true;
  });
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(upgraded.load());
  lm.ReleaseAll(2);
  upgrader.join();
  EXPECT_TRUE(upgraded.load());
  EXPECT_EQ(lm.HeldMode(1, RowKey()), LockMode::kX);
}

TEST(LockManager, ConversionDeadlockDetected) {
  // Two S holders both upgrading to X: one must get Deadlock.
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RowKey(), LockMode::kS).ok());
  ASSERT_TRUE(lm.Lock(2, RowKey(), LockMode::kS).ok());
  std::atomic<int> deadlocks{0};
  std::atomic<int> successes{0};
  auto upgrade = [&](TxnId t) {
    Status s = lm.Lock(t, RowKey(), LockMode::kX);
    if (s.IsDeadlock()) {
      deadlocks++;
      lm.ReleaseAll(t);  // victim rolls back
    } else if (s.ok()) {
      successes++;
      lm.ReleaseAll(t);
    }
  };
  std::thread t1(upgrade, 1);
  std::this_thread::sleep_for(20ms);
  std::thread t2(upgrade, 2);
  t1.join();
  t2.join();
  EXPECT_EQ(deadlocks.load(), 1);
  EXPECT_EQ(successes.load(), 1);
}

TEST(LockManager, TwoResourceDeadlockDetected) {
  LockManager lm;
  ResourceId a = ResourceId::Key(1, "a");
  ResourceId b = ResourceId::Key(1, "b");
  ASSERT_TRUE(lm.Lock(1, a, LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(2, b, LockMode::kX).ok());

  std::atomic<int> deadlocks{0};
  std::thread t1([&] {
    Status s = lm.Lock(1, b, LockMode::kX);
    if (s.IsDeadlock()) {
      deadlocks++;
      lm.ReleaseAll(1);
    } else {
      ASSERT_TRUE(s.ok());
      lm.ReleaseAll(1);
    }
  });
  std::this_thread::sleep_for(20ms);
  std::thread t2([&] {
    Status s = lm.Lock(2, a, LockMode::kX);
    if (s.IsDeadlock()) {
      deadlocks++;
      lm.ReleaseAll(2);
    } else {
      ASSERT_TRUE(s.ok());
      lm.ReleaseAll(2);
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(deadlocks.load(), 1);
  EXPECT_GE(lm.metrics().deadlocks->Value(), 1u);
}

TEST(LockManager, ThreeWayDeadlockDetected) {
  LockManager lm;
  ResourceId r[3] = {ResourceId::Key(1, "a"), ResourceId::Key(1, "b"),
                     ResourceId::Key(1, "c")};
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(lm.Lock(i + 1, r[i], LockMode::kX).ok());
  }
  std::atomic<int> deadlocks{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; i++) {
    threads.emplace_back([&, i] {
      // Stagger so the cycle closes on the last requester.
      std::this_thread::sleep_for(std::chrono::milliseconds(10 * i));
      Status s = lm.Lock(i + 1, r[(i + 1) % 3], LockMode::kX);
      if (s.IsDeadlock()) deadlocks++;
      lm.ReleaseAll(i + 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(deadlocks.load(), 1);
}

TEST(LockManager, TimeoutWithoutDetection) {
  LockManager::Options options;
  options.detect_deadlocks = false;
  options.wait_timeout = 50ms;
  LockManager lm(options);
  ASSERT_TRUE(lm.Lock(1, RowKey(), LockMode::kX).ok());
  Status s = lm.Lock(2, RowKey(), LockMode::kX);
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_GE(lm.metrics().timeouts->Value(), 1u);
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.Lock(2, RowKey(), LockMode::kX).ok());
}

TEST(LockManager, ObjectAndKeyLocksAreIndependentResources) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, Table(), LockMode::kIX).ok());
  ASSERT_TRUE(lm.Lock(2, Table(), LockMode::kIX).ok());
  ASSERT_TRUE(lm.Lock(1, RowKey("a"), LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(2, RowKey("b"), LockMode::kX).ok());
  // Object-level S conflicts with both IX holders.
  EXPECT_TRUE(lm.TryLock(3, Table(), LockMode::kS).IsBusy());
}

TEST(LockManager, UnlockSingleResource) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RowKey("a"), LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(1, RowKey("b"), LockMode::kX).ok());
  lm.Unlock(1, RowKey("a"));
  EXPECT_EQ(lm.HeldMode(1, RowKey("a")), LockMode::kNL);
  EXPECT_EQ(lm.HeldMode(1, RowKey("b")), LockMode::kX);
  EXPECT_TRUE(lm.TryLock(2, RowKey("a"), LockMode::kX).ok());
}

TEST(LockManager, FIFOPreventsStarvationOvertaking) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RowKey(), LockMode::kS).ok());
  // Writer queues first.
  std::atomic<bool> writer_granted{false};
  std::thread writer([&] {
    ASSERT_TRUE(lm.Lock(2, RowKey(), LockMode::kX).ok());
    writer_granted = true;
    lm.ReleaseAll(2);
  });
  std::this_thread::sleep_for(20ms);
  // A later S must not overtake the queued X even though it is compatible
  // with the current holder.
  std::atomic<bool> reader_granted{false};
  std::thread reader([&] {
    ASSERT_TRUE(lm.Lock(3, RowKey(), LockMode::kS).ok());
    reader_granted = true;
    lm.ReleaseAll(3);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(writer_granted.load());
  EXPECT_FALSE(reader_granted.load());
  lm.ReleaseAll(1);
  writer.join();
  reader.join();
  EXPECT_TRUE(writer_granted.load());
  EXPECT_TRUE(reader_granted.load());
}

TEST(LockManager, EscrowToXConversionRequiresSoleHolder) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RowKey(), LockMode::kE).ok());
  ASSERT_TRUE(lm.Lock(2, RowKey(), LockMode::kE).ok());
  // Ghost-cleaner pattern: instant X probe fails while escrow is shared.
  EXPECT_TRUE(lm.TryLock(3, RowKey(), LockMode::kX).IsBusy());
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.TryLock(3, RowKey(), LockMode::kX).IsBusy());
  lm.ReleaseAll(2);
  EXPECT_TRUE(lm.TryLock(3, RowKey(), LockMode::kX).ok());
}

TEST(LockManager, StatsCountWaits) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RowKey(), LockMode::kX).ok());
  std::thread waiter([&] { ASSERT_TRUE(lm.Lock(2, RowKey(), LockMode::kS).ok()); });
  std::this_thread::sleep_for(20ms);
  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_GE(lm.metrics().waits->Value(), 1u);
  EXPECT_GE(lm.metrics().acquisitions->Value(), 2u);
  EXPECT_GT(lm.metrics().wait_micros->Value(), 0u);
}

TEST(LockManager, StressManyThreadsManyKeys) {
  LockManager::Options options;
  options.wait_timeout = 2000ms;
  LockManager lm(options);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      uint64_t seed = t * 7919 + 13;
      for (int i = 0; i < kOpsPerThread; i++) {
        TxnId txn = static_cast<TxnId>(t * kOpsPerThread + i + 1);
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        std::string key = "k" + std::to_string(seed % 5);
        LockMode mode = (seed >> 8) % 3 == 0 ? LockMode::kX
                        : (seed >> 8) % 3 == 1 ? LockMode::kS
                                               : LockMode::kE;
        Status s = lm.Lock(txn, ResourceId::Key(1, key), mode);
        if (s.ok()) {
          // Second key in deterministic order to avoid deadlock storms.
          std::string key2 = "k" + std::to_string(5 + seed % 3);
          s = lm.Lock(txn, ResourceId::Key(1, key2), LockMode::kE);
        }
        lm.ReleaseAll(txn);
        completed++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(completed.load(), kThreads * kOpsPerThread);
  // No lingering holders.
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(lm.NumHolders(ResourceId::Key(1, "k" + std::to_string(i))), 0);
  }
}

// Transactions k and k + kTxnShards share one record shard; each one's
// grants, conversions and releases must leave the other's record alone.
TEST(LockManager, ShardCollidingTransactionsAreIndependent) {
  LockManager lm;
  const TxnId a = 3;
  const TxnId b = a + LockManager::kTxnShards;
  ASSERT_TRUE(lm.Lock(a, Table(), LockMode::kIX).ok());
  ASSERT_TRUE(lm.Lock(b, Table(), LockMode::kIX).ok());
  ASSERT_TRUE(lm.Lock(a, RowKey("a"), LockMode::kS).ok());
  ASSERT_TRUE(lm.Lock(b, RowKey("b"), LockMode::kS).ok());
  ASSERT_TRUE(lm.Lock(a, RowKey("hot"), LockMode::kE).ok());
  ASSERT_TRUE(lm.Lock(b, RowKey("hot"), LockMode::kE).ok());

  // Conversions: each upgrades its own key; the other's mode is untouched.
  ASSERT_TRUE(lm.Lock(a, RowKey("a"), LockMode::kX).ok());
  EXPECT_EQ(lm.HeldMode(a, RowKey("a")), LockMode::kX);
  EXPECT_EQ(lm.HeldMode(b, RowKey("b")), LockMode::kS);
  EXPECT_EQ(lm.HeldMode(b, RowKey("a")), LockMode::kNL);
  ASSERT_TRUE(lm.Lock(b, RowKey("b"), LockMode::kX).ok());
  EXPECT_EQ(lm.HeldMode(b, RowKey("b")), LockMode::kX);
  EXPECT_EQ(lm.HeldMode(a, RowKey("b")), LockMode::kNL);
  EXPECT_EQ(lm.NumHolders(RowKey("hot")), 2);

  // The records really are separate: b cannot take a's X key.
  EXPECT_TRUE(lm.TryLock(b, RowKey("a"), LockMode::kS).IsBusy());

  lm.ReleaseAll(a);
  EXPECT_EQ(lm.HeldMode(a, Table()), LockMode::kNL);
  EXPECT_EQ(lm.HeldMode(a, RowKey("a")), LockMode::kNL);
  EXPECT_EQ(lm.HeldMode(b, Table()), LockMode::kIX);
  EXPECT_EQ(lm.HeldMode(b, RowKey("b")), LockMode::kX);
  EXPECT_EQ(lm.HeldMode(b, RowKey("hot")), LockMode::kE);
  EXPECT_EQ(lm.NumHolders(RowKey("a")), 0);
  EXPECT_EQ(lm.NumHolders(RowKey("hot")), 1);
  EXPECT_TRUE(lm.TryLock(b, RowKey("a"), LockMode::kS).ok());

  lm.ReleaseAll(b);
  for (const ResourceId& res :
       {Table(), RowKey("a"), RowKey("b"), RowKey("hot")}) {
    EXPECT_EQ(lm.NumHolders(res), 0) << res.ToString();
    EXPECT_EQ(lm.HeldMode(b, res), LockMode::kNL) << res.ToString();
  }
}

// Once key locks escalate to an object lock, later key requests the object
// lock implies are answered from the transaction's record: counted as
// covered, with no key-level request in the lock table.
TEST(LockManager, EscalatedObjectLockCoversKeysFromRecord) {
  LockManager::Options options;
  options.escalation_threshold = 2;
  LockManager lm(options);
  ASSERT_TRUE(lm.Lock(1, Table(), LockMode::kIX).ok());
  ASSERT_TRUE(lm.Lock(1, RowKey("a"), LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(1, RowKey("b"), LockMode::kX).ok());
  ASSERT_EQ(lm.metrics().escalations->Value(), 1u);
  EXPECT_EQ(lm.HeldMode(1, Table()), LockMode::kX);
  EXPECT_EQ(lm.HeldMode(1, RowKey("a")), LockMode::kNL);
  EXPECT_EQ(lm.NumHolders(RowKey("a")), 0);

  const uint64_t covered = lm.metrics().covered_by_object_lock->Value();
  ASSERT_TRUE(lm.Lock(1, RowKey("c"), LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(1, RowKey("a"), LockMode::kS).ok());
  EXPECT_EQ(lm.metrics().covered_by_object_lock->Value(), covered + 2);
  EXPECT_EQ(lm.NumHolders(RowKey("c")), 0);
  EXPECT_EQ(lm.NumHolders(RowKey("a")), 0);
  EXPECT_EQ(lm.HeldMode(1, RowKey("c")), LockMode::kNL);

  // Another transaction's key request still sees the object lock.
  EXPECT_TRUE(lm.TryLock(2, Table(), LockMode::kIS).IsBusy());
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.NumHolders(Table()), 0);
  EXPECT_TRUE(lm.TryLock(2, Table(), LockMode::kIS).ok());
}

TEST(LockManager, HeldModeAfterUnlockAndReleaseAll) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, Table(), LockMode::kIX).ok());
  ASSERT_TRUE(lm.Lock(1, RowKey("a"), LockMode::kS).ok());
  ASSERT_TRUE(lm.Lock(1, RowKey("a"), LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(1, RowKey("b"), LockMode::kE).ok());
  EXPECT_EQ(lm.HeldMode(1, RowKey("a")), LockMode::kX);

  lm.Unlock(1, RowKey("a"));
  EXPECT_EQ(lm.HeldMode(1, RowKey("a")), LockMode::kNL);
  EXPECT_EQ(lm.NumHolders(RowKey("a")), 0);
  EXPECT_EQ(lm.HeldMode(1, RowKey("b")), LockMode::kE);
  EXPECT_EQ(lm.HeldMode(1, Table()), LockMode::kIX);
  // Re-acquiring after Unlock creates a fresh request.
  ASSERT_TRUE(lm.Lock(1, RowKey("a"), LockMode::kS).ok());
  EXPECT_EQ(lm.HeldMode(1, RowKey("a")), LockMode::kS);
  EXPECT_EQ(lm.NumHolders(RowKey("a")), 1);

  lm.ReleaseAll(1);
  for (const ResourceId& res : {Table(), RowKey("a"), RowKey("b")}) {
    EXPECT_EQ(lm.HeldMode(1, res), LockMode::kNL) << res.ToString();
    EXPECT_EQ(lm.NumHolders(res), 0) << res.ToString();
  }
  // A released transaction id starts from an empty record.
  ASSERT_TRUE(lm.Lock(1, RowKey("b"), LockMode::kS).ok());
  EXPECT_EQ(lm.HeldMode(1, RowKey("b")), LockMode::kS);
  lm.ReleaseAll(1);
}

// graph_mu_ (rank kLockGraph) is taken only by a request that must wait.
// The runtime lock-order checker proves it: this thread holds another
// rank-kLockGraph mutex throughout, so any acquisition of graph_mu_ (or of
// anything ranked at or below it) would abort the test. Grants,
// conversions, coverage hits, escalation, TryLock refusals, Unlock,
// ReleaseAll and HeldMode all run under it.
TEST(LockManager, RequestsThatDoNotWaitNeverTakeTheGraphMutex) {
  if (!IVDB_CHECKS_ENABLED) {
    GTEST_SKIP() << "checkers compiled out (NDEBUG without IVDB_CHECKS)";
  }
  LockManager::Options options;
  options.escalation_threshold = 3;
  LockManager lm(options);
  RankedMutex same_rank_as_graph{LockRank::kLockGraph, "same_rank_as_graph"};
  MutexLock guard(&same_rank_as_graph);

  ASSERT_TRUE(lm.Lock(1, Table(), LockMode::kIX).ok());
  ASSERT_TRUE(lm.Lock(2, Table(), LockMode::kIX).ok());
  ASSERT_TRUE(lm.Lock(1, RowKey("hot"), LockMode::kE).ok());
  ASSERT_TRUE(lm.Lock(2, RowKey("hot"), LockMode::kE).ok());
  ASSERT_TRUE(lm.Lock(1, RowKey("a"), LockMode::kS).ok());
  ASSERT_TRUE(lm.Lock(1, RowKey("a"), LockMode::kX).ok());  // conversion
  ASSERT_TRUE(lm.Lock(1, RowKey("a"), LockMode::kS).ok());  // re-entrant
  EXPECT_TRUE(lm.TryLock(2, RowKey("a"), LockMode::kS).IsBusy());
  lm.Unlock(1, RowKey("a"));
  EXPECT_EQ(lm.HeldMode(1, RowKey("a")), LockMode::kNL);

  // Escalation (txn 3 alone on object 2), then a covered key request.
  const ResourceId obj2 = ResourceId::Object(2);
  ASSERT_TRUE(lm.Lock(3, obj2, LockMode::kIX).ok());
  for (const char* k : {"x", "y", "z"}) {
    ASSERT_TRUE(lm.Lock(3, ResourceId::Key(2, k), LockMode::kX).ok());
  }
  EXPECT_EQ(lm.metrics().escalations->Value(), 1u);
  ASSERT_TRUE(lm.Lock(3, ResourceId::Key(2, "w"), LockMode::kX).ok());
  EXPECT_EQ(lm.HeldMode(3, obj2), LockMode::kX);

  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  lm.ReleaseAll(3);
  EXPECT_EQ(lm.NumHolders(RowKey("hot")), 0);
  EXPECT_EQ(lm.NumHolders(obj2), 0);
  EXPECT_EQ(lm.metrics().waits->Value(), 0u);
}

// Eight threads: every transaction takes a shared IX on the table, X on a
// key of its own and E on one shared row, sometimes upgrading its key; every
// few rounds thread pairs build a two-transaction deadlock cycle on purpose.
// Transaction ids are chosen so that all even threads share one record
// shard and all odd threads another.
TEST(LockManager, StressShardedRecordsWithDeadlockCycles) {
  LockManager::Options options;
  options.wait_timeout = 10000ms;
  LockManager lm(options);
  constexpr int kThreads = 8;
  constexpr int kRounds = 120;
  constexpr int kCycleEvery = 8;
  const ResourceId hot = RowKey("hot");
  std::atomic<int> deadlocks{0};
  std::atomic<int> failures{0};
  std::vector<std::unique_ptr<std::barrier<>>> pair_barriers;
  for (int p = 0; p < kThreads / 2; p++) {
    pair_barriers.push_back(std::make_unique<std::barrier<>>(2));
  }
  auto txn_id = [](int t, int round, int step) {
    const uint64_t seq = (static_cast<uint64_t>(round) * 2 + step) * kThreads +
                         static_cast<uint64_t>(t);
    return static_cast<TxnId>(seq * LockManager::kTxnShards + (t % 2) + 1);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; round++) {
        const TxnId txn = txn_id(t, round, 0);
        const ResourceId own =
            RowKey("t" + std::to_string(t) + "_" + std::to_string(round % 4));
        bool ok = lm.Lock(txn, Table(), LockMode::kIX).ok() &&
                  lm.Lock(txn, own, round % 3 == 0 ? LockMode::kS
                                                   : LockMode::kX).ok() &&
                  lm.Lock(txn, hot, LockMode::kE).ok() &&
                  lm.Lock(txn, own, LockMode::kX).ok() &&
                  lm.HeldMode(txn, own) == LockMode::kX &&
                  lm.HeldMode(txn, hot) == LockMode::kE;
        if (!ok) failures++;
        lm.ReleaseAll(txn);

        if (round % kCycleEvery != 0) continue;
        // Pair (2p, 2p + 1) locks A then B and B then A, meeting at a
        // barrier in between, so the cycle forms every time.
        const int pair = t / 2;
        const TxnId cyc = txn_id(t, round, 1);
        const ResourceId first =
            RowKey("p" + std::to_string(pair) + (t % 2 == 0 ? "a" : "b"));
        const ResourceId second =
            RowKey("p" + std::to_string(pair) + (t % 2 == 0 ? "b" : "a"));
        if (!lm.Lock(cyc, Table(), LockMode::kIX).ok() ||
            !lm.Lock(cyc, first, LockMode::kX).ok()) {
          failures++;
        }
        pair_barriers[pair]->arrive_and_wait();
        Status s = lm.Lock(cyc, second, LockMode::kX);
        if (s.IsDeadlock()) {
          deadlocks++;
        } else if (!s.ok()) {
          failures++;
        }
        lm.ReleaseAll(cyc);
        // Both partners are done before either starts the next round.
        pair_barriers[pair]->arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Every forced cycle was broken by at least one victim, never by a
  // timeout.
  const int cycles = (kThreads / 2) * ((kRounds + kCycleEvery - 1) /
                                       kCycleEvery);
  EXPECT_GE(deadlocks.load(), cycles);
  EXPECT_EQ(lm.metrics().timeouts->Value(), 0u);
  EXPECT_EQ(lm.NumHolders(Table()), 0);
  EXPECT_EQ(lm.NumHolders(hot), 0);
  for (int t = 0; t < kThreads; t++) {
    for (int k = 0; k < 4; k++) {
      EXPECT_EQ(lm.NumHolders(RowKey("t" + std::to_string(t) + "_" +
                                     std::to_string(k))),
                0);
    }
  }
  for (int p = 0; p < kThreads / 2; p++) {
    EXPECT_EQ(lm.NumHolders(RowKey("p" + std::to_string(p) + "a")), 0);
    EXPECT_EQ(lm.NumHolders(RowKey("p" + std::to_string(p) + "b")), 0);
  }
}

}  // namespace
}  // namespace ivdb
