// Group commit (docs/INTERNALS.md §2): the inline leader/follower path that
// is the engine's only commit path.
//
// Covers every batching boundary it introduces:
//   * leader/follower flush joining — a returned Flush() implies the
//     durable watermark covers the caller, concurrent committers coalesce
//     into fewer fsyncs than commits, and every leader batch is recorded
//     once in the batch histograms;
//   * the batching window sleeps through the Clock seam, so ManualClock
//     harnesses run it in virtual time;
//   * commit-visibility flips strictly in COMMIT-LSN order (observable as
//     the logged commit timestamps being monotone in LSN order — both are
//     drawn in one visibility_mu_ critical section);
//   * a failed batch fsync poisons the WAL and rolls back EVERY transaction
//     in the batch: the leader surfaces the root-cause IOError, its
//     followers learn kUnavailable, and none of their effects are visible;
//   * the retired commit_pipeline option is rejected at Open.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/env.h"
#include "engine/database.h"
#include "obs/flight_recorder.h"
#include "test_util.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace ivdb {
namespace {

// --- LogManager-level group commit -----------------------------------------

class GroupCommitWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "group_commit_wal_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

LogRecord InsertRecord(TxnId txn, const std::string& key) {
  LogRecord rec;
  rec.type = LogRecordType::kInsert;
  rec.txn_id = txn;
  rec.object_id = 5;
  rec.key = key;
  rec.after = "value-" + key;
  return rec;
}

// Leader/follower joining: every returned Flush() implies the durable
// watermark covers the caller's LSN, the final log is the dense
// concatenation of every thread's records, concurrent committers share
// fsyncs, and each leader batch lands in the batch histograms exactly once.
TEST_F(GroupCommitWalTest, ConcurrentCommittersJoinBatchesCorrectly) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  LogManagerOptions options;
  options.dir = dir_;
  options.sync = SyncMode::kFsync;
  // A short window and a modelled device latency give followers time to
  // append behind each leader, as concurrent committers do on real disks.
  options.group_commit_window_micros = 100;
  options.flush_delay_micros = 200;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        LogRecord rec = InsertRecord(
            static_cast<TxnId>(t + 1),
            "t" + std::to_string(t) + "-" + std::to_string(i));
        if (!log.Append(&rec).ok() || !log.Flush(rec.lsn).ok()) {
          failures.fetch_add(1);
          return;
        }
        // The flush-join contract: a returned Flush(lsn) means the durable
        // watermark has passed lsn, whoever performed the actual fsync.
        if (log.flushed_lsn() < rec.lsn) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  const Lsn total = kThreads * kPerThread;
  EXPECT_EQ(log.last_lsn(), total);
  EXPECT_EQ(log.flushed_lsn(), total);
  const int64_t fsyncs = log.metrics().flushes->Value();
  ASSERT_GT(fsyncs, 0);
  EXPECT_LT(fsyncs, static_cast<int64_t>(total))
      << "concurrent committers never shared a batch";
  const auto batches = log.metrics().batch_records->Snap();
  EXPECT_EQ(batches.count, static_cast<uint64_t>(fsyncs))
      << "every leader batch is recorded exactly once";
  EXPECT_EQ(batches.sum, static_cast<uint64_t>(total))
      << "every appended record must be written exactly once";
  const auto bytes = log.metrics().batch_bytes->Snap();
  EXPECT_EQ(bytes.count, static_cast<uint64_t>(fsyncs));
  EXPECT_EQ(bytes.sum, log.appended_bytes());

  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_EQ(records.size(), static_cast<size_t>(total));
  for (size_t i = 0; i < records.size(); i++) {
    EXPECT_EQ(records[i].lsn, static_cast<Lsn>(i + 1)) << "LSN gap at " << i;
  }
}

// The batching window sleeps through the Clock seam, so a ManualClock
// harness runs group commit in virtual time: a wide window adds no
// wall-clock latency to a lone committer.
TEST_F(GroupCommitWalTest, ManualClockRunsTheWindowInVirtualTime) {
  constexpr uint64_t kStart = 1000;
  constexpr uint64_t kWindow = 50000;  // intolerable if slept for real
  constexpr int kCommits = 10;
  ManualClock clock(kStart);
  LogManagerOptions options;
  options.dir = dir_;
  options.group_commit_window_micros = kWindow;
  options.clock = &clock;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());

  const uint64_t start = NowMicros();
  for (int i = 0; i < kCommits; i++) {
    LogRecord rec = InsertRecord(1, "k" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  const uint64_t wall_micros = NowMicros() - start;
  // 10 leader passes x 50 ms of virtual window each; the generous wall
  // bound proves the sleeps advanced the ManualClock, not the calendar.
  EXPECT_LT(wall_micros, 100000u) << "window slept in wall time";
  EXPECT_EQ(clock.NowMicros(), kStart + kCommits * kWindow);
  EXPECT_EQ(log.flushed_lsn(), static_cast<Lsn>(kCommits));
  EXPECT_EQ(log.metrics().flushes->Value(), kCommits);
}

// --- Engine-level group commit ----------------------------------------------

class GroupCommitDbTest : public DurableDbTest {};

// Real time, except that the group-commit window can be gated: once armed,
// the next window sleep blocks until the WAL has appended `target` records
// in total. A leader that wakes then claims every record appended so far,
// so a test can place a known set of COMMIT records in one batch.
class BatchGateClock : public Clock {
 public:
  uint64_t NowMicros() const override { return ivdb::NowMicros(); }

  void SleepMicros(uint64_t micros) override {
    const obs::Counter* appended = appended_.exchange(nullptr);
    if (appended == nullptr) {
      Clock::Default()->SleepMicros(micros);
      return;
    }
    // Bounded: a committer that never appends must fail the test, not
    // hang it.
    const uint64_t deadline = ivdb::NowMicros() + 10 * 1000 * 1000;
    while (appended->Value() < target_.load()) {
      if (ivdb::NowMicros() > deadline) {
        timed_out_.store(true);
        return;
      }
      std::this_thread::yield();
    }
  }

  void Arm(const obs::Counter* appended, uint64_t target) {
    target_.store(target);
    appended_.store(appended);
  }
  bool armed() const { return appended_.load() != nullptr; }
  bool timed_out() const { return timed_out_.load(); }

 private:
  std::atomic<const obs::Counter*> appended_{nullptr};
  std::atomic<uint64_t> target_{0};
  std::atomic<bool> timed_out_{false};
};

// Commit visibility flips strictly in COMMIT-LSN order. The logged commit
// timestamp and the COMMIT record's LSN are drawn inside one visibility_mu_
// critical section, so the record stream is the order witness: timestamps
// must be strictly increasing in LSN order however the leaders batched the
// appends. (The flip sequencer itself asserts coverage via an invariant
// that would abort this very workload if a flip ever ran early or late.)
TEST_F(GroupCommitDbTest, FlipOrderMatchesCommitLsnOrder) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20;
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; i++) {
          const int64_t id = t * kPerThread + i;
          Transaction* txn = db->Begin();
          if (!db->Insert(txn, "sales", Sale(id, "eu", 1.0)).ok() ||
              !db->Commit(txn).ok()) {
            failures.fetch_add(1);
          }
          db->Forget(txn);
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(failures.load(), 0);
  }

  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  uint64_t last_commit_ts = 0;
  Lsn last_commit_lsn = 0;
  int user_commits = 0;
  for (const LogRecord& rec : records) {
    if (rec.type != LogRecordType::kCommit || rec.system_txn) continue;
    EXPECT_GT(rec.lsn, last_commit_lsn);
    EXPECT_GT(rec.timestamp, last_commit_ts)
        << "commit at LSN " << rec.lsn
        << " stamped out of LSN order (prev LSN " << last_commit_lsn << ")";
    last_commit_lsn = rec.lsn;
    last_commit_ts = rec.timestamp;
    user_commits++;
  }
  EXPECT_EQ(user_commits, kThreads * kPerThread);

  // Every acknowledged commit is durable and visible after recovery.
  auto db = OpenDb();
  Transaction* reader = db->Begin();
  auto rows = db->ScanTable(reader, "sales");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), static_cast<size_t>(kThreads * kPerThread));
  ASSERT_TRUE(db->Commit(reader).ok());
}

// A failed batch fsync rolls back every transaction in the batch. The gated
// window holds the leader until all four COMMIT records are appended, so
// one leader batch carries every committer: the leader surfaces the
// root-cause IOError (and carries the degraded marker in its trace — see
// degraded_mode_test), its followers learn kUnavailable, all end aborted,
// and none of their effects are visible.
TEST_F(GroupCommitDbTest, FailedBatchFsyncRollsBackEveryTxnInBatch) {
  constexpr int kCommitters = 4;
  FaultInjectionEnv env(42);
  BatchGateClock clock;
  DatabaseOptions options;
  options.dir = dir_;
  options.sync = SyncMode::kFsync;
  options.env = &env;
  options.clock = &clock;
  options.group_commit_window_micros = 1;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto db = std::move(opened).value();
  ASSERT_TRUE(db->CreateTable("sales", SalesSchema(), {0}).ok());

  Transaction* acked = db->Begin();
  ASSERT_TRUE(db->Insert(acked, "sales", Sale(0, "eu", 1.0)).ok());
  ASSERT_TRUE(db->Commit(acked).ok());
  db->Forget(acked);

  // Append all writes while healthy; only the commit fsync fails.
  std::vector<Transaction*> txns(kCommitters);
  for (int i = 0; i < kCommitters; i++) {
    txns[i] = db->Begin();
    ASSERT_TRUE(db->Insert(txns[i], "sales", Sale(1 + i, "us", 2.0)).ok());
  }
  const obs::Counter* appended = db->log_metrics().records_appended;
  // A fresh log numbers records from 1, so LSN == records appended. Each
  // Commit appends exactly one record (COMMIT) before it flushes.
  const Lsn first_commit_lsn = appended->Value() + 1;
  const uint64_t target = appended->Value() + kCommitters;
  clock.Arm(appended, target);
  env.FailNextSyncs(1);

  std::vector<Status> statuses(kCommitters);
  std::vector<std::thread> threads;
  for (int i = 0; i < kCommitters; i++) {
    threads.emplace_back([&, i] { statuses[i] = db->Commit(txns[i]); });
  }
  for (auto& th : threads) th.join();
  ASSERT_FALSE(clock.armed()) << "no leader reached the batching window";
  ASSERT_FALSE(clock.timed_out()) << "committers never appended COMMIT";

  int io_errors = 0;
  for (int i = 0; i < kCommitters; i++) {
    ASSERT_FALSE(statuses[i].ok()) << "committer " << i << " was acked";
    if (statuses[i].IsIOError()) {
      io_errors++;
    } else {
      EXPECT_TRUE(statuses[i].IsUnavailable()) << statuses[i].ToString();
    }
    EXPECT_EQ(txns[i]->state(), TxnState::kAborted) << "committer " << i;
    db->Forget(txns[i]);
  }
  // The leader performed the failing I/O and reports it; its followers in
  // the same batch get the generic degraded status.
  EXPECT_EQ(io_errors, 1);
  EXPECT_TRUE(db->degraded());

  // The flight recorder shows the failed batch on the leader's lane: one
  // wal_batch span whose LSN range holds every committer's COMMIT record.
  int failed_batches = 0;
  for (const auto& lane : db->flight_recorder()->Snap().threads) {
    for (const auto& ev : lane.events) {
      if (ev.type != obs::FlightEventType::kWalBatch) continue;
      if (ev.b != target) continue;
      failed_batches++;
      EXPECT_LE(ev.a, first_commit_lsn);
    }
  }
  EXPECT_EQ(failed_batches, 1);

  // Snapshot readers keep serving exactly the acknowledged prefix.
  auto reader = db->BeginChecked(ReadMode::kSnapshot);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(db->Get(reader.value(), "sales", {Value::Int64(0)})
                  ->has_value());
  for (int i = 0; i < kCommitters; i++) {
    EXPECT_FALSE(db->Get(reader.value(), "sales", {Value::Int64(1 + i)})
                     ->has_value())
        << "rolled-back row " << 1 + i << " leaked into a snapshot";
  }
  ASSERT_TRUE(db->Commit(reader.value()).ok());
}

// The dedicated-writer pipeline is gone; asking for it is an error rather
// than a silent fallback.
TEST(GroupCommitOptions, OpenRejectsCommitPipeline) {
  DatabaseOptions options;
  EXPECT_FALSE(options.commit_pipeline) << "group commit is the default";
  options.commit_pipeline = true;
  auto opened = Database::Open(options);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument())
      << opened.status().ToString();
}

}  // namespace
}  // namespace ivdb
