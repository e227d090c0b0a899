#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace ivdb {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "wal_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Path of segment `seqno` (tests may poke segment files directly; engine
  // code outside src/wal/ must not).
  std::string SegPath(uint64_t seqno) const {
    return dir_ + "/" + LogManager::SegmentFileName(seqno);
  }

  std::string dir_;
};

LogRecord DataRecord(TxnId txn, LogRecordType type, const std::string& key) {
  LogRecord rec;
  rec.type = type;
  rec.txn_id = txn;
  rec.object_id = 5;
  rec.key = key;
  rec.before = "before";
  rec.after = "after";
  return rec;
}

TEST(LogRecordCodec, RoundTripAllTypes) {
  for (LogRecordType type :
       {LogRecordType::kBegin, LogRecordType::kCommit, LogRecordType::kAbort,
        LogRecordType::kEnd, LogRecordType::kInsert, LogRecordType::kDelete,
        LogRecordType::kUpdate, LogRecordType::kIncrement, LogRecordType::kClr,
        LogRecordType::kBeginCheckpoint, LogRecordType::kEndCheckpoint}) {
    LogRecord rec;
    rec.lsn = 42;
    rec.prev_lsn = 41;
    rec.txn_id = 7;
    rec.type = type;
    rec.system_txn = true;
    rec.object_id = 3;
    rec.key = "the-key";
    rec.before = "old";
    rec.after = "new";
    rec.deltas = {{1, Value::Int64(5)}, {2, Value::Double(-1.5)}};
    rec.clr_op = LogRecordType::kIncrement;
    rec.undo_next_lsn = 40;
    rec.timestamp = 1234;

    std::string buf;
    rec.EncodeTo(&buf);
    LogRecord out;
    ASSERT_TRUE(LogRecord::DecodeFrom(buf, &out).ok())
        << LogRecordTypeName(type);
    EXPECT_EQ(out.lsn, rec.lsn);
    EXPECT_EQ(out.prev_lsn, rec.prev_lsn);
    EXPECT_EQ(out.txn_id, rec.txn_id);
    EXPECT_EQ(out.type, rec.type);
    EXPECT_EQ(out.system_txn, rec.system_txn);
    EXPECT_EQ(out.object_id, rec.object_id);
    EXPECT_EQ(out.key, rec.key);
    EXPECT_EQ(out.before, rec.before);
    EXPECT_EQ(out.after, rec.after);
    ASSERT_EQ(out.deltas.size(), 2u);
    EXPECT_TRUE(out.deltas[0] == rec.deltas[0]);
    EXPECT_TRUE(out.deltas[1] == rec.deltas[1]);
    EXPECT_EQ(out.clr_op, rec.clr_op);
    EXPECT_EQ(out.undo_next_lsn, rec.undo_next_lsn);
    EXPECT_EQ(out.timestamp, rec.timestamp);
  }
}

TEST(LogRecordCodec, TruncatedFails) {
  LogRecord rec = DataRecord(1, LogRecordType::kUpdate, "k");
  std::string buf;
  rec.EncodeTo(&buf);
  for (size_t cut : {size_t{0}, size_t{1}, buf.size() / 2, buf.size() - 1}) {
    LogRecord out;
    EXPECT_FALSE(
        LogRecord::DecodeFrom(Slice(buf.data(), cut), &out).ok())
        << cut;
  }
}

TEST(LogRecordCodec, ToStringMentionsType) {
  LogRecord rec = DataRecord(9, LogRecordType::kIncrement, "k");
  rec.deltas = {{3, Value::Int64(-2)}};
  std::string s = rec.ToString();
  EXPECT_NE(s.find("INCREMENT"), std::string::npos);
  EXPECT_NE(s.find("txn=9"), std::string::npos);
}

TEST(MakeCompensationTest, InverseOps) {
  LogRecord ins = DataRecord(1, LogRecordType::kInsert, "k");
  ins.prev_lsn = 10;
  LogRecord clr = MakeCompensation(ins);
  EXPECT_EQ(clr.type, LogRecordType::kClr);
  EXPECT_EQ(clr.clr_op, LogRecordType::kDelete);
  EXPECT_EQ(clr.undo_next_lsn, 10u);
  EXPECT_EQ(clr.key, "k");

  LogRecord del = DataRecord(1, LogRecordType::kDelete, "k");
  clr = MakeCompensation(del);
  EXPECT_EQ(clr.clr_op, LogRecordType::kInsert);
  EXPECT_EQ(clr.after, "before");

  LogRecord upd = DataRecord(1, LogRecordType::kUpdate, "k");
  clr = MakeCompensation(upd);
  EXPECT_EQ(clr.clr_op, LogRecordType::kUpdate);
  EXPECT_EQ(clr.before, "after");
  EXPECT_EQ(clr.after, "before");

  LogRecord inc = DataRecord(1, LogRecordType::kIncrement, "k");
  inc.deltas = {{2, Value::Int64(5)}, {3, Value::Double(1.5)}};
  clr = MakeCompensation(inc);
  EXPECT_EQ(clr.clr_op, LogRecordType::kIncrement);
  ASSERT_EQ(clr.deltas.size(), 2u);
  EXPECT_EQ(clr.deltas[0].delta.AsInt64(), -5);
  EXPECT_EQ(clr.deltas[1].delta.AsDouble(), -1.5);
}

TEST(SegmentNaming, FileNameFormat) {
  EXPECT_EQ(LogManager::SegmentFileName(1), "wal-000001.log");
  EXPECT_EQ(LogManager::SegmentFileName(123456), "wal-123456.log");
  EXPECT_EQ(LogManager::SegmentFileName(10000000), "wal-10000000.log");
}

TEST_F(WalTest, AppendAssignsMonotonicLsns) {
  LogManager log({dir_});
  ASSERT_TRUE(log.Open().ok());
  Lsn prev = 0;
  for (int i = 0; i < 100; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert, "k");
    ASSERT_TRUE(log.Append(&rec).ok());
    EXPECT_GT(rec.lsn, prev);
    prev = rec.lsn;
  }
  EXPECT_EQ(log.last_lsn(), prev);
}

TEST_F(WalTest, FlushMakesRecordsReadable) {
  LogManager log({dir_});
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 10; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                               "k" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
  }
  ASSERT_TRUE(log.Flush(log.last_lsn()).ok());
  EXPECT_EQ(log.flushed_lsn(), log.last_lsn());

  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(records[i].key, "k" + std::to_string(i));
    EXPECT_EQ(records[i].lsn, static_cast<Lsn>(i + 1));
  }
}

TEST_F(WalTest, UnflushedRecordsAreLostAcrossReopen) {
  {
    LogManager log({dir_});
    ASSERT_TRUE(log.Open().ok());
    LogRecord a = DataRecord(1, LogRecordType::kInsert, "durable");
    ASSERT_TRUE(log.Append(&a).ok());
    ASSERT_TRUE(log.Flush(a.lsn).ok());
    LogRecord b = DataRecord(1, LogRecordType::kInsert, "buffered-only");
    ASSERT_TRUE(log.Append(&b).ok());
    // Destroyed without flushing b — simulated crash.
  }
  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "durable");
}

TEST_F(WalTest, ReadLogToleratesTornTailOnNewestSegment) {
  {
    LogManager log({dir_});
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 5; i++) {
      LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                                 "k" + std::to_string(i));
      ASSERT_TRUE(log.Append(&rec).ok());
    }
    ASSERT_TRUE(log.Flush(log.last_lsn()).ok());
  }
  // Tear the (only, hence newest) segment mid-record.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(SegPath(1), &contents).ok());
  std::string torn = contents.substr(0, contents.size() - 7);
  ASSERT_TRUE(WriteStringToFileAtomic(SegPath(1), torn).ok());

  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  EXPECT_EQ(records.size(), 4u);  // last record dropped, rest intact
}

TEST_F(WalTest, ReadLogToleratesCorruptTailOnNewestSegment) {
  {
    LogManager log({dir_});
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 3; i++) {
      LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                                 "k" + std::to_string(i));
      ASSERT_TRUE(log.Append(&rec).ok());
    }
    ASSERT_TRUE(log.Flush(log.last_lsn()).ok());
  }
  std::string contents;
  ASSERT_TRUE(ReadFileToString(SegPath(1), &contents).ok());
  contents[contents.size() - 3] ^= 0x5a;  // corrupt last record's payload
  ASSERT_TRUE(WriteStringToFileAtomic(SegPath(1), contents).ok());

  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  EXPECT_EQ(records.size(), 2u);
}

TEST_F(WalTest, ReadLogOnMissingDirIsEmpty) {
  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_ + "/nope", &records).ok());
  EXPECT_TRUE(records.empty());
}

TEST_F(WalTest, OpenRepairsTornTailSoAppendsResumeCleanly) {
  Lsn durable;
  {
    LogManager log({dir_});
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 4; i++) {
      LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                                 "k" + std::to_string(i));
      ASSERT_TRUE(log.Append(&rec).ok());
    }
    ASSERT_TRUE(log.Flush(log.last_lsn()).ok());
    durable = log.last_lsn();
  }
  // Tear the newest segment mid-record, then reopen and append more. The
  // torn bytes must be cut away, not appended after (which would hide the
  // new records behind an undecodable frame).
  std::string contents;
  ASSERT_TRUE(ReadFileToString(SegPath(1), &contents).ok());
  ASSERT_TRUE(WriteStringToFileAtomic(
                  SegPath(1), contents.substr(0, contents.size() - 5))
                  .ok());
  {
    LogManager log({dir_});
    ASSERT_TRUE(log.Open().ok());
    EXPECT_EQ(log.last_lsn(), durable - 1);  // torn record excluded
    LogRecord rec = DataRecord(2, LogRecordType::kInsert, "resumed");
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.back().key, "resumed");
}

TEST_F(WalTest, RotationProducesDenseSegmentsAndReadLogMergesThem) {
  LogManagerOptions options;
  options.dir = dir_;
  options.segment_bytes = 256;  // tiny: force frequent rotation
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  constexpr int kRecords = 100;
  for (int i = 0; i < kRecords; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                               "key-" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  EXPECT_GT(log.SegmentCount(), 1u);
  EXPECT_GT(log.metrics().rotations->Value(), 0u);
  EXPECT_EQ(log.metrics().segments->Value(),
            static_cast<int64_t>(log.SegmentCount()));

  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_EQ(records.size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; i++) {
    EXPECT_EQ(records[i].lsn, static_cast<Lsn>(i + 1));
    EXPECT_EQ(records[i].key, "key-" + std::to_string(i));
  }
}

TEST_F(WalTest, ParallelReadLogMatchesSerial) {
  LogManagerOptions options;
  options.dir = dir_;
  options.segment_bytes = 200;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 200; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                               "key-" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  ASSERT_GT(log.SegmentCount(), 2u);

  std::vector<LogRecord> serial, parallel;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &serial, nullptr, 1).ok());
  ASSERT_TRUE(LogManager::ReadLog(dir_, &parallel, nullptr, 4).ok());
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); i++) {
    EXPECT_EQ(serial[i].lsn, parallel[i].lsn);
    EXPECT_EQ(serial[i].key, parallel[i].key);
  }
}

TEST_F(WalTest, RetireSegmentsBelowDeletesOnlyDeadSealedSegments) {
  LogManagerOptions options;
  options.dir = dir_;
  options.segment_bytes = 200;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 100; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                               "key-" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  const size_t before = log.SegmentCount();
  ASSERT_GT(before, 2u);

  // Horizon in the middle of the stream: only segments entirely below it go.
  ASSERT_TRUE(log.RetireSegmentsBelow(50).ok());
  const size_t after_mid = log.SegmentCount();
  EXPECT_LT(after_mid, before);
  EXPECT_GT(log.metrics().segments_retired->Value(), 0u);
  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_FALSE(records.empty());
  // Every record at or above the horizon survived.
  EXPECT_LE(records.front().lsn, 50u);
  EXPECT_EQ(records.back().lsn, 100u);
  Lsn prev = records.front().lsn;
  for (size_t i = 1; i < records.size(); i++) {
    EXPECT_EQ(records[i].lsn, prev + 1);
    prev = records[i].lsn;
  }

  // A horizon above everything keeps the open segment alive.
  ASSERT_TRUE(log.RetireSegmentsBelow(10'000).ok());
  EXPECT_EQ(log.SegmentCount(), 1u);
  LogRecord rec = DataRecord(2, LogRecordType::kInsert, "after-retire");
  ASSERT_TRUE(log.Append(&rec).ok());
  ASSERT_TRUE(log.Flush(rec.lsn).ok());
  EXPECT_EQ(rec.lsn, 101u);
}

TEST_F(WalTest, CorruptionInSealedSegmentIsHardError) {
  LogManagerOptions options;
  options.dir = dir_;
  options.segment_bytes = 200;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 100; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                               "key-" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  ASSERT_GT(log.SegmentCount(), 2u);

  // Flip one byte in the *first* (sealed) segment. Rotation fsyncs before
  // sealing, so damage here cannot be a crash artifact — ReadLog must
  // refuse rather than silently drop the tail of the segment.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(SegPath(1), &contents).ok());
  contents[contents.size() - 3] ^= 0x5a;
  ASSERT_TRUE(WriteStringToFileAtomic(SegPath(1), contents).ok());

  std::vector<LogRecord> records;
  Status s = LogManager::ReadLog(dir_, &records);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(WalTest, MissingSegmentInSequenceIsCorruption) {
  LogManagerOptions options;
  options.dir = dir_;
  options.segment_bytes = 200;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 100; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                               "key-" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  ASSERT_GT(log.SegmentCount(), 2u);
  // Delete a middle segment out from under the log.
  std::filesystem::remove(SegPath(2));

  std::vector<LogRecord> records;
  Status s = LogManager::ReadLog(dir_, &records);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("gap"), std::string::npos) << s.ToString();
}

TEST_F(WalTest, GroupCommitBatchesConcurrentCommitters) {
  LogManagerOptions options;
  options.dir = dir_;
  options.flush_delay_micros = 2000;  // make flushes slow enough to batch
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());

  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; i++) {
        LogRecord rec = DataRecord(static_cast<TxnId>(t + 1),
                                   LogRecordType::kCommit, "");
        ASSERT_TRUE(log.Append(&rec).ok());
        ASSERT_TRUE(log.Flush(rec.lsn).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  uint64_t flushes = log.metrics().flushes->Value();
  uint64_t records = log.metrics().records_appended->Value();
  EXPECT_EQ(records, static_cast<uint64_t>(kThreads * kCommitsPerThread));
  // With 8 concurrent committers and a 2ms flush, batching must occur:
  // strictly fewer flushes than records.
  EXPECT_LT(flushes, records);

  std::vector<LogRecord> read_back;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &read_back).ok());
  EXPECT_EQ(read_back.size(), records);
}

TEST_F(WalTest, ConcurrentCommittersWithRotation) {
  LogManagerOptions options;
  options.dir = dir_;
  options.segment_bytes = 512;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());

  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; i++) {
        LogRecord rec = DataRecord(static_cast<TxnId>(t + 1),
                                   LogRecordType::kInsert,
                                   "t" + std::to_string(t) + "-" +
                                       std::to_string(i));
        ASSERT_TRUE(log.Append(&rec).ok());
        ASSERT_TRUE(log.Flush(rec.lsn).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_GT(log.SegmentCount(), 1u);

  // The merged stream is dense regardless of how batches hit segments.
  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records, nullptr, 4).ok());
  ASSERT_EQ(records.size(),
            static_cast<size_t>(kThreads * kCommitsPerThread));
  for (size_t i = 0; i < records.size(); i++) {
    EXPECT_EQ(records[i].lsn, static_cast<Lsn>(i + 1));
  }
}

TEST_F(WalTest, RotateNowSealsAndSkipsEmptySegment) {
  LogManager log({dir_});
  ASSERT_TRUE(log.Open().ok());
  // Rotating an empty open segment is a no-op: no empty-file litter.
  ASSERT_TRUE(log.RotateNow().ok());
  EXPECT_EQ(log.SegmentCount(), 1u);

  LogRecord rec = DataRecord(1, LogRecordType::kInsert, "k");
  ASSERT_TRUE(log.Append(&rec).ok());
  ASSERT_TRUE(log.RotateNow().ok());  // flushes, seals, opens segment 2
  EXPECT_EQ(log.SegmentCount(), 2u);
  EXPECT_EQ(log.flushed_lsn(), rec.lsn);

  LogRecord rec2 = DataRecord(1, LogRecordType::kInsert, "k2");
  ASSERT_TRUE(log.Append(&rec2).ok());
  ASSERT_TRUE(log.Flush(rec2.lsn).ok());
  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].key, "k2");
}

TEST_F(WalTest, ListSegmentFilesSortedBySeqno) {
  LogManagerOptions options;
  options.dir = dir_;
  options.segment_bytes = 200;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 60; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                               "key-" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  auto listed = LogManager::ListSegmentFiles(dir_);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), log.SegmentCount());
  for (size_t i = 1; i < listed->size(); i++) {
    EXPECT_LT((*listed)[i - 1], (*listed)[i]);
  }
}

TEST_F(WalTest, InMemoryLogNeedsNoFile) {
  LogManager log({""});
  ASSERT_TRUE(log.Open().ok());
  LogRecord rec = DataRecord(1, LogRecordType::kInsert, "k");
  ASSERT_TRUE(log.Append(&rec).ok());
  ASSERT_TRUE(log.Flush(rec.lsn).ok());
  EXPECT_EQ(log.flushed_lsn(), rec.lsn);
  ASSERT_TRUE(log.RotateNow().ok());  // no-op without a directory
  EXPECT_EQ(log.SegmentCount(), 0u);
}

TEST_F(WalTest, AdvancePastLsn) {
  LogManager log({dir_});
  ASSERT_TRUE(log.Open().ok());
  log.AdvancePastLsn(100);
  LogRecord rec = DataRecord(1, LogRecordType::kInsert, "k");
  ASSERT_TRUE(log.Append(&rec).ok());
  EXPECT_EQ(rec.lsn, 101u);
  EXPECT_GE(log.flushed_lsn(), 100u);
}

// One record of every LogRecordType, each with the fields that kind
// carries (multi-delta increments, CLR undo links, checkpoint and view-build
// markers).
std::vector<LogRecord> OneOfEveryKind() {
  std::vector<LogRecord> out;
  auto add = [&](LogRecordType type) -> LogRecord& {
    LogRecord rec;
    rec.type = type;
    rec.txn_id = 77;
    rec.prev_lsn = out.empty() ? kInvalidLsn : 3;
    out.push_back(std::move(rec));
    return out.back();
  };
  add(LogRecordType::kBegin);
  add(LogRecordType::kCommit).timestamp = (uint64_t{1} << 40) + 17;
  add(LogRecordType::kAbort).system_txn = true;
  add(LogRecordType::kEnd);
  LogRecord& ins = add(LogRecordType::kInsert);
  ins.object_id = 5;
  ins.key = "ins-key";
  ins.after = std::string(200, 'a');  // multi-byte length prefix
  LogRecord& del = add(LogRecordType::kDelete);
  del.object_id = 5;
  del.key = "del-key";
  del.before = "old";
  LogRecord& upd = add(LogRecordType::kUpdate);
  upd.object_id = 6;
  upd.key = "upd-key";
  upd.before = "before";
  upd.after = "after";
  LogRecord& inc = add(LogRecordType::kIncrement);
  inc.object_id = 10;
  inc.key = "grp";
  inc.deltas = {{1, Value::Int64(5)},
                {2, Value::Int64(-1)},
                {3, Value::Double(2.5)}};
  LogRecord& clr = add(LogRecordType::kClr);
  clr.object_id = 10;
  clr.key = "grp";
  clr.clr_op = LogRecordType::kIncrement;
  clr.deltas = {{1, Value::Int64(-5)}, {2, Value::Int64(1)}};
  clr.undo_next_lsn = 2;
  add(LogRecordType::kBeginCheckpoint).txn_id = 0;
  LogRecord& end_ckpt = add(LogRecordType::kEndCheckpoint);
  end_ckpt.txn_id = 0;
  end_ckpt.timestamp = 12345;
  LogRecord& vb_start = add(LogRecordType::kViewBuildStart);
  vb_start.txn_id = 0;
  vb_start.system_txn = true;
  vb_start.object_id = 11;
  vb_start.key = "view_name";
  vb_start.after = "encoded-definition";
  vb_start.timestamp = 999;
  vb_start.undo_next_lsn = 1;
  LogRecord& vb_commit = add(LogRecordType::kViewBuildCommit);
  vb_commit.txn_id = 0;
  vb_commit.system_txn = true;
  vb_commit.object_id = 11;
  return out;
}

// The framing the log has always written: [len][crc][EncodeTo body], with
// the CRC computed over the fully assembled body.
std::string ReferenceFrame(const LogRecord& rec) {
  std::string body;
  rec.EncodeTo(&body);
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(body.size()));
  PutFixed32(&frame, Crc32(body.data(), body.size()));
  frame.append(body);
  return frame;
}

size_t VarintLength(uint64_t v) {
  std::string buf;
  PutVarint64(&buf, v);
  return buf.size();
}

// Appends one record of every kind (LSNs starting above `lsn_floor`),
// flushes, and checks that the segment holds exactly the reference frames
// and that each decodes back to the appended record.
void ExpectFramesMatchReference(const std::string& dir, Lsn lsn_floor,
                                size_t lsn_varint_bytes) {
  LogManagerOptions options;
  options.dir = dir;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  if (lsn_floor > 0) log.AdvancePastLsn(lsn_floor);
  std::vector<LogRecord> appended = OneOfEveryKind();
  std::string expected;
  for (LogRecord& rec : appended) {
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_EQ(VarintLength(rec.lsn), lsn_varint_bytes) << rec.lsn;
    expected += ReferenceFrame(rec);
  }
  ASSERT_TRUE(log.Flush(log.last_lsn()).ok());

  std::string contents;
  ASSERT_TRUE(
      ReadFileToString(dir + "/" + LogManager::SegmentFileName(1), &contents)
          .ok());
  EXPECT_EQ(contents, expected);

  std::vector<LogRecord> decoded;
  ASSERT_TRUE(LogManager::ReadLog(dir, &decoded).ok());
  ASSERT_EQ(decoded.size(), appended.size());
  for (size_t i = 0; i < appended.size(); i++) {
    std::string want, got;
    appended[i].EncodeTo(&want);
    decoded[i].EncodeTo(&got);
    EXPECT_EQ(got, want) << LogRecordTypeName(appended[i].type);
    EXPECT_EQ(decoded[i].lsn, appended[i].lsn);
    EXPECT_EQ(decoded[i].type, appended[i].type);
  }
}

TEST(LogRecordCodec, EncodeToIsHeaderPlusTail) {
  for (const LogRecord& rec : OneOfEveryKind()) {
    std::string whole, tail;
    rec.EncodeTo(&whole);
    rec.EncodeTailTo(&tail);
    std::string header;
    header.push_back(static_cast<char>(rec.type));
    header.push_back(rec.system_txn ? '\1' : '\0');
    PutVarint64(&header, rec.lsn);
    EXPECT_EQ(whole, header + tail) << LogRecordTypeName(rec.type);
  }
}

TEST_F(WalTest, AppendFramesAreByteIdenticalWithOneByteLsns) {
  ExpectFramesMatchReference(dir_, /*lsn_floor=*/0, /*lsn_varint_bytes=*/1);
}

TEST_F(WalTest, AppendFramesAreByteIdenticalWithNineByteLsns) {
  ExpectFramesMatchReference(dir_, /*lsn_floor=*/uint64_t{1} << 56,
                             /*lsn_varint_bytes=*/9);
}

}  // namespace
}  // namespace ivdb
