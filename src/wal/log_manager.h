#ifndef IVDB_WAL_LOG_MANAGER_H_
#define IVDB_WAL_LOG_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/env.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "wal/log_record.h"

namespace ivdb {

// Durability behaviour of Flush().
enum class SyncMode : uint8_t {
  kNone = 0,    // buffered write() only (tests)
  kFsync = 1,   // fdatasync after each flush batch
};

struct LogManagerOptions {
  // Directory holding the WAL segments (`wal-<seqno>.log`). Empty =>
  // in-memory log (unit tests, lock-only benchmarks).
  std::string dir;
  // Rotation threshold: once the open segment reaches this many bytes the
  // group-commit leader seals it (fsync) and switches appends to a fresh
  // segment. 0 disables size-based rotation (one segment grows forever,
  // matching the old single-file behaviour).
  uint64_t segment_bytes = 0;
  SyncMode sync = SyncMode::kNone;
  // Artificial per-flush latency in microseconds, modelling commit-time
  // stable-storage latency. Group commit amortizes this across all
  // transactions whose records are in the flushed batch — this is the knob
  // that makes lock-hold-time effects measurable on any hardware.
  uint64_t flush_delay_micros = 0;
  // Leader batching window (PostgreSQL's commit_delay): the group-commit
  // leader waits this long before claiming the buffer, letting concurrent
  // committers append into its batch. Worth a fraction of
  // flush_delay_micros under concurrent commit load; adds that much commit
  // latency when a single transaction commits alone. Slept through `clock`.
  uint64_t group_commit_window_micros = 0;
  // File-system seam; nullptr => Env::Default(). Tests inject a
  // FaultInjectionEnv here to crash the log at exact write/sync boundaries.
  Env* env = nullptr;
  // Unified metrics registry (`ivdb_wal_*` instruments); nullptr => the
  // manager owns a private registry.
  obs::MetricsRegistry* metrics = nullptr;
  // Time source for flush-latency accounting and the batching window;
  // nullptr => Clock::Default().
  Clock* clock = nullptr;
  // Invoked exactly once, on the transition into the poisoned (degraded)
  // state — see Poison(). The engine hooks this to flip its degraded gauge
  // and emit the `engine.degraded` trace event. May be invoked from any
  // thread, possibly while WAL-internal locks are held; keep it cheap and
  // do not call back into the log manager.
  std::function<void()> on_poison = nullptr;
  // Engine flight recorder: each group-commit leader records its batch
  // (first/last LSN) and device-write spans on its own lane. nullptr
  // disables the instrumentation.
  obs::FlightRecorder* flight = nullptr;
};

// WAL instruments; see docs/OBSERVABILITY.md for the naming scheme.
struct LogManagerMetrics {
  obs::Counter* records_appended;
  obs::Counter* bytes_appended;
  obs::Counter* flushes;
  obs::Counter* flushed_records;
  // Segment lifecycle: rotations performed, segments deleted by
  // checkpoint retirement, and the current live-segment count.
  obs::Counter* rotations;
  obs::Counter* segments_retired;
  obs::Gauge* segments;
  // Time a committer spends inside Flush() waiting for its LSN to become
  // durable (`ivdb_wal_flush_wait_micros`): group commit shows up here as a
  // tight distribution near the device latency.
  obs::Histogram* flush_wait_latency;
  // Per-leader-batch record count and byte size (`ivdb_wal_batch_*`),
  // recorded once for each non-empty batch a group-commit leader writes.
  // fsyncs-per-commit is flushes / committed-txns; batch_records p50/p99 is
  // the direct view of how much coalescing each fsync buys.
  obs::Histogram* batch_records;
  obs::Histogram* batch_bytes;

  explicit LogManagerMetrics(obs::MetricsRegistry* registry);
};

// Append-only write-ahead log with group commit, stored as a sequence of
// rotating segments.
//
// Append() assigns the LSN and buffers the framed record; Flush(lsn) returns
// once every record up to `lsn` is on stable storage. Concurrent committers
// batch naturally: the first caller into the flush path writes everything
// buffered so far (including records appended by transactions that are about
// to call Flush), and later callers find their LSN already durable.
//
// Segmented layout: records live in `wal-<seqno>.log` files; only the
// highest-seqno segment is open for appends. A flush batch is always written
// wholly to the open segment, and LSNs are assigned contiguously, so every
// segment covers a dense LSN range and the global record stream is the
// segment files concatenated in seqno order. When the open segment crosses
// the size threshold the leader *seals* it — an unconditional fsync (even
// under SyncMode::kNone), so a sealed segment can never have a torn tail —
// and creates the next one. Checkpoints retire sealed segments whose entire
// LSN range is below the redo horizon (RetireSegmentsBelow) instead of
// truncating the log. The set of live segments is exactly the directory
// listing: the Env guarantees file creation durably updates the directory,
// so no separate manifest file is needed.
class LogManager {
 public:
  explicit LogManager(LogManagerOptions options);
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  // Enumerates segments in the directory, repairs a torn tail on the newest
  // segment (crash recovery: truncate to the last whole record so appends
  // resume exactly where the durable prefix ends), opens the newest segment
  // for appends (creating `wal-000001.log` in an empty directory), and
  // resumes LSN allocation after the last record on disk.
  Status Open();

  // Assigns rec->lsn and buffers the record. Thread-safe.
  Status Append(LogRecord* rec);

  // Blocks until all records with lsn <= upto are durable.
  Status Flush(Lsn upto);

  Lsn flushed_lsn() const { return flushed_lsn_.load(); }
  Lsn last_lsn() const { return next_lsn_.load() - 1; }

  // Measured duration of the most recent non-empty batch write (segment
  // append + fsync + modelled device latency), published before the durable
  // watermark advances. Commit-stage attribution reads this after its Flush
  // returns to split the flush wait into batch_assembly vs fsync; a racing
  // later batch can overwrite it, which only shifts a few microseconds
  // between those two stages.
  uint64_t last_batch_fsync_micros() const {
    return last_batch_fsync_micros_.load(std::memory_order_relaxed);
  }

  // After recovery, continue LSN allocation past everything in the log.
  void AdvancePastLsn(Lsn lsn);

  const LogManagerMetrics& metrics() const { return metrics_; }

  // Flushes everything buffered and seals the open segment (no-op when it
  // is empty), so the checkpoint that follows starts a fresh segment and
  // can retire everything before its redo horizon. Blocks behind any
  // in-flight group-commit leader.
  Status RotateNow();

  // Deletes sealed segments whose highest LSN is below `lsn` (the
  // checkpoint's redo horizon), oldest first. The open segment is never
  // deleted. Failure is not poisonous: an undeleted dead segment only
  // costs disk space — recovery filters its records.
  Status RetireSegmentsBelow(Lsn lsn);

  // Total bytes ever appended (records + framing) — the engine's
  // WAL-bytes-since-checkpoint trigger reads this.
  uint64_t appended_bytes() const {
    return appended_bytes_.load(std::memory_order_relaxed);
  }

  // Live segment count (tools/tests; also exported as `ivdb_wal_segments`).
  size_t SegmentCount() const;

  // Reads the full record stream of the segmented log in `dir`, in LSN
  // order. Segment decode + CRC checking runs on `threads` workers
  // (0 = auto, 1 = serial); records are merged in seqno order, so the
  // result is identical for every thread count. Strictness depends on
  // position: in a *sealed* (non-newest) segment every frame must be whole
  // and valid and no trailing bytes may remain — rotation fsyncs before
  // sealing, so any damage there is real corruption and a hard error. The
  // *newest* segment tolerates a torn or corrupt tail (the crash case) by
  // stopping at the last whole record. `env` defaults to Env::Default().
  // Per-segment decode accounting for ReadLog: how many records and bytes
  // each segment contributed and how long its decode + CRC pass took (real
  // time — decode workers are real threads, so there is no Clock seam to
  // virtualize here). Recovery turns these into the per-segment replay
  // histogram and flight-recorder spans.
  struct SegmentReadStats {
    uint64_t seqno = 0;
    uint64_t records = 0;
    uint64_t bytes = 0;
    uint64_t micros = 0;
  };

  static Status ReadLog(const std::string& dir,
                        std::vector<LogRecord>* records, Env* env = nullptr,
                        unsigned threads = 1,
                        std::vector<SegmentReadStats>* segment_stats = nullptr);

  // Live tail replay for online view builds: every *durable* record with
  // lsn >= from_lsn, through the same parallel segment decode as ReadLog.
  // Runs against the running log — sealed segments wholly below from_lsn
  // are skipped without being opened (the in-memory manifest knows their
  // LSN ranges), and the open segment is decoded tolerantly (a concurrent
  // append can only expose a prefix, so decoding stops at the last whole
  // record exactly like recovery's torn-tail case). Records buffered but
  // not yet written to the file are not seen — callers that need the
  // complete tail Flush() first. The caller must hold a retention
  // floor at or below from_lsn (SetRetainLsnFloor) so a concurrent
  // checkpoint cannot retire segments out from under the read.
  Status ReadTail(Lsn from_lsn, std::vector<LogRecord>* records,
                  unsigned threads = 1,
                  std::vector<SegmentReadStats>* segment_stats = nullptr);

  // Retention floor for online view builds: while non-zero, checkpoints'
  // RetireSegmentsBelow() never deletes a segment containing LSNs at or
  // above the floor, keeping the build's replay tail (its start marker
  // included) on disk for as long as the build is alive. 0 clears.
  void SetRetainLsnFloor(Lsn floor) {
    retain_floor_.store(floor, std::memory_order_release);
  }

  // Names (not paths) of the WAL segment files in `dir`, sorted by seqno.
  // The only supported way to enumerate segments outside src/wal/.
  static Result<std::vector<std::string>> ListSegmentFiles(
      const std::string& dir, Env* env = nullptr);

  // `wal-<seqno>.log`, zero-padded to 6 digits.
  static std::string SegmentFileName(uint64_t seqno);

  // Sticky degraded state. After an unrecoverable I/O error (failed flush
  // append/sync, failed rotation) the log poisons itself: the durable
  // prefix of the file may be missing records that are still buffered (or
  // were dropped by a failed fsync), so writing anything more would leave a
  // gap that recovery could silently replay across. Once poisoned, every
  // Append/Flush/RotateNow returns kUnavailable and no further bytes
  // reach the file; only a restart (a fresh LogManager over the durable
  // prefix) clears the condition. Poison() is idempotent and may also be
  // called by the engine when a checkpoint write fails.
  void Poison();
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

 private:
  // One live segment file. `end_lsn` is the highest LSN stored in the
  // segment once sealed; kInvalidLsn while it is the open (appendable) one.
  struct Segment {
    uint64_t seqno = 0;
    uint64_t bytes = 0;
    Lsn end_lsn = kInvalidLsn;
  };

  std::string SegmentPath(uint64_t seqno) const;

  // Shared core of ReadLog/ReadTail: decode + CRC-check `names` (ascending
  // seqno, all in `dir`) on `threads` workers, merge in seqno order, check
  // LSN density across the result, and drop records below `min_lsn`
  // (0 = keep all). The last name is decoded tolerantly (torn tail).
  static Status ReadSegmentFiles(const std::string& dir,
                                 const std::vector<std::string>& names,
                                 Env* env, unsigned threads, Lsn min_lsn,
                                 std::vector<LogRecord>* records,
                                 std::vector<SegmentReadStats>* segment_stats);

  // Writes a batch to the open segment (plus fsync / simulated latency).
  // Called by the leader with no locks held. `write_start`/`write_end`
  // receive the clock reads that bracket the device interaction (the end
  // read is taken only for a non-empty batch).
  Status WriteBatch(const std::string& batch, uint64_t* write_start,
                    uint64_t* write_end);

  // One leader pass: claim the buffer, write it, advance the durable
  // watermark, and rotate if the open segment crossed the threshold (or
  // `force_rotate`). Requires flush_mu_ held and flusher_active_ false on
  // entry; on return flusher_active_ is false again and waiters have been
  // notified. Poisons the log on I/O failure. Exempt from the static
  // analysis: it drops and retakes flush_mu_ around the I/O, which clang
  // cannot model through a by-reference guard.
  Status LeaderFlushOnce(UniqueMutexLock& lock, bool force_rotate)
      IVDB_NO_THREAD_SAFETY_ANALYSIS;

  // Seals the open segment (fsync + close), creates the next one, and
  // updates the manifest. Leader-exclusive (flusher_active_ true or Open).
  Status RotateLocked(Lsn seal_end_lsn);

  LogManagerOptions options_;
  Env* env_ = nullptr;  // options_.env resolved against Env::Default()
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  LogManagerMetrics metrics_;
  Clock* clock_ = nullptr;  // options_.clock resolved against Clock::Default()
  std::unique_ptr<WritableFile> file_;  // the open (newest) segment

  RankedMutex buf_mu_{LockRank::kWalBuffer, "buf_mu_"};
  std::string buffer_ IVDB_GUARDED_BY(buf_mu_);
  // Highest LSN fully contained in buffer_ + file.
  Lsn buffered_upto_ IVDB_GUARDED_BY(buf_mu_) = 0;

  // Leader/follower group commit: at most one leader performs I/O at a
  // time; followers wait on flush_cv_. Everything the leader finds buffered
  // when it swaps rides its batch, and work that arrives during its I/O is
  // picked up by the next leader immediately after.
  RankedMutex flush_mu_{LockRank::kWalFlush, "flush_mu_"};
  CondVar flush_cv_;
  bool flusher_active_ IVDB_GUARDED_BY(flush_mu_) = false;

  // Live-segment manifest, ascending seqno; back() is the open segment.
  // Only its *bookkeeping* is guarded by seg_mu_ — the file handle and the
  // bytes of the open segment are leader-exclusive.
  mutable RankedMutex seg_mu_{LockRank::kWalSegments, "seg_mu_"};
  std::vector<Segment> segments_ IVDB_GUARDED_BY(seg_mu_);

  std::atomic<Lsn> next_lsn_{1};
  std::atomic<Lsn> flushed_lsn_{0};
  // Online-build retention floor (see SetRetainLsnFloor); 0 = none.
  std::atomic<Lsn> retain_floor_{0};
  std::atomic<uint64_t> appended_bytes_{0};
  std::atomic<uint64_t> last_batch_fsync_micros_{0};
  std::atomic<bool> poisoned_{false};
  obs::FlightRecorder* flight_ = nullptr;  // options_.flight
};

}  // namespace ivdb

#endif  // IVDB_WAL_LOG_MANAGER_H_
