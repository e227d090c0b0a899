#ifndef IVDB_WAL_LOG_RECORD_H_
#define IVDB_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "catalog/value.h"
#include "common/slice.h"
#include "common/status.h"

namespace ivdb {

using Lsn = uint64_t;
using TxnId = uint64_t;

inline constexpr Lsn kInvalidLsn = 0;

// Log record kinds. The data records are *logical*: they name an object
// (table primary index or view index), a key, and value payloads — not pages
// and byte offsets. Logical logging is what makes escrow maintenance
// recoverable: INCREMENT records redo/undo by applying (inverse) deltas, so
// concurrent increments on one record never corrupt each other during
// rollback or restart (the paper's central recovery argument).
enum class LogRecordType : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,    // rollback begins; followed by CLRs, then kEnd
  kEnd = 4,      // transaction fully finished (after commit or rollback)
  kInsert = 5,   // after-image insert of key -> value
  kDelete = 6,   // delete of key (before-image retained for undo)
  kUpdate = 7,   // full-value replace (before and after images)
  kIncrement = 8,  // escrow delta on an aggregate row: per-column additions
  kClr = 9,        // compensation record (redo-only), carries undo_next_lsn
  kBeginCheckpoint = 10,
  kEndCheckpoint = 11,
  // Online view build markers (engine-level, not part of any user
  // transaction; logged with txn_id 0 / system_txn). kViewBuildStart
  // carries the view id in object_id, the view name in `key`, the encoded
  // ViewDefinition in `after`, the build's snapshot capture timestamp in
  // `timestamp`, and the WAL-tail replay floor in `undo_next_lsn`.
  // kViewBuildCommit carries the view id and seals the build: recovery
  // registers the view (its contents were logged by the flip's system
  // transaction), while a start marker with no commit marker is an
  // abandoned build whose partial state recovery garbage-collects.
  kViewBuildStart = 12,
  kViewBuildCommit = 13,
};

const char* LogRecordTypeName(LogRecordType type);

// One per-column additive delta applied by an INCREMENT.
struct ColumnDelta {
  uint32_t column = 0;
  Value delta;

  bool operator==(const ColumnDelta& other) const {
    return column == other.column && delta == other.delta;
  }
};

struct LogRecord {
  Lsn lsn = kInvalidLsn;
  Lsn prev_lsn = kInvalidLsn;  // previous record of the same transaction
  TxnId txn_id = 0;
  LogRecordType type = LogRecordType::kBegin;
  bool system_txn = false;

  // Data-record fields (kInsert/kDelete/kUpdate/kIncrement and CLRs).
  uint32_t object_id = 0;
  std::string key;
  std::string before;  // kDelete/kUpdate: old value (for undo)
  std::string after;   // kInsert/kUpdate: new value (for redo)
  std::vector<ColumnDelta> deltas;  // kIncrement

  // CLR fields: `clr_op` is the compensation's own operation type (the
  // inverse of the undone record), applied with the data fields above;
  // `undo_next_lsn` points at the next record of this transaction still to
  // be undone (prev_lsn of the undone record).
  LogRecordType clr_op = LogRecordType::kInsert;
  Lsn undo_next_lsn = kInvalidLsn;

  // kCommit: the durable commit timestamp — recovery's clock high-water
  // mark, keeping post-restart timestamps strictly above everything
  // logged. (In-process multiversion visibility is driven by a later,
  // unlogged flip timestamp; see TransactionManager's commit protocol.)
  // kEndCheckpoint: the checkpoint's stable LSN.
  uint64_t timestamp = 0;

  // Serializes the record body (no framing; the log manager frames with
  // length + CRC): [type][system_txn][varint lsn] followed by the tail.
  void EncodeTo(std::string* dst) const;
  // Serializes the body's tail, everything after the LSN. It does not depend
  // on the LSN, so the log manager encodes it before drawing one.
  void EncodeTailTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, LogRecord* out);

  std::string ToString() const;
};

// Builds the compensation (CLR) for a data record being undone: inverse
// operation, undo_next_lsn = undone.prev_lsn. The caller fills prev_lsn and
// appends it to the log before applying the compensation physically. Used
// by both transaction rollback and restart undo.
LogRecord MakeCompensation(const LogRecord& undone);

}  // namespace ivdb

#endif  // IVDB_WAL_LOG_RECORD_H_
