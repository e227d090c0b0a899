#include "wal/log_record.h"

#include "common/coding.h"
#include "common/logging.h"

namespace ivdb {

const char* LogRecordTypeName(LogRecordType type) {
  switch (type) {
    case LogRecordType::kBegin:
      return "BEGIN";
    case LogRecordType::kCommit:
      return "COMMIT";
    case LogRecordType::kAbort:
      return "ABORT";
    case LogRecordType::kEnd:
      return "END";
    case LogRecordType::kInsert:
      return "INSERT";
    case LogRecordType::kDelete:
      return "DELETE";
    case LogRecordType::kUpdate:
      return "UPDATE";
    case LogRecordType::kIncrement:
      return "INCREMENT";
    case LogRecordType::kClr:
      return "CLR";
    case LogRecordType::kBeginCheckpoint:
      return "CKPT_BEGIN";
    case LogRecordType::kEndCheckpoint:
      return "CKPT_END";
    case LogRecordType::kViewBuildStart:
      return "VIEW_BUILD_START";
    case LogRecordType::kViewBuildCommit:
      return "VIEW_BUILD_COMMIT";
  }
  return "?";
}

void LogRecord::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(type));
  dst->push_back(system_txn ? '\1' : '\0');
  PutVarint64(dst, lsn);
  EncodeTailTo(dst);
}

void LogRecord::EncodeTailTo(std::string* dst) const {
  PutVarint64(dst, prev_lsn);
  PutVarint64(dst, txn_id);
  PutVarint64(dst, object_id);
  PutVarint64(dst, timestamp);
  PutLengthPrefixed(dst, key);
  PutLengthPrefixed(dst, before);
  PutLengthPrefixed(dst, after);
  PutVarint64(dst, deltas.size());
  for (const ColumnDelta& d : deltas) {
    PutVarint64(dst, d.column);
    d.delta.EncodeTo(dst);
  }
  dst->push_back(static_cast<char>(clr_op));
  PutVarint64(dst, undo_next_lsn);
}

Status LogRecord::DecodeFrom(Slice input, LogRecord* out) {
  if (input.size() < 2) return Status::Corruption("log record truncated");
  out->type = static_cast<LogRecordType>(input[0]);
  out->system_txn = input[1] != '\0';
  input.RemovePrefix(2);
  uint64_t object_id = 0;
  uint64_t ndeltas = 0;
  if (!GetVarint64(&input, &out->lsn) ||
      !GetVarint64(&input, &out->prev_lsn) ||
      !GetVarint64(&input, &out->txn_id) ||
      !GetVarint64(&input, &object_id) ||
      !GetVarint64(&input, &out->timestamp) ||
      !GetLengthPrefixed(&input, &out->key) ||
      !GetLengthPrefixed(&input, &out->before) ||
      !GetLengthPrefixed(&input, &out->after) ||
      !GetVarint64(&input, &ndeltas)) {
    return Status::Corruption("log record truncated");
  }
  out->object_id = static_cast<uint32_t>(object_id);
  // Each delta costs at least 3 bytes; reject implausible counts before
  // reserving (hostile/corrupt headers must not drive allocation).
  if (ndeltas > input.size() / 3) {
    return Status::Corruption("log record delta count implausible");
  }
  out->deltas.clear();
  out->deltas.reserve(ndeltas);
  for (uint64_t i = 0; i < ndeltas; i++) {
    ColumnDelta d;
    uint64_t col = 0;
    if (!GetVarint64(&input, &col)) {
      return Status::Corruption("log record delta truncated");
    }
    d.column = static_cast<uint32_t>(col);
    IVDB_RETURN_NOT_OK(Value::DecodeFrom(&input, &d.delta));
    out->deltas.push_back(std::move(d));
  }
  if (input.empty()) return Status::Corruption("log record tail truncated");
  out->clr_op = static_cast<LogRecordType>(input[0]);
  input.RemovePrefix(1);
  if (!GetVarint64(&input, &out->undo_next_lsn)) {
    return Status::Corruption("log record tail truncated");
  }
  if (!input.empty()) return Status::Corruption("log record trailing bytes");
  return Status::OK();
}

std::string LogRecord::ToString() const {
  std::string out = "LSN " + std::to_string(lsn) + " " +
                    LogRecordTypeName(type) + " txn=" + std::to_string(txn_id);
  if (system_txn) out += " (sys)";
  if (type == LogRecordType::kInsert || type == LogRecordType::kDelete ||
      type == LogRecordType::kUpdate || type == LogRecordType::kIncrement ||
      type == LogRecordType::kClr) {
    out += " obj=" + std::to_string(object_id);
  }
  if (type == LogRecordType::kClr) {
    out += std::string(" op=") + LogRecordTypeName(clr_op) +
           " undo_next=" + std::to_string(undo_next_lsn);
  }
  if (type == LogRecordType::kIncrement) {
    out += " deltas={";
    for (size_t i = 0; i < deltas.size(); i++) {
      if (i > 0) out += ", ";
      out += "#" + std::to_string(deltas[i].column) + "+=" +
             deltas[i].delta.ToString();
    }
    out += "}";
  }
  return out;
}

LogRecord MakeCompensation(const LogRecord& undone) {
  LogRecord clr;
  clr.type = LogRecordType::kClr;
  clr.txn_id = undone.txn_id;
  clr.system_txn = undone.system_txn;
  clr.undo_next_lsn = undone.prev_lsn;
  clr.object_id = undone.object_id;
  clr.key = undone.key;
  switch (undone.type) {
    case LogRecordType::kInsert:
      clr.clr_op = LogRecordType::kDelete;
      clr.before = undone.after;
      break;
    case LogRecordType::kDelete:
      clr.clr_op = LogRecordType::kInsert;
      clr.after = undone.before;
      break;
    case LogRecordType::kUpdate:
      clr.clr_op = LogRecordType::kUpdate;
      clr.before = undone.after;
      clr.after = undone.before;
      break;
    case LogRecordType::kIncrement: {
      // Logical undo: apply the inverse deltas. Never restores an image —
      // concurrent committed/uncommitted increments must survive.
      clr.clr_op = LogRecordType::kIncrement;
      clr.deltas.reserve(undone.deltas.size());
      for (const ColumnDelta& d : undone.deltas) {
        clr.deltas.push_back(ColumnDelta{d.column, d.delta.Negated()});
      }
      break;
    }
    default:
      IVDB_CHECK_MSG(false, "MakeCompensation: not a data record");
  }
  return clr;
}

}  // namespace ivdb
