#include "engine/database.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/coding.h"
#include "common/env.h"
#include "common/invariant.h"
#include "common/lock_order.h"
#include "common/logging.h"
#include "engine/snapshot.h"
#include "obs/trace.h"

namespace ivdb {

namespace {

// Key-range (next-key) locking resources live in the same lock namespace as
// row locks but cannot collide with them: ordered row-key encodings always
// start with 0x00/0x01 (the null flag), so gap resources use 0x02/0x03.
// Gap(k) protects the open interval below k, (predecessor(k), k).
std::string GapResource(const std::string& key) {
  return std::string("\x02") + key;
}
// The gap above the largest key ("end of file").
const char kEofGapResource[] = "\x03";

// The engine owns the unified registry; every component below receives it
// and registers its instruments there, so DumpMetrics() sees the whole
// engine at once.
LockManager::Options MakeLockOptions(const DatabaseOptions& options,
                                     obs::MetricsRegistry* registry) {
  LockManager::Options lock_options;
  lock_options.wait_timeout = options.lock_wait_timeout;
  lock_options.detect_deadlocks = options.detect_deadlocks;
  lock_options.escalation_threshold = options.lock_escalation_threshold;
  lock_options.metrics = registry;
  return lock_options;
}

obs::FlightRecorder::Options MakeFlightOptions(const DatabaseOptions& options,
                                               Clock* clock) {
  obs::FlightRecorder::Options flight_options;
  flight_options.events_per_thread = options.flight_recorder_events;
  flight_options.clock = clock;
  return flight_options;
}

// Pins the transaction as "owner busy" for the duration of one engine entry
// point. The stuck-transaction watchdog only reaps transactions whose owner
// latch it can take without blocking, so a transaction is never aborted out
// from under a running statement — only between statements, when the owner
// has genuinely gone idle. Rank 5, outermost; see lock_order.h.
class OwnerGuard {
 public:
  explicit OwnerGuard(Transaction* txn) : guard_(&txn->owner_mu()) {}

  OwnerGuard(const OwnerGuard&) = delete;
  OwnerGuard& operator=(const OwnerGuard&) = delete;

 private:
  MutexLock guard_;
};

// Entry-point gate, checked under the owner latch: a transaction the
// watchdog (or a previous failure path) already finished must not run
// further statements. kAborted carries RequiresRollback(), steering callers
// — and RunTransaction — into the abort-and-retry path.
Status CheckStillActive(Transaction* txn) {
  if (txn->state() != TxnState::kActive) {
    return Status::Aborted("transaction " + std::to_string(txn->id()) +
                           " is no longer active (aborted by the watchdog "
                           "or a prior failure)");
  }
  return Status::OK();
}

}  // namespace

Database::Database(DatabaseOptions options)
    : options_(std::move(options)),
      env_(options_.env != nullptr ? options_.env : Env::Default()),
      version_entries_gauge_(
          registry_.GetGauge("ivdb_storage_version_entries")),
      degraded_gauge_(registry_.GetGauge("ivdb_engine_degraded")),
      txn_retries_(registry_.GetCounter("ivdb_txn_retries_total")),
      txn_retry_exhausted_(
          registry_.GetCounter("ivdb_txn_retry_exhausted_total")),
      clock_(options_.clock != nullptr ? options_.clock : Clock::Default()),
      version_chain_max_gauge_(
          registry_.GetGauge("ivdb_storage_version_chain_max")),
      version_chain_p99_gauge_(
          registry_.GetGauge("ivdb_storage_version_chain_p99")),
      flight_(MakeFlightOptions(options_, clock_)),
      locks_(MakeLockOptions(options_, &registry_)) {
  ckpt_total_ = registry_.GetCounter("ivdb_ckpt_total");
  ckpt_duration_ = registry_.GetHistogram("ivdb_ckpt_duration_micros");
  ckpt_capture_stall_ =
      registry_.GetHistogram("ivdb_ckpt_capture_stall_micros");
  ckpt_phase_rotate_ = registry_.GetHistogram(
      obs::WithLabel("ivdb_ckpt_phase_micros", "phase", "rotate"));
  ckpt_phase_capture_ = registry_.GetHistogram(
      obs::WithLabel("ivdb_ckpt_phase_micros", "phase", "capture"));
  ckpt_phase_build_ = registry_.GetHistogram(
      obs::WithLabel("ivdb_ckpt_phase_micros", "phase", "build"));
  ckpt_phase_write_ = registry_.GetHistogram(
      obs::WithLabel("ivdb_ckpt_phase_micros", "phase", "write"));
  ckpt_phase_retire_ = registry_.GetHistogram(
      obs::WithLabel("ivdb_ckpt_phase_micros", "phase", "retire"));
  recovery_segment_micros_ =
      registry_.GetHistogram("ivdb_recovery_segment_micros");
  build_started_ = registry_.GetCounter("ivdb_view_build_started_total");
  build_committed_ = registry_.GetCounter("ivdb_view_build_committed_total");
  build_abandoned_ = registry_.GetCounter("ivdb_view_build_abandoned_total");
  build_gc_ = registry_.GetCounter("ivdb_view_build_gc_total");
  build_barrier_timeouts_ =
      registry_.GetCounter("ivdb_view_build_barrier_timeouts_total");
  build_catchup_rounds_ =
      registry_.GetCounter("ivdb_view_build_catchup_rounds_total");
  build_active_gauge_ = registry_.GetGauge("ivdb_view_build_active");
  build_lag_gauge_ = registry_.GetGauge("ivdb_view_build_catchup_lag_bytes");
  build_phase_scan_ = registry_.GetHistogram(
      obs::WithLabel("ivdb_view_build_phase_micros", "phase", "scan"));
  build_phase_catchup_ = registry_.GetHistogram(
      obs::WithLabel("ivdb_view_build_phase_micros", "phase", "catchup"));
  build_phase_barrier_ = registry_.GetHistogram(
      obs::WithLabel("ivdb_view_build_phase_micros", "phase", "barrier"));
  build_phase_flip_ = registry_.GetHistogram(
      obs::WithLabel("ivdb_view_build_phase_micros", "phase", "flip"));
  LogManagerOptions log_options;
  log_options.dir = options_.dir;
  log_options.segment_bytes = options_.wal_segment_bytes;
  log_options.env = env_;
  log_options.sync = options_.sync;
  log_options.flush_delay_micros = options_.flush_delay_micros;
  log_options.group_commit_window_micros =
      options_.group_commit_window_micros;
  log_options.dedicated_writer = options_.commit_pipeline;
  log_options.staging_shards = options_.wal_staging_shards;
  // The adaptive batching window regrows from the configured group-commit
  // window and may stretch to 2x under sustained commit load. The cap is
  // deliberately tight: the window only has to assemble the convoy of
  // committers released by the previous batch — stragglers arriving later
  // are accumulated by the fsync itself — so a window anywhere near the
  // device latency just adds a full sleep to every batch cycle.
  log_options.batch_window_min_micros = options_.group_commit_window_micros;
  log_options.batch_window_max_micros =
      2 * options_.group_commit_window_micros;
  log_options.metrics = &registry_;
  log_options.flight = &flight_;
  // Runs once, on the thread whose I/O failure poisoned the WAL, possibly
  // with WAL locks held: flip the gauge, drop a span marker into whatever
  // transaction that thread was serving, and write the black-box dump —
  // the flight snapshot takes only flight_mu_ (rank 83) and Env calls
  // (rank 90), both above every WAL rank, so the dump is lock-order-legal
  // even from under flush_mu_.
  log_options.on_poison = [this] {
    degraded_gauge_->Set(1);
    obs::EmitTrace(obs::TraceEventType::kEngineDegraded, 1, 0);
    flight_.EmitInstant(obs::FlightEventType::kDegraded, flight_.NowMicros(),
                        1);
    // An online view build in flight dies with the engine; stamp the dump
    // with the build-specific reason so the post-mortem starts at the
    // right subsystem. view_build_active_ is a lock-free atomic — this
    // callback can run under WAL locks, so it must not take any lock the
    // builder holds (the builder itself polls poisoned() at every phase
    // boundary and abandons the build like a crash would).
    WriteBlackboxDump(view_build_active_.load(std::memory_order_acquire)
                          ? "view_build"
                          : "degraded");
  };
  log_ = std::make_unique<LogManager>(std::move(log_options));
  TransactionManager::Options txn_options;
  txn_options.metrics = &registry_;
  txn_options.clock = clock_;
  txn_options.flight = &flight_;
  txn_options.trace_ring_capacity = options_.trace_ring_capacity;
  txn_options.max_active_txns = options_.max_active_txns;
  txn_options.admission_timeout_micros = options_.admission_timeout_micros;
  txn_options.max_txn_lifetime_micros = options_.max_txn_lifetime_micros;
  txns_ = std::make_unique<TransactionManager>(&locks_, log_.get(),
                                               &versions_, this, txn_options);
  gc_lag_gauge_ = registry_.GetGauge("ivdb_storage_gc_lag_micros");
  scan_cache_hits_gauge_ = registry_.GetGauge("ivdb_scan_cache_hits");
  scan_cache_misses_gauge_ = registry_.GetGauge("ivdb_scan_cache_misses");
  scan_cache_served_gauge_ =
      registry_.GetGauge("ivdb_scan_cache_served_scans");
  scan_cache_full_gauge_ = registry_.GetGauge("ivdb_scan_cache_full_scans");
  scan_cache_invalidations_gauge_ =
      registry_.GetGauge("ivdb_scan_cache_invalidations");
  if (options_.scan_cache) {
    // Installed before any transaction can exist; fires per committed dirty
    // key with the committer's visibility_mu_ held (rank 20 -> 33, legal)
    // and the commit timestamp not yet published — see
    // storage/scan_cache.h for why that ordering makes staleness precise.
    versions_.SetCommitHook([this](uint32_t object_id, const std::string& key,
                                   uint64_t visible_ts) {
      scan_cache_.Invalidate(object_id, key, visible_ts);
    });
  }
}

Database::~Database() {
  // Unhook the invariant-failure dump before tearing anything down (a late
  // assert must not walk a half-destroyed engine). Clears whichever
  // database registered last — fine, the hook is best-effort diagnostics.
  SetInvariantHook(nullptr, nullptr);
  // Simulated crash semantics: no implicit checkpoint, no implicit aborts.
  // Whatever the WAL says is what a reopened database will reconstruct.
  if (ckpt_thread_.joinable()) {
    {
      MutexLock guard(&ckpt_thread_mu_);
      ckpt_stop_ = true;
    }
    ckpt_thread_cv_.NotifyAll();
    ckpt_thread_.join();
  }
  if (gc_thread_.joinable()) {
    {
      MutexLock guard(&gc_thread_mu_);
      gc_stop_ = true;
    }
    gc_thread_cv_.NotifyAll();
    gc_thread_.join();
  }
  if (build_thread_.joinable()) build_thread_.join();
  ReaderMutexLock views_guard(&views_mu_);
  for (auto& [name, entry] : views_) {
    if (entry->cleaner != nullptr) entry->cleaner->Stop();
  }
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  if (!options.dir.empty()) {
    Env* env = options.env != nullptr ? options.env : Env::Default();
    IVDB_RETURN_NOT_OK(env->EnsureDirectory(options.dir));
  }
  std::unique_ptr<Database> db(new Database(std::move(options)));
  IVDB_RETURN_NOT_OK(db->log_->Open());
  IVDB_RETURN_NOT_OK(db->Recover());
  // From here an IVDB_ASSERT/IVDB_INVARIANT failure anywhere in the process
  // writes this engine's flight recorder next to its WAL before aborting.
  SetInvariantHook(&Database::InvariantBlackboxHook, db.get());
  if (!db->options_.dir.empty() && db->options_.checkpoint_wal_bytes > 0) {
    db->ckpt_thread_ = std::thread([raw = db.get()] {
      raw->CheckpointThreadLoop();
    });
  }
  if (db->options_.version_gc_interval_micros > 0) {
    db->gc_thread_ = std::thread([raw = db.get()] { raw->GcThreadLoop(); });
  }
  return db;
}

// ---------------------------------------------------------------------------
// Storage plumbing
// ---------------------------------------------------------------------------

BTree* Database::CreateIndex(ObjectId id) {
  WriterMutexLock guard(&indexes_mu_);
  auto& slot = indexes_[id];
  if (slot == nullptr) slot = std::make_unique<BTree>();
  return slot.get();
}

BTree* Database::GetIndex(ObjectId id) {
  ReaderMutexLock guard(&indexes_mu_);
  auto it = indexes_.find(id);
  return it == indexes_.end() ? nullptr : it->second.get();
}

void Database::DropIndex(ObjectId id) {
  {
    WriterMutexLock guard(&indexes_mu_);
    indexes_.erase(id);
  }
  scan_cache_.Evict(id);
}

Status Database::ApplyRedo(LogRecordType op_type, const LogRecord& rec) {
  BTree* tree = GetIndex(rec.object_id);
  if (tree == nullptr) {
    return Status::Corruption("redo references unknown object " +
                              std::to_string(rec.object_id));
  }
  switch (op_type) {
    case LogRecordType::kInsert:
      tree->Put(rec.key, rec.after);
      return Status::OK();
    case LogRecordType::kDelete:
      tree->Delete(rec.key);
      return Status::OK();
    case LogRecordType::kUpdate:
      tree->Put(rec.key, rec.after);
      return Status::OK();
    case LogRecordType::kIncrement:
      // Rollback compensations cancel the transaction's pending delta entry
      // at the same instant the physical undo lands (snapshot readers must
      // never see one without the other). During restart redo there is no
      // pending entry and this is a pure physical application.
      return versions_.ApplyIncrement(rec.object_id, rec.key, rec.deltas,
                                      rec.txn_id, /*create_pending=*/false,
                                      tree);
    default:
      return Status::Corruption("ApplyRedo on non-data record");
  }
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

Result<const TableInfo*> Database::CreateTable(const std::string& name,
                                               Schema schema,
                                               std::vector<int> key_columns) {
  IVDB_RETURN_NOT_OK(CheckWritable());
  {
    ReaderMutexLock guard(&views_mu_);
    if (views_.count(name) != 0) {
      return Status::AlreadyExists("a view named '" + name + "' exists");
    }
  }
  IVDB_ASSIGN_OR_RETURN(const TableInfo* info,
                        catalog_.CreateTable(name, std::move(schema),
                                             std::move(key_columns)));
  CreateIndex(info->id);
  if (!options_.dir.empty()) {
    IVDB_RETURN_NOT_OK(Checkpoint());
  }
  return info;
}

Status Database::RegisterView(ObjectId id, ViewDefinition def, bool populate) {
  IVDB_ASSIGN_OR_RETURN(const TableInfo* fact,
                        catalog_.GetTable(def.fact_table));
  std::optional<Schema> dim_schema;
  if (def.join.has_value()) {
    IVDB_ASSIGN_OR_RETURN(const TableInfo* dim,
                          catalog_.GetTable(def.join->dimension_table));
    // The dimension is probed on its primary key, which must be exactly the
    // join column; anything else would need secondary indexes.
    if (dim->key_columns.size() != 1) {
      return Status::NotSupported(
          "joined dimension table must have a single-column primary key");
    }
    if (def.join->fact_column < 0 ||
        static_cast<size_t>(def.join->fact_column) >=
            fact->schema.num_columns()) {
      return Status::InvalidArgument("join fact column out of range");
    }
    dim_schema = dim->schema;
  }
  Schema joined = JoinedSchema(
      fact->schema, dim_schema.has_value() ? &*dim_schema : nullptr);
  IVDB_RETURN_NOT_OK(def.Validate(joined));

  auto entry = std::make_unique<ViewEntry>();
  entry->info.id = id;
  entry->info.definition = def;

  ViewMaintainer::Options maintainer_options;
  maintainer_options.use_escrow = options_.use_escrow_locks;
  maintainer_options.metrics = &registry_;
  maintainer_options.clock = clock_;
  entry->maintainer = std::make_unique<ViewMaintainer>(
      def, id, fact->schema, dim_schema, this, &locks_, txns_.get(),
      &versions_, maintainer_options);
  entry->info.schema = entry->maintainer->view_schema();

  BTree* tree = CreateIndex(id);
  if (options_.scan_cache) scan_cache_.EnableObject(id);

  if (def.kind == ViewKind::kAggregate) {
    entry->ghost_lag_gauge = registry_.GetGauge(obs::WithLabel(
        "ivdb_ghost_last_pass_age_micros", "view", def.name));
    GhostCleaner::Options cleaner_options;
    cleaner_options.metrics = &registry_;
    cleaner_options.view_name = def.name;
    cleaner_options.clock = clock_;
    cleaner_options.flight = &flight_;
    cleaner_options.lag_gauge = entry->ghost_lag_gauge;
    entry->cleaner = std::make_unique<GhostCleaner>(
        id, def.CountColumnIndex(), this, &locks_, txns_.get(), &versions_,
        std::move(cleaner_options));
  }

  std::string view_name = def.name;
  ViewEntry* raw = entry.get();
  {
    WriterMutexLock guard(&views_mu_);
    if (views_.count(view_name) != 0) {
      return Status::AlreadyExists("view '" + view_name + "' exists");
    }
    if (def.join.has_value()) {
      dimension_tables_.insert(def.join->dimension_table);
    }
    views_[view_name] = std::move(entry);
  }

  if (populate) {
    std::map<std::string, Row> contents;
    Status s = raw->maintainer->Recompute(&contents);
    if (!s.ok()) {
      WriterMutexLock guard(&views_mu_);
      views_.erase(view_name);
      return s;
    }
    for (const auto& [key, row] : contents) {
      tree->Put(key, EncodeRow(row));
    }
  }

  if (options_.start_ghost_cleaner && raw->cleaner != nullptr) {
    raw->cleaner->Start(options_.ghost_cleaner_interval_micros);
  }
  return Status::OK();
}

Result<const ViewInfo*> Database::CreateIndexedView(ViewDefinition def) {
  IVDB_RETURN_NOT_OK(CheckWritable());
  if (catalog_.GetTable(def.name).ok()) {
    return Status::AlreadyExists("a table named '" + def.name + "' exists");
  }
  ObjectId id = catalog_.AllocateId();

  // Populate under a quiescent section so no base-table change can slip
  // between the initial computation and the first maintained transaction.
  txns_->BeginQuiesce();
  Status s = RegisterView(id, std::move(def), /*populate=*/true);
  txns_->EndQuiesce();
  IVDB_RETURN_NOT_OK(s);

  if (!options_.dir.empty()) {
    IVDB_RETURN_NOT_OK(Checkpoint());
  }
  ReaderMutexLock guard(&views_mu_);
  // Name lookup again: RegisterView moved `def`.
  for (const auto& [name, entry] : views_) {
    if (entry->info.id == id) return const_cast<const ViewInfo*>(&entry->info);
  }
  return Status::Corruption("view vanished after registration");
}

Result<const ViewInfo*> Database::GetView(const std::string& name) const {
  ReaderMutexLock guard(&views_mu_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view '" + name + "' not found");
  }
  return const_cast<const ViewInfo*>(&it->second->info);
}

std::vector<const ViewInfo*> Database::ListViews() const {
  ReaderMutexLock guard(&views_mu_);
  std::vector<const ViewInfo*> out;
  out.reserve(views_.size());
  for (const auto& [name, entry] : views_) {
    out.push_back(&entry->info);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Transaction* Database::Begin(ReadMode read_mode) {
  return txns_->Begin(read_mode);
}

Result<Transaction*> Database::BeginChecked(ReadMode read_mode) {
  if (read_mode == ReadMode::kLocking && log_->poisoned()) {
    return Status::Unavailable(
        "engine is degraded (read-only) after a WAL I/O failure; "
        "locking-mode transactions are not admitted");
  }
  Transaction* txn = txns_->Begin(read_mode, /*gated=*/true);
  if (txn == nullptr) {
    return Status::Busy("admission control: " +
                        std::to_string(options_.max_active_txns) +
                        " transactions already active");
  }
  return txn;
}

Status Database::RunTransaction(const RunTransactionOptions& options,
                                const std::function<Status(Transaction*)>& body,
                                RunTransactionResult* result) {
  Random rng(options.jitter_seed.has_value() ? *options.jitter_seed
                                             : UniqueJitterSeed());
  RunTransactionResult stats;
  const int max_attempts = std::max(1, options.max_attempts);
  Status status;
  for (int attempt = 1;; attempt++) {
    stats.attempts = attempt;
    Transaction* txn = nullptr;
    Result<Transaction*> begun = BeginChecked(options.read_mode);
    if (begun.ok()) {
      txn = begun.value();
      status = body(txn);
      if (status.ok()) status = Commit(txn);
    } else {
      status = begun.status();
    }
    if (status.ok()) {
      Forget(txn);
      break;
    }
    // kUnavailable is transient across restarts, not within this process:
    // the engine stays read-only until it is reopened, so sleeping and
    // retrying cannot help.
    bool retryable = status.RequiresRollback() ||
                     (status.IsTransient() && !status.IsUnavailable());
    bool retrying = retryable && attempt < max_attempts;
    uint64_t backoff =
        retrying ? RetryBackoffMicros(options, attempt, &rng) : 0;
    if (txn != nullptr) {
      if (retrying && txn->trace() != nullptr) {
        // Record the retry decision on the failing attempt's own span log,
        // before the descriptor goes away.
        obs::TraceScope scope(txn->trace());
        obs::EmitTrace(obs::TraceEventType::kTxnRetry,
                       static_cast<uint64_t>(attempt), backoff);
      }
      // Cleanup between attempts; `status` is the error the loop reacts to.
      if (txn->state() == TxnState::kActive) (void)Abort(txn);
      Forget(txn);
    }
    if (!retrying) {
      if (retryable) txn_retry_exhausted_->Add();
      break;
    }
    txn_retries_->Add();
    stats.backoff_micros_total += backoff;
    clock_->SleepMicros(backoff);
  }
  if (result != nullptr) *result = stats;
  return status;
}

Status Database::Commit(Transaction* txn) {
  OwnerGuard latch(txn);
  IVDB_RETURN_NOT_OK(CheckStillActive(txn));
  // Covers deferred view maintenance below; the TxnManager re-establishes
  // the scope for the WAL commit path itself.
  obs::TraceScope trace_scope(txn->trace());
  if (!txn->deferred_changes().empty()) {
    // Commit-time (deferred) maintenance: coalesce this transaction's
    // base-table changes per view, then apply. Failure here dooms the
    // transaction — partial maintenance must not commit.
    std::vector<std::pair<ViewMaintainer*, std::vector<DeferredChange>>> work;
    {
      ReaderMutexLock guard(&views_mu_);
      for (const auto& [name, entry] : views_) {
        std::vector<DeferredChange> batch;
        for (const DeferredChange& change : txn->deferred_changes()) {
          if (change.table_id == entry->info.definition.fact_table) {
            batch.push_back(change);
          }
        }
        if (!batch.empty()) {
          work.emplace_back(entry->maintainer.get(), std::move(batch));
        }
      }
    }
    for (auto& [maintainer, batch] : work) {
      Status s = maintainer->ApplyBatch(txn, batch);
      if (!s.ok()) {
        // Direct TxnManager call: the owner latch is already held and is
        // not recursive. The maintenance failure `s` is what dooms the
        // transaction; the abort is its cleanup.
        (void)txns_->Abort(txn);
        return s;
      }
    }
    txn->deferred_changes().clear();
  }
  Status s = txns_->Commit(txn);
  if (!s.ok() && log_->poisoned() && txn->state() == TxnState::kActive) {
    // The commit flush failed and degraded the engine. The COMMIT record
    // was never acknowledged durable and the version flip never happened
    // (commit protocol step 3 runs after the flush), so the transaction is
    // still fully pending: roll it back logically right here, ensuring no
    // unacknowledged write lingers in the state that degraded-mode readers
    // keep serving. The caller sees the original commit error. Note the
    // failed fsync does not prove the COMMIT record missed the disk —
    // restart recovery may still find it durable and replay the
    // transaction as committed (docs/ROBUSTNESS.md §2, "the failed-fsync
    // ambiguity"); the rollback here governs this process's state only,
    // and the caller must see the original commit error, not the abort's.
    (void)txns_->Abort(txn);
  }
  return s;
}

Status Database::Abort(Transaction* txn) {
  OwnerGuard latch(txn);
  // Idempotent under the watchdog: if the sweep (or a failure path inside
  // Commit) already finished this transaction, its effects are rolled back
  // and there is nothing left to do.
  if (txn->state() != TxnState::kActive) return Status::OK();
  return txns_->Abort(txn);
}

void Database::Forget(Transaction* txn) {
  // Rendezvous with any in-flight watchdog probe: once the latch has been
  // taken and released here, no sweeper still holds it, so the descriptor
  // (whose mutex this is) can be destroyed safely.
  {
    OwnerGuard latch(txn);
  }
  txns_->Forget(txn);
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

Status Database::CheckWritable() const {
  if (log_->poisoned()) {
    return Status::Unavailable(
        "engine is degraded (read-only) after a WAL I/O failure; reopen "
        "the database to recover");
  }
  return Status::OK();
}

Result<const SecondaryIndexInfo*> Database::CreateSecondaryIndex(
    const std::string& index_name, const std::string& table,
    const std::vector<std::string>& columns) {
  IVDB_RETURN_NOT_OK(CheckWritable());
  IVDB_ASSIGN_OR_RETURN(const TableInfo* info, catalog_.GetTable(table));
  {
    ReaderMutexLock guard(&views_mu_);
    if (views_.count(index_name) != 0) {
      return Status::AlreadyExists("a view named '" + index_name +
                                   "' exists");
    }
  }
  std::vector<int> column_indexes;
  column_indexes.reserve(columns.size());
  for (const std::string& name : columns) {
    int idx = info->schema.FindColumn(name);
    if (idx < 0) {
      return Status::InvalidArgument("no column '" + name + "' in '" +
                                     table + "'");
    }
    column_indexes.push_back(idx);
  }
  IVDB_ASSIGN_OR_RETURN(
      const SecondaryIndexInfo* index,
      catalog_.CreateSecondaryIndex(index_name, info->id,
                                    std::move(column_indexes)));
  BTree* tree = CreateIndex(index->id);

  // Backfill under a quiescent section, mirroring view population. Copy the
  // base rows out first: a Scan callback runs under the base tree's shared
  // latch, and putting into the index tree from inside it would nest two
  // same-rank latches (the one shape the lock-rank order cannot admit).
  txns_->BeginQuiesce();
  BTree* base = GetIndex(info->id);
  auto base_rows = base->ScanRange("", nullptr);
  Status status;
  for (const auto& [base_key, value] : base_rows) {
    Row row;
    status = DecodeRow(value, &row);
    if (!status.ok()) break;
    std::string entry_key =
        EncodeKey(row, index->columns) + EncodeKey(row, info->key_columns);
    Row pk_values;
    for (int c : info->key_columns) {
      pk_values.push_back(row[static_cast<size_t>(c)]);
    }
    tree->Put(entry_key, EncodeRow(pk_values));
  }
  txns_->EndQuiesce();
  IVDB_RETURN_NOT_OK(status);

  if (!options_.dir.empty()) {
    IVDB_RETURN_NOT_OK(Checkpoint());
  }
  return index;
}

Status Database::MaintainSecondaryIndexes(Transaction* txn,
                                          const TableInfo* info,
                                          const Row* old_row,
                                          const Row* new_row) {
  auto indexes = catalog_.ListSecondaryIndexes(info->id);
  if (indexes.empty()) return Status::OK();

  auto entry_key = [&](const SecondaryIndexInfo* index, const Row& row) {
    return EncodeKey(row, index->columns) +
           EncodeKey(row, info->key_columns);
  };
  auto pk_payload = [&](const Row& row) {
    Row pk_values;
    for (int c : info->key_columns) {
      pk_values.push_back(row[static_cast<size_t>(c)]);
    }
    return EncodeRow(pk_values);
  };

  for (const SecondaryIndexInfo* index : indexes) {
    std::string old_key, new_key;
    if (old_row != nullptr) old_key = entry_key(index, *old_row);
    if (new_row != nullptr) new_key = entry_key(index, *new_row);
    if (old_row != nullptr && new_row != nullptr && old_key == new_key) {
      continue;  // indexed columns unchanged
    }
    BTree* tree = GetIndex(index->id);
    if (old_row != nullptr) {
      std::string payload = pk_payload(*old_row);
      IVDB_RETURN_NOT_OK(
          txns_->LogDelete(txn, index->id, old_key, payload));
      IVDB_RETURN_NOT_OK(versions_.ApplyWithPendingWrite(
          index->id, old_key, payload, txn->id(), [&] {
            tree->Delete(old_key);
            return Status::OK();
          }));
    }
    if (new_row != nullptr) {
      std::string payload = pk_payload(*new_row);
      IVDB_RETURN_NOT_OK(
          txns_->LogInsert(txn, index->id, new_key, payload));
      IVDB_RETURN_NOT_OK(versions_.ApplyWithPendingWrite(
          index->id, new_key, std::nullopt, txn->id(), [&] {
            tree->Insert(new_key, payload);
            return Status::OK();
          }));
    }
  }
  return Status::OK();
}

Result<std::vector<Row>> Database::GetByIndex(
    Transaction* txn, const std::string& index_name,
    const std::vector<Value>& values) {
  OwnerGuard latch(txn);
  IVDB_RETURN_NOT_OK(CheckStillActive(txn));
  IVDB_ASSIGN_OR_RETURN(const SecondaryIndexInfo* index,
                        catalog_.GetSecondaryIndex(index_name));
  IVDB_ASSIGN_OR_RETURN(const TableInfo* info,
                        catalog_.GetTable(index->table_id));
  if (values.size() > index->columns.size()) {
    return Status::InvalidArgument("more values than indexed columns");
  }
  std::string prefix = EncodeKeyValues(values);
  std::string end = PrefixSuccessor(prefix);
  IVDB_ASSIGN_OR_RETURN(
      auto entries,
      ScanObject(txn, index->id, prefix, end.empty() ? nullptr : &end));

  std::vector<Row> rows;
  rows.reserve(entries.size());
  for (auto& [key, pk_values] : entries) {
    IVDB_ASSIGN_OR_RETURN(
        auto row, ReadRow(txn, info->id, EncodeKeyValues(pk_values)));
    // Entry and base row can only disagree transiently in kDirty mode.
    if (row.has_value()) rows.push_back(std::move(*row));
  }
  return rows;
}

Status Database::WithStatementAtomicity(Transaction* txn,
                                        const std::function<Status()>& body) {
  TransactionManager::Savepoint savepoint =
      TransactionManager::GetSavepoint(txn);
  Status s = body();
  if (!s.ok() && !s.RequiresRollback()) {
    // Statement atomicity: a failed statement (constraint violation,
    // escrow-bound rejection, duplicate view key, ...) must leave no
    // partial effects, while the transaction itself stays usable. Doomed
    // transactions (deadlock/timeout) skip this — the caller must Abort.
    IVDB_RETURN_NOT_OK(txns_->RollbackToSavepoint(txn, savepoint));
  }
  return s;
}

Status Database::MaintainViews(Transaction* txn, DeferredChange change) {
  if (options_.maintenance_timing == MaintenanceTiming::kDeferred &&
      !txn->is_system()) {
    txn->deferred_changes().push_back(std::move(change));
    return Status::OK();
  }
  std::vector<ViewMaintainer*> maintainers;
  {
    ReaderMutexLock guard(&views_mu_);
    for (const auto& [name, entry] : views_) {
      if (entry->info.definition.fact_table == change.table_id) {
        maintainers.push_back(entry->maintainer.get());
      }
    }
  }
  for (ViewMaintainer* m : maintainers) {
    IVDB_RETURN_NOT_OK(m->ApplyBaseChange(txn, change));
  }
  return Status::OK();
}

Status Database::Insert(Transaction* txn, const std::string& table,
                        const Row& row) {
  IVDB_RETURN_NOT_OK(CheckWritable());
  OwnerGuard latch(txn);
  IVDB_RETURN_NOT_OK(CheckStillActive(txn));
  IVDB_ASSIGN_OR_RETURN(const TableInfo* info, catalog_.GetTable(table));
  IVDB_RETURN_NOT_OK(info->schema.ValidateRow(row));
  {
    ReaderMutexLock guard(&views_mu_);
    if (dimension_tables_.count(info->id) != 0) {
      return Status::NotSupported(
          "DML on a dimension table referenced by an indexed view");
    }
  }
  obs::TraceScope trace_scope(txn->trace());
  return WithStatementAtomicity(txn, [&]() -> Status {
    std::string key = EncodeKey(row, info->key_columns);
    BTree* tree = GetIndex(info->id);

    IVDB_RETURN_NOT_OK(
        locks_.Lock(txn->id(), ResourceId::Object(info->id), LockMode::kIX));
    IVDB_RETURN_NOT_OK(
        locks_.Lock(txn->id(), ResourceId::Key(info->id, key), LockMode::kX));
    if (tree->Contains(key)) {
      return Status::AlreadyExists("duplicate primary key in '" + table +
                                   "'");
    }
    if (options_.scan_locking == ScanLockingMode::kKeyRange) {
      IVDB_RETURN_NOT_OK(LockGapsForWrite(txn, info->id, tree, key));
    }
    std::string value = EncodeRow(row);
    IVDB_RETURN_NOT_OK(txns_->LogInsert(txn, info->id, key, value));
    IVDB_RETURN_NOT_OK(versions_.ApplyWithPendingWrite(
        info->id, key, std::nullopt, txn->id(), [&] {
          tree->Insert(key, value);
          return Status::OK();
        }));

    IVDB_RETURN_NOT_OK(
        MaintainSecondaryIndexes(txn, info, /*old_row=*/nullptr, &row));

    DeferredChange change;
    change.table_id = info->id;
    change.op = DeferredChange::Op::kInsert;
    change.new_row = row;
    return MaintainViews(txn, std::move(change));
  });
}

Status Database::Update(Transaction* txn, const std::string& table,
                        const Row& row) {
  IVDB_RETURN_NOT_OK(CheckWritable());
  OwnerGuard latch(txn);
  IVDB_RETURN_NOT_OK(CheckStillActive(txn));
  IVDB_ASSIGN_OR_RETURN(const TableInfo* info, catalog_.GetTable(table));
  IVDB_RETURN_NOT_OK(info->schema.ValidateRow(row));
  {
    ReaderMutexLock guard(&views_mu_);
    if (dimension_tables_.count(info->id) != 0) {
      return Status::NotSupported(
          "DML on a dimension table referenced by an indexed view");
    }
  }
  obs::TraceScope trace_scope(txn->trace());
  return WithStatementAtomicity(txn, [&]() -> Status {
    std::string key = EncodeKey(row, info->key_columns);
    BTree* tree = GetIndex(info->id);

    IVDB_RETURN_NOT_OK(
        locks_.Lock(txn->id(), ResourceId::Object(info->id), LockMode::kIX));
    IVDB_RETURN_NOT_OK(
        locks_.Lock(txn->id(), ResourceId::Key(info->id, key), LockMode::kX));
    std::string before;
    if (!tree->Get(key, &before)) {
      return Status::NotFound("update target row not found in '" + table +
                              "'");
    }
    Row old_row;
    IVDB_RETURN_NOT_OK(DecodeRow(before, &old_row));
    std::string after = EncodeRow(row);
    if (before == after) return Status::OK();
    IVDB_RETURN_NOT_OK(txns_->LogUpdate(txn, info->id, key, before, after));
    IVDB_RETURN_NOT_OK(versions_.ApplyWithPendingWrite(
        info->id, key, before, txn->id(), [&] {
          tree->Update(key, after);
          return Status::OK();
        }));

    IVDB_RETURN_NOT_OK(MaintainSecondaryIndexes(txn, info, &old_row, &row));

    DeferredChange change;
    change.table_id = info->id;
    change.op = DeferredChange::Op::kUpdate;
    change.old_row = std::move(old_row);
    change.new_row = row;
    return MaintainViews(txn, std::move(change));
  });
}

Status Database::Delete(Transaction* txn, const std::string& table,
                        const std::vector<Value>& key_values) {
  IVDB_RETURN_NOT_OK(CheckWritable());
  OwnerGuard latch(txn);
  IVDB_RETURN_NOT_OK(CheckStillActive(txn));
  IVDB_ASSIGN_OR_RETURN(const TableInfo* info, catalog_.GetTable(table));
  {
    ReaderMutexLock guard(&views_mu_);
    if (dimension_tables_.count(info->id) != 0) {
      return Status::NotSupported(
          "DML on a dimension table referenced by an indexed view");
    }
  }
  obs::TraceScope trace_scope(txn->trace());
  return WithStatementAtomicity(txn, [&]() -> Status {
    std::string key = EncodeKeyValues(key_values);
    BTree* tree = GetIndex(info->id);

    IVDB_RETURN_NOT_OK(
        locks_.Lock(txn->id(), ResourceId::Object(info->id), LockMode::kIX));
    IVDB_RETURN_NOT_OK(
        locks_.Lock(txn->id(), ResourceId::Key(info->id, key), LockMode::kX));
    std::string before;
    if (!tree->Get(key, &before)) {
      return Status::NotFound("delete target row not found in '" + table +
                              "'");
    }
    if (options_.scan_locking == ScanLockingMode::kKeyRange) {
      IVDB_RETURN_NOT_OK(LockGapsForWrite(txn, info->id, tree, key));
    }
    Row old_row;
    IVDB_RETURN_NOT_OK(DecodeRow(before, &old_row));
    IVDB_RETURN_NOT_OK(txns_->LogDelete(txn, info->id, key, before));
    IVDB_RETURN_NOT_OK(versions_.ApplyWithPendingWrite(
        info->id, key, before, txn->id(), [&] {
          tree->Delete(key);
          return Status::OK();
        }));

    IVDB_RETURN_NOT_OK(
        MaintainSecondaryIndexes(txn, info, &old_row, /*new_row=*/nullptr));

    DeferredChange change;
    change.table_id = info->id;
    change.op = DeferredChange::Op::kDelete;
    change.old_row = std::move(old_row);
    return MaintainViews(txn, std::move(change));
  });
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

Result<std::optional<Row>> Database::ReadRow(Transaction* txn,
                                             ObjectId object_id,
                                             const std::string& key) {
  obs::TraceScope trace_scope(txn->trace());
  BTree* tree = GetIndex(object_id);
  if (tree == nullptr) return Status::NotFound("unknown object");

  auto decode = [](const std::string& value) -> Result<std::optional<Row>> {
    Row row;
    IVDB_RETURN_NOT_OK(DecodeRow(value, &row));
    return std::optional<Row>(std::move(row));
  };

  switch (txn->read_mode()) {
    case ReadMode::kLocking: {
      IVDB_RETURN_NOT_OK(
          locks_.Lock(txn->id(), ResourceId::Object(object_id), LockMode::kIS));
      IVDB_RETURN_NOT_OK(locks_.Lock(
          txn->id(), ResourceId::Key(object_id, key), LockMode::kS));
      std::string value;
      if (!tree->Get(key, &value)) return std::optional<Row>();
      return decode(value);
    }
    case ReadMode::kDirty: {
      std::string value;
      if (!tree->Get(key, &value)) return std::optional<Row>();
      return decode(value);
    }
    case ReadMode::kSnapshot: {
      std::optional<std::string> physical;
      VersionStore::SnapshotView view = versions_.GetAsOfConsistent(
          object_id, key, txn->begin_ts(), tree, &physical);
      std::optional<std::string> base =
          view.use_chain_value ? view.chain_value : std::move(physical);
      if (!base.has_value()) return std::optional<Row>();
      Row row;
      IVDB_RETURN_NOT_OK(DecodeRow(*base, &row));
      // Strip increments the snapshot must not see.
      for (const auto& deltas : view.subtract) {
        for (const ColumnDelta& d : deltas) {
          IVDB_RETURN_NOT_OK(row[d.column].AccumulateAdd(d.delta.Negated()));
        }
      }
      return std::optional<Row>(std::move(row));
    }
  }
  return Status::InvalidArgument("unknown read mode");
}

Status Database::LockGapsForWrite(Transaction* txn, ObjectId object_id,
                                  BTree* tree, const std::string& key) {
  // Inserting or deleting `key` changes the gap structure around it: the
  // writer must own the gap below the key's successor (which the write
  // splits or merges) and the gap below the key itself. A scanner holding
  // either in S blocks the write — that is exactly phantom protection.
  std::optional<std::string> successor = tree->Successor(key);
  std::string successor_gap = successor.has_value()
                                  ? GapResource(*successor)
                                  : std::string(kEofGapResource);
  IVDB_RETURN_NOT_OK(locks_.Lock(
      txn->id(), ResourceId::Key(object_id, successor_gap), LockMode::kX));
  return locks_.Lock(txn->id(),
                     ResourceId::Key(object_id, GapResource(key)),
                     LockMode::kX);
}

Result<std::vector<std::pair<std::string, Row>>> Database::ScanObject(
    Transaction* txn, ObjectId object_id, const std::string& begin,
    const std::string* end, bool key_range_eligible) {
  obs::TraceScope trace_scope(txn->trace());
  BTree* tree = GetIndex(object_id);
  if (tree == nullptr) return Status::NotFound("unknown object");
  std::vector<std::pair<std::string, Row>> out;
  std::optional<Slice> end_slice;
  if (end != nullptr) end_slice = Slice(*end);
  const Slice* end_ptr = end_slice.has_value() ? &*end_slice : nullptr;

  bool key_range =
      key_range_eligible && options_.scan_locking == ScanLockingMode::kKeyRange;

  switch (txn->read_mode()) {
    case ReadMode::kLocking:
      if (key_range) {
        // Next-key locking: IS on the object, then S on every row in the
        // range, the gap below each row, and the gap below the range's
        // upper boundary. Re-scan after locking: a writer may have slipped
        // a row in before our first boundary lock was granted.
        IVDB_RETURN_NOT_OK(locks_.Lock(
            txn->id(), ResourceId::Object(object_id), LockMode::kIS));
        while (true) {
          auto entries = tree->ScanRange(begin, end_ptr);
          for (auto& [key, value] : entries) {
            IVDB_RETURN_NOT_OK(locks_.Lock(
                txn->id(), ResourceId::Key(object_id, key), LockMode::kS));
            IVDB_RETURN_NOT_OK(
                locks_.Lock(txn->id(),
                            ResourceId::Key(object_id, GapResource(key)),
                            LockMode::kS));
          }
          // Upper boundary: the gap below the first key at/after the end.
          std::optional<std::string> boundary;
          if (end != nullptr) {
            boundary = tree->Contains(*end)
                           ? std::optional<std::string>(*end)
                           : tree->Successor(*end);
          }
          std::string boundary_gap = boundary.has_value()
                                         ? GapResource(*boundary)
                                         : std::string(kEofGapResource);
          IVDB_RETURN_NOT_OK(locks_.Lock(
              txn->id(), ResourceId::Key(object_id, boundary_gap),
              LockMode::kS));
          // Validate stability: locks held, so a second scan returning the
          // same keys proves no phantom slipped in during acquisition.
          auto check = tree->ScanRange(begin, end_ptr);
          if (check.size() == entries.size()) {
            bool same = true;
            for (size_t i = 0; i < check.size(); i++) {
              if (check[i].first != entries[i].first) {
                same = false;
                break;
              }
            }
            if (same) {
              out.reserve(entries.size());
              for (auto& [key, value] : check) {
                Row row;
                IVDB_RETURN_NOT_OK(DecodeRow(value, &row));
                out.emplace_back(std::move(key), std::move(row));
              }
              return out;
            }
          }
          // Contents moved under us; with the acquired locks now held the
          // next iteration stabilizes.
        }
      }
      // Object-level S: coarse but phantom-safe (see DESIGN.md §5b).
      IVDB_RETURN_NOT_OK(
          locks_.Lock(txn->id(), ResourceId::Object(object_id), LockMode::kS));
      [[fallthrough]];
    case ReadMode::kDirty: {
      auto entries = tree->ScanRange(begin, end_ptr);
      out.reserve(entries.size());
      for (auto& [key, value] : entries) {
        Row row;
        IVDB_RETURN_NOT_OK(DecodeRow(value, &row));
        out.emplace_back(std::move(key), std::move(row));
      }
      return out;
    }
    case ReadMode::kSnapshot: {
      // Read-optimized path: a FULL-object scan of a cache-enabled object
      // (an indexed view) is served from the last-committed-row cache, with
      // only the keys invalidated since our snapshot resolved through the
      // version store. On a cache miss the slow scan below runs and its
      // result seeds the cache for every later scan.
      const bool cacheable = options_.scan_cache && begin.empty() &&
                             end == nullptr &&
                             scan_cache_.ObjectEnabled(object_id);
      if (cacheable) {
        std::map<std::string, Row> cached;
        std::vector<ScanCache::StaleKey> stale;
        if (scan_cache_.BeginScan(object_id, txn->begin_ts(), &cached,
                                  &stale)) {
          for (const ScanCache::StaleKey& sk : stale) {
            std::optional<std::string> physical;
            VersionStore::SnapshotView view = versions_.GetAsOfConsistent(
                object_id, sk.key, txn->begin_ts(), tree, &physical);
            std::optional<std::string> value =
                view.use_chain_value ? view.chain_value : std::move(physical);
            bool present = value.has_value();
            Row row;
            if (present) {
              IVDB_RETURN_NOT_OK(DecodeRow(*value, &row));
              for (const auto& deltas : view.subtract) {
                for (const ColumnDelta& d : deltas) {
                  IVDB_RETURN_NOT_OK(
                      row[d.column].AccumulateAdd(d.delta.Negated()));
                }
              }
            }
            scan_cache_.Resolve(object_id, sk.key, sk.token, present, row);
            if (present) cached[sk.key] = std::move(row);
          }
          out.reserve(cached.size());
          for (auto& [key, row] : cached) {
            out.emplace_back(key, std::move(row));
          }
          return out;
        }
      }
      // Candidate keys: everything physically present plus keys only the
      // version store still knows about (deleted after our snapshot). Keys
      // that appear after this collection cannot be visible at our
      // timestamp, so missing them is correct.
      std::set<std::string> keys;
      tree->Scan(begin, end_ptr, [&keys](const Slice& key, const Slice&) {
        keys.insert(key.ToString());
        return true;
      });
      for (std::string& key : versions_.ListChainKeys(object_id)) {
        if (key < begin) continue;
        if (end != nullptr && !(key < *end)) continue;
        keys.insert(std::move(key));
      }
      for (const std::string& key : keys) {
        std::optional<std::string> physical;
        VersionStore::SnapshotView view = versions_.GetAsOfConsistent(
            object_id, key, txn->begin_ts(), tree, &physical);
        std::optional<std::string> value =
            view.use_chain_value ? view.chain_value : std::move(physical);
        if (!value.has_value()) continue;
        Row row;
        IVDB_RETURN_NOT_OK(DecodeRow(*value, &row));
        for (const auto& deltas : view.subtract) {
          for (const ColumnDelta& d : deltas) {
            IVDB_RETURN_NOT_OK(
                row[d.column].AccumulateAdd(d.delta.Negated()));
          }
        }
        out.emplace_back(key, std::move(row));
      }
      // First full scan of a cacheable object populates the cache (first
      // publish wins; concurrent scanners race benignly).
      if (cacheable) scan_cache_.Publish(object_id, txn->begin_ts(), out);
      return out;
    }
  }
  return Status::InvalidArgument("unknown read mode");
}

Result<std::optional<Row>> Database::Get(Transaction* txn,
                                         const std::string& table,
                                         const std::vector<Value>& key) {
  OwnerGuard latch(txn);
  IVDB_RETURN_NOT_OK(CheckStillActive(txn));
  IVDB_ASSIGN_OR_RETURN(const TableInfo* info, catalog_.GetTable(table));
  return ReadRow(txn, info->id, EncodeKeyValues(key));
}

Result<std::vector<Row>> Database::ScanTable(Transaction* txn,
                                             const std::string& table) {
  OwnerGuard latch(txn);
  IVDB_RETURN_NOT_OK(CheckStillActive(txn));
  IVDB_ASSIGN_OR_RETURN(const TableInfo* info, catalog_.GetTable(table));
  IVDB_ASSIGN_OR_RETURN(auto entries,
                        ScanObject(txn, info->id, "", nullptr,
                                   /*key_range_eligible=*/true));
  std::vector<Row> rows;
  rows.reserve(entries.size());
  for (auto& [key, row] : entries) rows.push_back(std::move(row));
  return rows;
}

Result<std::vector<Row>> Database::ScanTableRange(
    Transaction* txn, const std::string& table, const std::vector<Value>& low,
    const std::vector<Value>& high) {
  OwnerGuard latch(txn);
  IVDB_RETURN_NOT_OK(CheckStillActive(txn));
  IVDB_ASSIGN_OR_RETURN(const TableInfo* info, catalog_.GetTable(table));
  std::string begin = EncodeKeyValues(low);
  std::string end;
  if (!high.empty()) end = EncodeKeyValues(high);
  IVDB_ASSIGN_OR_RETURN(
      auto entries,
      ScanObject(txn, info->id, begin, high.empty() ? nullptr : &end,
                 /*key_range_eligible=*/true));
  std::vector<Row> rows;
  rows.reserve(entries.size());
  for (auto& [key, row] : entries) rows.push_back(std::move(row));
  return rows;
}

Result<std::optional<Row>> Database::GetViewRow(
    Transaction* txn, const std::string& view,
    const std::vector<Value>& group) {
  OwnerGuard latch(txn);
  IVDB_RETURN_NOT_OK(CheckStillActive(txn));
  IVDB_ASSIGN_OR_RETURN(const ViewInfo* info, GetView(view));
  IVDB_ASSIGN_OR_RETURN(auto row,
                        ReadRow(txn, info->id, EncodeKeyValues(group)));
  if (!row.has_value()) return std::optional<Row>();
  if (info->definition.kind == ViewKind::kAggregate) {
    const Row& stored = *row;
    if (stored[info->definition.CountColumnIndex()].AsInt64() == 0) {
      return std::optional<Row>();  // ghost: logically absent
    }
    return std::optional<Row>(FinalizeViewRow(info->definition, stored));
  }
  return row;
}

Result<std::vector<Row>> Database::FinalizeViewScan(
    const ViewInfo* info,
    std::vector<std::pair<std::string, Row>> entries) const {
  std::vector<Row> rows;
  rows.reserve(entries.size());
  for (auto& [key, row] : entries) {
    if (info->definition.kind == ViewKind::kAggregate) {
      if (row[info->definition.CountColumnIndex()].AsInt64() == 0) continue;
      rows.push_back(FinalizeViewRow(info->definition, row));
    } else {
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

Result<std::vector<Row>> Database::ScanView(Transaction* txn,
                                            const std::string& view) {
  OwnerGuard latch(txn);
  IVDB_RETURN_NOT_OK(CheckStillActive(txn));
  IVDB_ASSIGN_OR_RETURN(const ViewInfo* info, GetView(view));
  IVDB_ASSIGN_OR_RETURN(auto entries, ScanObject(txn, info->id));
  return FinalizeViewScan(info, std::move(entries));
}

Result<std::vector<Row>> Database::ScanViewRange(
    Transaction* txn, const std::string& view, const std::vector<Value>& low,
    const std::vector<Value>& high) {
  OwnerGuard latch(txn);
  IVDB_RETURN_NOT_OK(CheckStillActive(txn));
  IVDB_ASSIGN_OR_RETURN(const ViewInfo* info, GetView(view));
  std::string begin = EncodeKeyValues(low);
  std::string end;
  if (!high.empty()) end = EncodeKeyValues(high);
  IVDB_ASSIGN_OR_RETURN(
      auto entries,
      ScanObject(txn, info->id, begin, high.empty() ? nullptr : &end));
  return FinalizeViewScan(info, std::move(entries));
}

Result<Database::ViewRowBounds> Database::GetViewRowBounds(
    const std::string& view, const std::vector<Value>& group) {
  IVDB_ASSIGN_OR_RETURN(const ViewInfo* info, GetView(view));
  if (info->definition.kind != ViewKind::kAggregate) {
    return Status::InvalidArgument("bounds reads apply to aggregate views");
  }
  BTree* tree = GetIndex(info->id);
  const std::string key = EncodeKeyValues(group);

  // A snapshot at +infinity: the subtract list is exactly the pending
  // increments, and the physical value rides along atomically.
  std::optional<std::string> physical;
  VersionStore::SnapshotView now = versions_.GetAsOfConsistent(
      info->id, key, UINT64_MAX, tree, &physical);

  ViewRowBounds bounds;
  if (now.use_chain_value) {
    // A structural change (ghost creation/cleanup) is in flight; the
    // committed state is the chain value, and escrow uncertainty is nil
    // (E conflicts with the writer's X).
    if (!now.chain_value.has_value()) return bounds;  // not created yet
    Row row;
    IVDB_RETURN_NOT_OK(DecodeRow(*now.chain_value, &row));
    bounds.exists = true;
    bounds.low = row;
    bounds.high = std::move(row);
    return bounds;
  }
  if (!physical.has_value()) return bounds;

  Row base;
  IVDB_RETURN_NOT_OK(DecodeRow(*physical, &base));
  bounds.exists = true;
  bounds.low = base;
  bounds.high = std::move(base);
  // Each pending transaction may abort, removing its (already applied)
  // contribution: positive pending deltas pull the low bound down, negative
  // ones push the high bound up.
  for (const auto& deltas : now.subtract) {
    for (const ColumnDelta& d : deltas) {
      if (d.delta.is_null()) continue;
      bool positive = d.delta.type() == TypeId::kInt64
                          ? d.delta.AsInt64() > 0
                          : d.delta.AsNumeric() > 0;
      Row& side = positive ? bounds.low : bounds.high;
      IVDB_RETURN_NOT_OK(side[d.column].AccumulateAdd(d.delta.Negated()));
    }
  }
  return bounds;
}

// ---------------------------------------------------------------------------
// Durability: checkpoint + recovery
// ---------------------------------------------------------------------------

Status Database::FlushWal() { return log_->Flush(log_->last_lsn()); }

// One index's contents as of `as_of_ts`, via the same MVCC resolution the
// kSnapshot scan path uses: candidate keys from the physical tree plus keys
// only the version store still knows about, each resolved with
// GetAsOfConsistent and stripped of unflipped transactions' pending deltas.
// No ghost filtering — increment redo is not idempotent and replays against
// these base rows. Rows without pending deltas are copied without a
// decode/re-encode round trip, so non-Row payloads (secondary-index
// entries) pass through byte-identical.
Status Database::BuildIndexImage(ObjectId object_id, uint64_t as_of_ts,
                                 std::string* payload) {
  BTree* tree = GetIndex(object_id);
  if (tree == nullptr) return Status::OK();
  std::set<std::string> keys;
  tree->Scan("", nullptr, [&keys](const Slice& key, const Slice&) {
    keys.insert(key.ToString());
    return true;
  });
  for (std::string& key : versions_.ListChainKeys(object_id)) {
    keys.insert(std::move(key));
  }
  BTree image_tree;
  for (const std::string& key : keys) {
    std::optional<std::string> physical;
    VersionStore::SnapshotView view = versions_.GetAsOfConsistent(
        object_id, key, as_of_ts, tree, &physical);
    std::optional<std::string> value =
        view.use_chain_value ? view.chain_value : std::move(physical);
    if (!value.has_value()) continue;
    if (!view.subtract.empty()) {
      Row row;
      IVDB_RETURN_NOT_OK(DecodeRow(*value, &row));
      for (const auto& deltas : view.subtract) {
        for (const ColumnDelta& d : deltas) {
          IVDB_RETURN_NOT_OK(row[d.column].AccumulateAdd(d.delta.Negated()));
        }
      }
      value = EncodeRow(row);
    }
    image_tree.Put(key, *value);
  }
  image_tree.SerializeTo(payload);
  return Status::OK();
}

Status Database::Checkpoint() {
  IVDB_RETURN_NOT_OK(CheckWritable());
  if (options_.dir.empty()) return Status::OK();
  MutexLock serial(&checkpoint_mu_);
  const uint64_t start_micros = clock_->NowMicros();

  // Seal the open segment first: every segment sealed before the capture
  // then ends at or below the capture's WAL high-water mark, so once the
  // image publishes the whole prefix below the redo horizon can retire.
  IVDB_RETURN_NOT_OK(log_->RotateNow());

  // Short snapshot-acquire critical section — the only window this
  // checkpoint can stall committers for.
  const uint64_t capture_start = clock_->NowMicros();
  TransactionManager::CheckpointCapture cap = txns_->CaptureCheckpoint();
  const uint64_t capture_end = clock_->NowMicros();
  ckpt_capture_stall_->Record(capture_end - capture_start);
  ckpt_phase_rotate_->Record(capture_start - start_micros);
  ckpt_phase_capture_->Record(capture_end - capture_start);
  flight_.Emit(obs::FlightEventType::kCkptRotate, start_micros,
               capture_start - start_micros, cap.checkpoint_lsn);
  flight_.Emit(obs::FlightEventType::kCkptCapture, capture_start,
               capture_end - capture_start, cap.checkpoint_lsn,
               cap.capture_ts);

  Status s = [&]() -> Status {
    obs::TraceScope scope(cap.reader->trace());
    SnapshotImage image;
    image.checkpoint_lsn = cap.checkpoint_lsn;
    image.capture_ts = cap.capture_ts;
    image.redo_start_lsn = cap.redo_start_lsn;
    image.active_txns = cap.active_txns;
    // capture_ts dominates every timestamp a skipped (flipped-before-
    // capture) record can carry; recovery re-raises the clock past the
    // timestamps of everything it replays.
    image.clock_ts = cap.capture_ts;
    image.next_txn_id = txns_->PeekNextTxnId();

    for (const TableInfo* t : catalog_.ListTables()) {
      SnapshotImage::TableImage ti;
      ti.id = t->id;
      ti.name = t->name;
      ti.schema = t->schema;
      ti.key_columns = t->key_columns;
      image.tables.push_back(std::move(ti));
    }
    {
      ReaderMutexLock guard(&views_mu_);
      for (const auto& [name, entry] : views_) {
        SnapshotImage::ViewImage vi;
        vi.id = entry->info.id;
        vi.def = entry->info.definition;
        image.views.push_back(std::move(vi));
      }
    }
    for (const SecondaryIndexInfo* idx :
         catalog_.ListAllSecondaryIndexes()) {
      image.secondary_indexes.push_back(*idx);
    }
    // In-flight (and not-yet-GC'd abandoned) online view builds. Their
    // start markers may fall below this image's replay horizon, so the
    // image itself must carry the build records for recovery's resolution
    // pass — and for ivdb_dump's in-flight-build listing. A build can
    // never be mid-flip here: the flip holds checkpoint_mu_ for its whole
    // critical section.
    image.view_builds = catalog_.ListViewBuilds();
    // Index contents: MVCC snapshot reads as-of capture_ts, taken while
    // commits keep flowing. cap.reader pins the version-store GC horizon
    // at capture_ts for the duration of the build.
    std::vector<ObjectId> object_ids;
    {
      ReaderMutexLock guard(&indexes_mu_);
      object_ids.reserve(indexes_.size());
      for (const auto& [id, tree] : indexes_) object_ids.push_back(id);
    }
    for (ObjectId id : object_ids) {
      std::string tree_payload;
      IVDB_RETURN_NOT_OK(
          BuildIndexImage(id, cap.capture_ts, &tree_payload));
      image.indexes.emplace_back(id, std::move(tree_payload));
    }
    const uint64_t build_end = clock_->NowMicros();
    ckpt_phase_build_->Record(build_end - capture_end);
    flight_.Emit(obs::FlightEventType::kCkptBuild, capture_end,
                 build_end - capture_end, cap.checkpoint_lsn,
                 image.indexes.size());

    IVDB_RETURN_NOT_OK(log_->Flush(cap.checkpoint_lsn));
    std::string encoded;
    IVDB_RETURN_NOT_OK(EncodeSnapshot(image, &encoded));
    Status write_status =
        env_->WriteStringToFileAtomic(CheckpointPath(), encoded);
    if (!write_status.ok()) {
      // The atomic replace failed mid-checkpoint. The old checkpoint file
      // is intact, but continuing to run would eventually retire or
      // outgrow the WAL with no way to take a new snapshot — degrade now,
      // while the on-disk pair (old checkpoint + full WAL) is still a
      // consistent recovery point.
      log_->Poison();
      return write_status;
    }
    const uint64_t write_end = clock_->NowMicros();
    ckpt_phase_write_->Record(write_end - build_end);
    flight_.Emit(obs::FlightEventType::kCkptWrite, build_end,
                 write_end - build_end, cap.checkpoint_lsn, encoded.size());
    // Published. Segments wholly below the redo horizon are dead; a failed
    // retirement is not poisonous — recovery filters everything below the
    // horizon, so a lingering segment is only disk waste until the next
    // checkpoint retries.
    const size_t segments_before = log_->SegmentCount();
    (void)log_->RetireSegmentsBelow(cap.redo_start_lsn);
    const size_t segments_after = log_->SegmentCount();
    ckpt_total_->Add(1);
    // One clock read closes both the retire phase and the whole checkpoint,
    // so the five phases partition ckpt_duration exactly.
    const uint64_t retire_end = clock_->NowMicros();
    const uint64_t took_micros = retire_end - start_micros;
    ckpt_phase_retire_->Record(retire_end - write_end);
    flight_.Emit(obs::FlightEventType::kCkptRetire, write_end,
                 retire_end - write_end, cap.checkpoint_lsn,
                 segments_before - segments_after);
    ckpt_duration_->Record(took_micros);
    obs::EmitTrace(obs::TraceEventType::kCheckpoint, cap.checkpoint_lsn,
                   took_micros);
    return Status::OK();
  }();
  txns_->ReleaseCheckpointReader(cap.reader);
  // Ghost cleanup piggybacks on the checkpoint cadence: every successful
  // fuzzy checkpoint is followed by one batched cleanup pass (system
  // transactions, outside the capture section, so image consistency and
  // commit flow are untouched). Best-effort — a cleanup failure does not
  // fail the checkpoint that already published.
  if (s.ok() && options_.ghost_cleanup_on_checkpoint) (void)CleanGhosts();
  return s;
}

void Database::CheckpointThreadLoop() {
  flight_.SetThreadName("checkpointer");
  UniqueMutexLock lock(&ckpt_thread_mu_);
  while (!ckpt_stop_) {
    ckpt_thread_cv_.WaitFor(&lock, std::chrono::milliseconds(10));
    if (ckpt_stop_) break;
    const uint64_t appended = log_->appended_bytes();
    if (appended - ckpt_last_bytes_ < options_.checkpoint_wal_bytes) {
      continue;
    }
    lock.Unlock();
    // Bytes appended while this checkpoint runs count toward the next one.
    Status s = Checkpoint();
    lock.Lock();
    if (s.ok()) ckpt_last_bytes_ = appended;
    // Degraded/unavailable: stay parked until the next wakeup; the gate in
    // Checkpoint() keeps this loop harmless once the engine is read-only.
  }
}

Status Database::RestoreFromImage(const SnapshotImage& image) {
  for (const auto& t : image.tables) {
    TableInfo info;
    info.id = t.id;
    info.name = t.name;
    info.schema = t.schema;
    info.key_columns = t.key_columns;
    IVDB_RETURN_NOT_OK(catalog_.RestoreTable(std::move(info)));
  }
  for (const auto& [id, payload] : image.indexes) {
    BTree* tree = CreateIndex(id);
    Slice input(payload);
    IVDB_RETURN_NOT_OK(tree->DeserializeFrom(&input));
  }
  for (const auto& v : image.views) {
    catalog_.AdvancePastId(v.id);
    IVDB_RETURN_NOT_OK(RegisterView(v.id, v.def, /*populate=*/false));
  }
  for (const SecondaryIndexInfo& idx : image.secondary_indexes) {
    IVDB_RETURN_NOT_OK(catalog_.RestoreSecondaryIndex(idx));
    CreateIndex(idx.id);  // contents came with image.indexes above
  }
  for (const ViewBuildState& b : image.view_builds) {
    // Builds in flight at capture. Recovery's resolution pass decides their
    // fate: committed (a later kViewBuildCommit replays) flips the view
    // live, everything else is GC'd as abandoned.
    IVDB_RETURN_NOT_OK(catalog_.RegisterViewBuild(b));
  }
  txns_->AdvancePast(image.next_txn_id, image.clock_ts);
  return Status::OK();
}

Status Database::Recover() {
  if (options_.dir.empty()) return Status::OK();

  // A crash inside an atomic file replace can strand a half-written
  // `*.tmp` file; it was never renamed into place, so its contents are
  // garbage by definition. Sweep before reading anything.
  IVDB_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                        env_->ListDirectory(options_.dir));
  for (const std::string& name : entries) {
    if (name.size() >= 4 &&
        name.compare(name.size() - 4, 4, ".tmp") == 0) {
      IVDB_RETURN_NOT_OK(env_->RemoveFileIfExists(options_.dir + "/" + name));
    }
  }

  Lsn checkpoint_lsn = kInvalidLsn;
  std::set<TxnId> image_excluded;
  if (env_->FileExists(CheckpointPath())) {
    std::string contents;
    IVDB_RETURN_NOT_OK(env_->ReadFileToString(CheckpointPath(), &contents));
    SnapshotImage image;
    IVDB_RETURN_NOT_OK(DecodeSnapshot(contents, &image));
    IVDB_RETURN_NOT_OK(RestoreFromImage(image));
    checkpoint_lsn = image.checkpoint_lsn;
    image_excluded.insert(image.active_txns.begin(),
                          image.active_txns.end());
  }

  // Parallel redo pipeline: segments are decoded and CRC-checked
  // concurrently, then applied below in strict LSN order.
  std::vector<LogRecord> records;
  std::vector<LogManager::SegmentReadStats> segment_stats;
  IVDB_RETURN_NOT_OK(LogManager::ReadLog(options_.dir, &records, env_,
                                         options_.recovery_threads,
                                         &segment_stats));
  for (const LogManager::SegmentReadStats& st : segment_stats) {
    recovery_segment_micros_->Record(st.micros);
    // Spans are re-anchored at emission time (the decode ran on unnamed
    // pool threads with no Clock-seam start stamp of their own).
    const uint64_t now = flight_.NowMicros();
    flight_.Emit(obs::FlightEventType::kRecoverySegment,
                 now > st.micros ? now - st.micros : 0, st.micros, st.seqno,
                 st.records);
  }

  // A fuzzy image holds every flipped transaction's effects up to
  // checkpoint_lsn; transactions in flight at capture are excluded from it
  // and their records must replay even at or below the checkpoint LSN.
  auto skip_record = [&](const LogRecord& rec) {
    return rec.lsn <= checkpoint_lsn &&
           image_excluded.count(rec.txn_id) == 0;
  };

  // --- Analysis: transaction outcomes + chain index. ---
  struct TxnEntry {
    Lsn last_lsn = kInvalidLsn;
    bool committed = false;
    bool ended = false;
    bool system = false;
  };
  std::map<TxnId, TxnEntry> txn_table;
  std::map<Lsn, const LogRecord*> by_lsn;
  Lsn max_lsn = checkpoint_lsn;
  TxnId max_txn = 0;
  uint64_t max_ts = 0;

  for (const LogRecord& rec : records) {
    if (rec.type == LogRecordType::kViewBuildStart ||
        rec.type == LogRecordType::kViewBuildCommit) {
      // Engine-level build markers: no transaction behind them, so they
      // must not enter the loser table — but their LSNs and timestamps
      // still bound post-restart allocation.
      max_lsn = std::max(max_lsn, rec.lsn);
      max_ts = std::max(max_ts, rec.timestamp);
      continue;
    }
    if (skip_record(rec)) continue;
    max_lsn = std::max(max_lsn, rec.lsn);
    max_txn = std::max(max_txn, rec.txn_id);
    max_ts = std::max(max_ts, rec.timestamp);
    by_lsn[rec.lsn] = &rec;
    TxnEntry& entry = txn_table[rec.txn_id];
    entry.last_lsn = rec.lsn;
    entry.system = rec.system_txn;
    if (rec.type == LogRecordType::kCommit) entry.committed = true;
    if (rec.type == LogRecordType::kEnd) entry.ended = true;
  }
  log_->AdvancePastLsn(max_lsn);
  txns_->AdvancePast(max_txn, max_ts);

  // --- Online view builds: reconstruct the build table (checkpoint image
  //     + start markers above the image's horizon) and create each build's
  //     scratch index so redo of the flip transaction's records has a
  //     target. A marker at or below checkpoint_lsn needs no handling: the
  //     build was either still alive at capture (its record rode the
  //     image) or already resolved before it. ---
  std::map<ObjectId, ViewBuildState> builds;
  for (const ViewBuildState& b : catalog_.ListViewBuilds()) {
    builds[b.id] = b;
    CreateIndex(b.id);
  }
  std::set<ObjectId> committed_builds;
  for (const LogRecord& rec : records) {
    if (rec.type == LogRecordType::kViewBuildStart &&
        rec.lsn > checkpoint_lsn) {
      ViewBuildState b;
      b.id = static_cast<ObjectId>(rec.object_id);
      b.name = rec.key;
      b.encoded_def = rec.after;
      b.start_lsn = rec.lsn;
      b.replay_lsn = rec.undo_next_lsn;
      b.start_ts = rec.timestamp;
      b.phase = ViewBuildState::Phase::kAbandoned;  // until a commit marker
      CreateIndex(b.id);
      if (builds.emplace(b.id, b).second) {
        IVDB_RETURN_NOT_OK(catalog_.RegisterViewBuild(b));
      }
    } else if (rec.type == LogRecordType::kViewBuildCommit &&
               rec.lsn > checkpoint_lsn) {
      committed_builds.insert(static_cast<ObjectId>(rec.object_id));
    }
  }

  // --- Redo: replay history (including compensations) from the snapshot
  //     base. Logical redo is deterministic and exact from the image:
  //     flipped transactions' effects are already in it (their records are
  //     skipped), in-flight transactions' effects are excluded from it
  //     (their records replay from the begin floor up). ---
  for (const LogRecord& rec : records) {
    if (skip_record(rec)) continue;
    switch (rec.type) {
      case LogRecordType::kInsert:
      case LogRecordType::kDelete:
      case LogRecordType::kUpdate:
      case LogRecordType::kIncrement:
        IVDB_RETURN_NOT_OK(ApplyRedo(rec.type, rec));
        break;
      case LogRecordType::kClr:
        IVDB_RETURN_NOT_OK(ApplyRedo(rec.clr_op, rec));
        break;
      default:
        break;
    }
  }

  // --- Undo: roll back losers (no COMMIT, no END), resuming mid-rollback
  //     transactions from their last CLR's undo_next_lsn. ---
  for (auto& [txn_id, entry] : txn_table) {
    if (entry.committed || entry.ended) continue;
    Lsn cursor = entry.last_lsn;
    Lsn chain_tail = entry.last_lsn;
    while (cursor != kInvalidLsn) {
      auto it = by_lsn.find(cursor);
      if (it == by_lsn.end()) {
        return Status::Corruption("undo chain references missing LSN " +
                                  std::to_string(cursor));
      }
      const LogRecord& rec = *it->second;
      switch (rec.type) {
        case LogRecordType::kClr:
          cursor = rec.undo_next_lsn;
          break;
        case LogRecordType::kInsert:
        case LogRecordType::kDelete:
        case LogRecordType::kUpdate:
        case LogRecordType::kIncrement: {
          LogRecord clr = MakeCompensation(rec);
          clr.prev_lsn = chain_tail;
          IVDB_RETURN_NOT_OK(log_->Append(&clr));
          chain_tail = clr.lsn;
          IVDB_RETURN_NOT_OK(ApplyRedo(clr.clr_op, clr));
          cursor = rec.prev_lsn;
          break;
        }
        case LogRecordType::kBegin:
          cursor = kInvalidLsn;
          break;
        case LogRecordType::kAbort:
          cursor = rec.prev_lsn;
          break;
        default:
          cursor = rec.prev_lsn;
          break;
      }
    }
    LogRecord end;
    end.type = LogRecordType::kEnd;
    end.txn_id = txn_id;
    end.system_txn = entry.system;
    end.prev_lsn = chain_tail;
    IVDB_RETURN_NOT_OK(log_->Append(&end));
  }

  // --- Resolve online view builds (after undo, so the tree contents are
  //     final): a build with a durable commit marker flips its view live —
  //     the index was rebuilt by redo of the flip transaction's records.
  //     Anything else is an abandoned build; its scratch index (emptied by
  //     the undo pass if the flip transaction lost) and catalog record are
  //     garbage-collected, leaving no trace of the build but the dead
  //     markers in the log. ---
  for (auto& [build_id, b] : builds) {
    if (committed_builds.count(build_id) != 0) {
      ViewDefinition def;
      Slice encoded(b.encoded_def);
      IVDB_RETURN_NOT_OK(ViewDefinition::DecodeFrom(&encoded, &def));
      catalog_.AdvancePastId(build_id);
      IVDB_RETURN_NOT_OK(RegisterView(build_id, std::move(def),
                                      /*populate=*/false));
      catalog_.RemoveViewBuild(build_id);
    } else {
      DropIndex(build_id);
      catalog_.RemoveViewBuild(build_id);
      build_gc_->Add();
    }
  }

  return log_->Flush(log_->last_lsn());
}

// ---------------------------------------------------------------------------
// Maintenance / administration
// ---------------------------------------------------------------------------

Status Database::CleanGhosts(uint64_t* reclaimed_out) {
  uint64_t total = 0;
  std::vector<GhostCleaner*> cleaners;
  {
    ReaderMutexLock guard(&views_mu_);
    for (const auto& [name, entry] : views_) {
      if (entry->cleaner != nullptr) cleaners.push_back(entry->cleaner.get());
    }
  }
  for (GhostCleaner* cleaner : cleaners) {
    uint64_t reclaimed = 0;
    IVDB_RETURN_NOT_OK(cleaner->RunOnce(&reclaimed));
    total += reclaimed;
  }
  if (reclaimed_out != nullptr) *reclaimed_out = total;
  return Status::OK();
}

uint64_t Database::GarbageCollectVersions() {
  const uint64_t pass_start = clock_->NowMicros();
  // Horizon: versions dead to the oldest active snapshot are unlinked now.
  // Retire stamp: a batch unlinked under stamp E is freed once every
  // active reader's pin exceeds E — i.e. everyone who could have been
  // traversing the unlinked nodes has left.
  const uint64_t horizon = txns_->OldestActiveTs();
  const uint64_t stamp = txns_->clock()->Peek();
  VersionStore::ChainLengthStats stats;
  const uint64_t unlinked = versions_.GarbageCollect(horizon, stamp, &stats);
  const uint64_t freed =
      versions_.AdvanceReclamation(txns_->epochs()->MinActivePin());
  // Chain-shape gauges go live off the lengths this pass just measured
  // while pruning — no second walk, no wait for DumpMetrics().
  version_chain_max_gauge_->Set(static_cast<int64_t>(stats.max_len));
  version_chain_p99_gauge_->Set(static_cast<int64_t>(stats.p99_len));
  const uint64_t pass_end = clock_->NowMicros();
  const uint64_t prev_end =
      last_gc_pass_end_micros_.exchange(pass_end, std::memory_order_acq_rel);
  gc_lag_gauge_->Set(
      prev_end == 0 ? 0 : static_cast<int64_t>(pass_end - prev_end));
  flight_.Emit(obs::FlightEventType::kGcPass, pass_start,
               pass_end - pass_start, unlinked, freed);
  return unlinked;
}

void Database::GcThreadLoop() {
  flight_.SetThreadName("version-gc");
  UniqueMutexLock lock(&gc_thread_mu_);
  while (!gc_stop_) {
    gc_thread_cv_.WaitFor(
        &lock, std::chrono::microseconds(options_.version_gc_interval_micros));
    if (gc_stop_) break;
    lock.Unlock();
    (void)GarbageCollectVersions();
    lock.Lock();
  }
}

Status Database::VerifyViewConsistency(const std::string& view) const {
  const ViewEntry* entry = nullptr;
  {
    ReaderMutexLock guard(&views_mu_);
    auto it = views_.find(view);
    if (it == views_.end()) return Status::NotFound("view not found");
    entry = it->second.get();
  }
  std::map<std::string, Row> expected;
  IVDB_RETURN_NOT_OK(entry->maintainer->Recompute(&expected));

  ReaderMutexLock guard(&indexes_mu_);
  auto it = indexes_.find(entry->info.id);
  if (it == indexes_.end()) return Status::Corruption("view index missing");
  std::map<std::string, Row> stored;
  Status decode_status;
  it->second->Scan("", nullptr, [&](const Slice& key, const Slice& value) {
    Row row;
    decode_status = DecodeRow(value, &row);
    if (!decode_status.ok()) return false;
    if (entry->info.definition.kind == ViewKind::kAggregate &&
        row[entry->info.definition.CountColumnIndex()].AsInt64() == 0) {
      return true;  // ghost: logically absent
    }
    stored[key.ToString()] = std::move(row);
    return true;
  });
  IVDB_RETURN_NOT_OK(decode_status);

  if (stored.size() != expected.size()) {
    return Status::Corruption(
        "view '" + view + "' row count mismatch: stored " +
        std::to_string(stored.size()) + ", recomputed " +
        std::to_string(expected.size()));
  }
  for (const auto& [key, row] : expected) {
    auto sit = stored.find(key);
    if (sit == stored.end()) {
      return Status::Corruption("view '" + view + "' missing key");
    }
    if (sit->second.size() != row.size()) {
      return Status::Corruption("view '" + view + "' arity mismatch");
    }
    for (size_t i = 0; i < row.size(); i++) {
      const Value& stored_v = sit->second[i];
      const Value& expect_v = row[i];
      bool equal;
      if (stored_v.type() == TypeId::kDouble && !stored_v.is_null() &&
          !expect_v.is_null()) {
        // Incrementally maintained double SUMs accumulate additions in a
        // different order than a fresh evaluation, so low-order bits may
        // differ (floating-point addition is not associative — the reason
        // SQL Server bans imprecise types in indexed-view aggregates).
        // Compare with a relative tolerance instead.
        double a = stored_v.AsDouble(), b = expect_v.AsDouble();
        double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
        equal = std::fabs(a - b) <= 1e-9 * scale;
      } else {
        equal = stored_v == expect_v;
      }
      if (!equal) {
        return Status::Corruption(
            "view '" + view + "' value mismatch: stored " +
            RowToString(sit->second) + ", recomputed " + RowToString(row));
      }
    }
  }
  return Status::OK();
}

const ViewMaintainerMetrics* Database::view_metrics(
    const std::string& view) const {
  ReaderMutexLock guard(&views_mu_);
  auto it = views_.find(view);
  return it == views_.end() ? nullptr : &it->second->maintainer->metrics();
}

const GhostCleanerMetrics* Database::ghost_metrics(
    const std::string& view) const {
  ReaderMutexLock guard(&views_mu_);
  auto it = views_.find(view);
  if (it == views_.end() || it->second->cleaner == nullptr) return nullptr;
  return &it->second->cleaner->metrics();
}

std::string Database::DumpMetrics() const {
  version_entries_gauge_->Set(
      static_cast<int64_t>(versions_.TotalEntries()));
  const VersionStore::ChainLengthStats chains =
      versions_.CollectChainLengthStats();
  version_chain_max_gauge_->Set(static_cast<int64_t>(chains.max_len));
  version_chain_p99_gauge_->Set(static_cast<int64_t>(chains.p99_len));
  const uint64_t now = clock_->NowMicros();
  // GC lag: the gauge normally holds the pass-to-pass interval set live by
  // GarbageCollectVersions(); when the time since the last pass already
  // exceeds that, report the age instead — a stalled collector then reads
  // as monotonically growing lag, not a frozen healthy value.
  const uint64_t last_gc =
      last_gc_pass_end_micros_.load(std::memory_order_acquire);
  if (last_gc != 0 && now > last_gc &&
      static_cast<int64_t>(now - last_gc) > gc_lag_gauge_->Value()) {
    gc_lag_gauge_->Set(static_cast<int64_t>(now - last_gc));
  }
  const ScanCache::Stats scan_stats = scan_cache_.GetStats();
  scan_cache_hits_gauge_->Set(static_cast<int64_t>(scan_stats.hits));
  scan_cache_misses_gauge_->Set(static_cast<int64_t>(scan_stats.misses));
  scan_cache_served_gauge_->Set(
      static_cast<int64_t>(scan_stats.served_scans));
  scan_cache_full_gauge_->Set(static_cast<int64_t>(scan_stats.full_scans));
  scan_cache_invalidations_gauge_->Set(
      static_cast<int64_t>(scan_stats.invalidations));
  {
    ReaderMutexLock guard(&views_mu_);
    for (const auto& [name, entry] : views_) {
      if (entry->cleaner == nullptr || entry->ghost_lag_gauge == nullptr) {
        continue;
      }
      const uint64_t last = entry->cleaner->last_pass_end_micros();
      // 0 before the first pass (no lag signal yet, not "infinitely late").
      entry->ghost_lag_gauge->Set(
          last == 0 || last > now ? 0 : static_cast<int64_t>(now - last));
    }
  }
  return registry_.RenderPrometheus() + obs::RenderMutexContention();
}

void Database::WriteBlackboxDump(const char* reason) {
  if (options_.dir.empty()) return;
  // Next free sequence number: scan the directory for prior dumps so
  // repeated incidents across process lifetimes never overwrite each other.
  uint64_t seq = 1;
  Result<std::vector<std::string>> listing = env_->ListDirectory(options_.dir);
  if (listing.ok()) {
    for (const std::string& name : *listing) {
      static const char kPrefix[] = "blackbox-";
      static const char kSuffix[] = ".json";
      if (name.size() <= sizeof(kPrefix) - 1 + sizeof(kSuffix) - 1 ||
          name.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0 ||
          name.compare(name.size() - (sizeof(kSuffix) - 1),
                       sizeof(kSuffix) - 1, kSuffix) != 0) {
        continue;
      }
      uint64_t n = 0;
      bool numeric = true;
      for (size_t i = sizeof(kPrefix) - 1;
           i < name.size() - (sizeof(kSuffix) - 1); ++i) {
        if (name[i] < '0' || name[i] > '9') {
          numeric = false;
          break;
        }
        n = n * 10 + static_cast<uint64_t>(name[i] - '0');
      }
      if (numeric && n >= seq) seq = n + 1;
    }
  }
  std::string json = flight_.Snap().ToJson();
  json.insert(1, std::string("\"reason\":\"") + reason + "\",");
  // Best-effort: the engine is already degraded or aborting; a failed dump
  // must not mask the original failure.
  (void)env_->WriteStringToFileAtomic(
      options_.dir + "/blackbox-" + std::to_string(seq) + ".json", json);
}

}  // namespace ivdb
