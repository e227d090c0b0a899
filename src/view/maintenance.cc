#include "view/maintenance.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"
#include "obs/trace.h"

namespace ivdb {

namespace {

bool IsZeroValue(const Value& v) {
  if (v.is_null()) return false;
  switch (v.type()) {
    case TypeId::kInt64:
      return v.AsInt64() == 0;
    case TypeId::kDouble:
      return v.AsDouble() == 0.0;
    case TypeId::kString:
      return false;
  }
  return false;
}

Value ZeroOfType(TypeId type) {
  switch (type) {
    case TypeId::kInt64:
      return Value::Int64(0);
    case TypeId::kDouble:
      return Value::Double(0.0);
    case TypeId::kString:
      return Value::Null(TypeId::kString);
  }
  return Value::Int64(0);
}

// sign * value, as a delta of the aggregate's stored type.
Status SignedContribution(const Value& v, int sign, TypeId stored_type,
                          Value* out) {
  if (v.is_null()) {
    return Status::InvalidArgument(
        "NULL in an aggregated column (indexed views require non-null "
        "aggregate inputs, mirroring SQL Server's indexed-view rules)");
  }
  if (stored_type == TypeId::kInt64) {
    if (v.type() != TypeId::kInt64) {
      return Status::InvalidArgument("aggregate input type mismatch");
    }
    *out = Value::Int64(sign * v.AsInt64());
    return Status::OK();
  }
  *out = Value::Double(sign * v.AsNumeric());
  return Status::OK();
}

}  // namespace

ViewMaintainerMetrics::ViewMaintainerMetrics(obs::MetricsRegistry* registry,
                                             const std::string& view_name)
    : increments_applied(registry->GetCounter(
          obs::WithLabel("ivdb_view_increments_total", "view", view_name))),
      ghosts_created(registry->GetCounter(obs::WithLabel(
          "ivdb_view_ghosts_created_total", "view", view_name))),
      ghost_create_races(registry->GetCounter(obs::WithLabel(
          "ivdb_view_ghost_create_races_total", "view", view_name))),
      deferred_batches(registry->GetCounter(obs::WithLabel(
          "ivdb_view_deferred_batches_total", "view", view_name))),
      deferred_changes_coalesced(registry->GetCounter(obs::WithLabel(
          "ivdb_view_deferred_changes_coalesced_total", "view", view_name))) {}

ViewMaintainer::ViewMaintainer(ViewDefinition definition, ObjectId view_id,
                               Schema fact_schema,
                               std::optional<Schema> dimension_schema,
                               IndexResolver* resolver, LockManager* locks,
                               TransactionManager* txns,
                               VersionStore* versions, Options options)
    : def_(std::move(definition)),
      view_id_(view_id),
      fact_schema_(std::move(fact_schema)),
      dimension_schema_(std::move(dimension_schema)),
      joined_schema_(JoinedSchema(
          fact_schema_,
          dimension_schema_.has_value() ? &*dimension_schema_ : nullptr)),
      view_schema_(def_.DerivedSchema(joined_schema_)),
      resolver_(resolver),
      locks_(locks),
      txns_(txns),
      versions_(versions),
      options_(options),
      clock_(options_.clock != nullptr ? options_.clock : Clock::Default()),
      owned_registry_(options_.metrics == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : owned_registry_.get(),
               def_.name) {
  for (size_t i = 0; i < def_.aggregates.size(); i++) {
    if (def_.aggregates[i].min_value.has_value()) {
      escrow_bounds_.push_back(VersionStore::ColumnBound{
          static_cast<uint32_t>(def_.AggregateColumnIndex(i)),
          *def_.aggregates[i].min_value});
    }
  }
}

Status ViewMaintainer::JoinAndFilter(const Row& fact_row, Transaction* txn,
                                     std::optional<Row>* joined) const {
  joined->reset();
  Row row = fact_row;
  if (def_.join.has_value()) {
    const JoinSpec& join = *def_.join;
    BTree* dim_tree = resolver_->GetIndex(join.dimension_table);
    if (dim_tree == nullptr) {
      return Status::Corruption("dimension table index missing");
    }
    std::string dim_key = EncodeKeyValues(
        {fact_row[static_cast<size_t>(join.fact_column)]});
    if (txn != nullptr) {
      // Transactional probe: S key lock (long duration) keeps the joined
      // dimension row stable until commit.
      IVDB_RETURN_NOT_OK(locks_->Lock(
          txn->id(), ResourceId::Object(join.dimension_table), LockMode::kIS));
      IVDB_RETURN_NOT_OK(locks_->Lock(
          txn->id(), ResourceId::Key(join.dimension_table, dim_key),
          LockMode::kS));
    }
    std::string dim_value;
    if (!dim_tree->Get(dim_key, &dim_value)) {
      return Status::OK();  // inner join: fact row has no match, drops out
    }
    Row dim_row;
    IVDB_RETURN_NOT_OK(DecodeRow(dim_value, &dim_row));
    for (Value& v : dim_row) row.push_back(std::move(v));
  }
  if (!EvalConjunction(def_.filter, row)) return Status::OK();
  *joined = std::move(row);
  return Status::OK();
}

Status ViewMaintainer::ExpandChange(const DeferredChange& change,
                                    std::vector<std::pair<Row, int>>* out,
                                    Transaction* txn) const {
  auto add = [&](const Row& fact_row, int sign) -> Status {
    std::optional<Row> joined;
    IVDB_RETURN_NOT_OK(JoinAndFilter(fact_row, txn, &joined));
    if (joined.has_value()) out->emplace_back(std::move(*joined), sign);
    return Status::OK();
  };
  switch (change.op) {
    case DeferredChange::Op::kInsert:
      return add(change.new_row, +1);
    case DeferredChange::Op::kDelete:
      return add(change.old_row, -1);
    case DeferredChange::Op::kUpdate:
      IVDB_RETURN_NOT_OK(add(change.old_row, -1));
      return add(change.new_row, +1);
  }
  return Status::InvalidArgument("unknown change op");
}

Status ViewMaintainer::ComputeAggregateDeltas(
    const std::vector<DeferredChange>& batch,
    std::vector<AggregateDelta>* out) const {
  return ComputeAggregateDeltasImpl(batch, nullptr, out);
}

// Implementation shared by the test-visible overload (no transaction: dirty
// join probes) and the maintenance path (probes under txn locks).
Status ViewMaintainer::ComputeAggregateDeltasImpl(
    const std::vector<DeferredChange>& batch, Transaction* txn,
    std::vector<AggregateDelta>* out) const {
  out->clear();
  std::map<std::string, AggregateDelta> by_group;
  const size_t count_col = def_.CountColumnIndex();

  for (const DeferredChange& change : batch) {
    std::vector<std::pair<Row, int>> rows;
    IVDB_RETURN_NOT_OK(ExpandChange(change, &rows, txn));
    for (const auto& [row, sign] : rows) {
      std::vector<Value> group;
      group.reserve(def_.group_by.size());
      for (int g : def_.group_by) {
        group.push_back(row[static_cast<size_t>(g)]);
      }
      std::string group_key = EncodeKeyValues(group);
      auto [it, inserted] = by_group.try_emplace(group_key);
      AggregateDelta& agg = it->second;
      if (inserted) {
        agg.group = std::move(group);
        agg.deltas.push_back(
            ColumnDelta{static_cast<uint32_t>(count_col), Value::Int64(0)});
        for (size_t i = 0; i < def_.aggregates.size(); i++) {
          size_t col = def_.AggregateColumnIndex(i);
          agg.deltas.push_back(ColumnDelta{
              static_cast<uint32_t>(col),
              ZeroOfType(view_schema_.column(col).type)});
        }
      }
      IVDB_RETURN_NOT_OK(
          agg.deltas[0].delta.AccumulateAdd(Value::Int64(sign)));
      for (size_t i = 0; i < def_.aggregates.size(); i++) {
        const AggregateSpec& spec = def_.aggregates[i];
        size_t col = def_.AggregateColumnIndex(i);
        const Value& input = row[static_cast<size_t>(spec.column)];
        Value contribution;
        if (spec.func == AggregateFunction::kCountColumn) {
          // COUNT(col): NULLs contribute nothing; non-NULLs count ±1.
          contribution = Value::Int64(input.is_null() ? 0 : sign);
        } else {
          IVDB_RETURN_NOT_OK(SignedContribution(
              input, sign, view_schema_.column(col).type, &contribution));
        }
        IVDB_RETURN_NOT_OK(
            agg.deltas[i + 1].delta.AccumulateAdd(contribution));
      }
    }
  }

  for (auto& [key, agg] : by_group) {
    bool all_zero = true;
    for (const ColumnDelta& d : agg.deltas) {
      if (!IsZeroValue(d.delta)) {
        all_zero = false;
        break;
      }
    }
    if (!all_zero) out->push_back(std::move(agg));
  }
  return Status::OK();
}

Row ViewMaintainer::GhostRow(const std::vector<Value>& group_values) const {
  Row row = group_values;
  row.push_back(Value::Int64(0));  // count_big
  for (size_t i = 0; i < def_.aggregates.size(); i++) {
    row.push_back(
        ZeroOfType(view_schema_.column(def_.AggregateColumnIndex(i)).type));
  }
  return row;
}

Status ViewMaintainer::CreateGhost(const std::string& key,
                                   const std::vector<Value>& group_values) {
  BTree* tree = resolver_->GetIndex(view_id_);
  Transaction* sys = txns_->BeginSystem();
  // Instant-duration attempt only: if the key lock is busy (another creator
  // or an in-flight user transaction), fail back to the caller's retry loop
  // instead of waiting — a blocking wait here could tie a system transaction
  // into a user-level deadlock the detector cannot see.
  Status status =
      locks_->TryLock(sys->id(), ResourceId::Key(view_id_, key), LockMode::kX);
  if (!status.ok()) {
    // The system txn wrote nothing yet; Busy is the error worth reporting.
    (void)txns_->Abort(sys);
    txns_->Forget(sys);
    return Status::Busy("ghost creation lock busy");
  }
  auto finish = [&](Status s) {
    if (s.ok()) {
      s = txns_->Commit(sys);
    } else {
      // Abort is the cleanup of an already-failed path: `s` carries the
      // error the caller acts on.
      (void)txns_->Abort(sys);
    }
    txns_->Forget(sys);
    return s;
  };
  if (tree->Contains(key)) {
    // Lost the creation race; the row exists now, which is all we need.
    metrics_.ghost_create_races->Add();
    return finish(Status::OK());
  }
  Row ghost = GhostRow(group_values);
  std::string value = EncodeRow(ghost);
  Status s = txns_->LogInsert(sys, view_id_, key, value);
  if (!s.ok()) return finish(s);
  s = versions_->ApplyWithPendingWrite(view_id_, key, std::nullopt,
                                       sys->id(), [&] {
                                         tree->Insert(key, value);
                                         return Status::OK();
                                       });
  if (!s.ok()) return finish(s);
  metrics_.ghosts_created->Add();
  obs::EmitTrace(obs::TraceEventType::kGhostCreate, view_id_);
  return finish(Status::OK());
}

Status ViewMaintainer::ApplyAggregateDelta(Transaction* txn,
                                           const AggregateDelta& delta) {
  const std::string key = EncodeKeyValues(delta.group);
  BTree* tree = resolver_->GetIndex(view_id_);
  IVDB_RETURN_NOT_OK(
      locks_->Lock(txn->id(), ResourceId::Object(view_id_), LockMode::kIX));

  const LockMode row_mode =
      options_.use_escrow ? LockMode::kE : LockMode::kX;
  // A Busy ghost creation or a create/reclaim race usually means the ghost
  // cleaner holds X on this row until its current batch commits — a window
  // of many milliseconds on a slow or sanitizer build. Instant retries
  // would burn every attempt inside that one window, so escalate the wait
  // so the attempt budget spans several cleaner passes.
  const auto backoff = [&](int attempt) {
    if (attempt == 0) {
      std::this_thread::yield();
      return;
    }
    clock_->SleepMicros(std::min<uint64_t>(
        uint64_t{100} << std::min(attempt - 1, 5), 5000));
  };
  bool locked_and_present = false;
  for (int attempt = 0; attempt < options_.max_apply_attempts; attempt++) {
    if (!tree->Contains(key)) {
      Status s = CreateGhost(key, delta.group);
      if (s.IsBusy()) {
        backoff(attempt);
        continue;
      }
      IVDB_RETURN_NOT_OK(s);
    }
    const ResourceId row = ResourceId::Key(view_id_, key);
    const bool held_before = locks_->HeldMode(txn->id(), row) != LockMode::kNL;
    IVDB_RETURN_NOT_OK(locks_->Lock(txn->id(), row, row_mode));
    if (tree->Contains(key)) {
      locked_and_present = true;
      break;
    }
    // The ghost cleaner reclaimed the row between creation and our lock
    // acquisition; go around again. A row lock first taken in this attempt
    // is released first: the statement has neither read nor written the
    // row under it, and keeping it would fail every later CreateGhost's
    // TryLock(X) on this key.
    if (!held_before) locks_->Unlock(txn->id(), row);
    metrics_.ghost_create_races->Add();
    backoff(attempt);
  }
  if (!locked_and_present) {
    return Status::Busy("could not stabilize aggregate row for maintenance");
  }

  if (options_.use_escrow) {
    // Escrow path: logical INCREMENT (log before apply), then pending-delta
    // note + in-place application as one event w.r.t. snapshot readers.
    // Bound admission, WAL append, and physical application form one
    // atomic unit w.r.t. other incrementers and snapshot readers; a
    // rejected increment leaves no trace (the transaction stays healthy on
    // kBusy and may retry or give up).
    IVDB_RETURN_NOT_OK(versions_->ApplyIncrement(
        view_id_, key, delta.deltas, txn->id(), /*create_pending=*/true,
        tree, escrow_bounds_.empty() ? nullptr : &escrow_bounds_, [&] {
          return txns_->LogIncrement(txn, view_id_, key, delta.deltas);
        }));
    obs::EmitTrace(obs::TraceEventType::kEscrowIncrement, view_id_);
  } else {
    // Baseline path: exclusive lock, physical before/after images.
    std::string before;
    if (!tree->Get(key, &before)) {
      return Status::Corruption("aggregate row vanished under X lock");
    }
    Row row;
    IVDB_RETURN_NOT_OK(DecodeRow(before, &row));
    IVDB_RETURN_NOT_OK(ApplyIncrementToRow(&row, delta.deltas));
    // Under an X lock there is no concurrency uncertainty: the candidate
    // value is the committed outcome, so bounds check it directly.
    for (const VersionStore::ColumnBound& bound : escrow_bounds_) {
      if (row[bound.column].AsInt64() < bound.min_value) {
        return Status::InvalidArgument("aggregate bound violated");
      }
    }
    std::string after = EncodeRow(row);
    IVDB_RETURN_NOT_OK(txns_->LogUpdate(txn, view_id_, key, before, after));
    IVDB_RETURN_NOT_OK(versions_->ApplyWithPendingWrite(
        view_id_, key, before, txn->id(), [&] {
          tree->Update(key, after);
          return Status::OK();
        }));
  }
  metrics_.increments_applied->Add();
  return Status::OK();
}

Status ViewMaintainer::ApplyProjectionChange(Transaction* txn,
                                             const DeferredChange& change) {
  BTree* tree = resolver_->GetIndex(view_id_);
  IVDB_RETURN_NOT_OK(
      locks_->Lock(txn->id(), ResourceId::Object(view_id_), LockMode::kIX));

  auto project = [&](const Row& joined) {
    Row out;
    out.reserve(def_.projection.size());
    for (int p : def_.projection) {
      out.push_back(joined[static_cast<size_t>(p)]);
    }
    return out;
  };
  auto key_of = [&](const Row& projected) {
    std::vector<Value> key_values;
    for (int k : def_.projection_key) {
      key_values.push_back(projected[static_cast<size_t>(k)]);
    }
    return EncodeKeyValues(key_values);
  };

  std::optional<Row> old_joined, new_joined;
  if (change.op != DeferredChange::Op::kInsert) {
    IVDB_RETURN_NOT_OK(JoinAndFilter(change.old_row, txn, &old_joined));
  }
  if (change.op != DeferredChange::Op::kDelete) {
    IVDB_RETURN_NOT_OK(JoinAndFilter(change.new_row, txn, &new_joined));
  }

  std::optional<Row> old_proj, new_proj;
  if (old_joined.has_value()) old_proj = project(*old_joined);
  if (new_joined.has_value()) new_proj = project(*new_joined);

  if (old_proj.has_value() && new_proj.has_value() &&
      key_of(*old_proj) == key_of(*new_proj)) {
    std::string key = key_of(*old_proj);
    IVDB_RETURN_NOT_OK(
        locks_->Lock(txn->id(), ResourceId::Key(view_id_, key), LockMode::kX));
    std::string before;
    if (!tree->Get(key, &before)) {
      return Status::Corruption("projection view row missing on update");
    }
    std::string after = EncodeRow(*new_proj);
    if (before == after) return Status::OK();
    IVDB_RETURN_NOT_OK(txns_->LogUpdate(txn, view_id_, key, before, after));
    return versions_->ApplyWithPendingWrite(view_id_, key, before, txn->id(),
                                            [&] {
                                              tree->Update(key, after);
                                              return Status::OK();
                                            });
  }

  if (old_proj.has_value()) {
    std::string key = key_of(*old_proj);
    IVDB_RETURN_NOT_OK(
        locks_->Lock(txn->id(), ResourceId::Key(view_id_, key), LockMode::kX));
    std::string before;
    if (!tree->Get(key, &before)) {
      return Status::Corruption("projection view row missing on delete");
    }
    IVDB_RETURN_NOT_OK(txns_->LogDelete(txn, view_id_, key, before));
    IVDB_RETURN_NOT_OK(versions_->ApplyWithPendingWrite(
        view_id_, key, before, txn->id(), [&] {
          tree->Delete(key);
          return Status::OK();
        }));
  }
  if (new_proj.has_value()) {
    std::string key = key_of(*new_proj);
    IVDB_RETURN_NOT_OK(
        locks_->Lock(txn->id(), ResourceId::Key(view_id_, key), LockMode::kX));
    if (tree->Contains(key)) {
      return Status::InvalidArgument(
          "duplicate clustering key in projection view '" + def_.name + "'");
    }
    std::string value = EncodeRow(*new_proj);
    IVDB_RETURN_NOT_OK(txns_->LogInsert(txn, view_id_, key, value));
    IVDB_RETURN_NOT_OK(versions_->ApplyWithPendingWrite(
        view_id_, key, std::nullopt, txn->id(), [&] {
          tree->Insert(key, value);
          return Status::OK();
        }));
  }
  return Status::OK();
}

Status ViewMaintainer::ApplyBaseChange(Transaction* txn,
                                       const DeferredChange& change) {
  return ApplyBatch(txn, {change});
}

Status ViewMaintainer::ApplyBatch(Transaction* txn,
                                  const std::vector<DeferredChange>& batch) {
  if (batch.empty()) return Status::OK();
  if (def_.kind == ViewKind::kProjection) {
    for (const DeferredChange& change : batch) {
      IVDB_RETURN_NOT_OK(ApplyProjectionChange(txn, change));
    }
    return Status::OK();
  }
  std::vector<AggregateDelta> deltas;
  IVDB_RETURN_NOT_OK(ComputeAggregateDeltasImpl(batch, txn, &deltas));
  if (batch.size() > 1) {
    metrics_.deferred_batches->Add();
    metrics_.deferred_changes_coalesced->Add(batch.size());
  }
  for (const AggregateDelta& delta : deltas) {
    IVDB_RETURN_NOT_OK(ApplyAggregateDelta(txn, delta));
  }
  obs::EmitTrace(obs::TraceEventType::kViewMaintain, view_id_, deltas.size());
  return Status::OK();
}

Status ViewMaintainer::ApplyBatchOffline(
    const std::vector<DeferredChange>& batch,
    std::map<std::string, Row>* state) const {
  if (batch.empty()) return Status::OK();

  if (def_.kind == ViewKind::kProjection) {
    auto project_and_key = [&](const Row& joined, Row* projected,
                               std::string* key) {
      projected->clear();
      for (int p : def_.projection) {
        projected->push_back(joined[static_cast<size_t>(p)]);
      }
      std::vector<Value> key_values;
      for (int k : def_.projection_key) {
        key_values.push_back((*projected)[static_cast<size_t>(k)]);
      }
      *key = EncodeKeyValues(key_values);
    };
    for (const DeferredChange& change : batch) {
      std::optional<Row> old_joined, new_joined;
      if (change.op != DeferredChange::Op::kInsert) {
        IVDB_RETURN_NOT_OK(JoinAndFilter(change.old_row, nullptr, &old_joined));
      }
      if (change.op != DeferredChange::Op::kDelete) {
        IVDB_RETURN_NOT_OK(JoinAndFilter(change.new_row, nullptr, &new_joined));
      }
      Row proj;
      std::string key;
      if (old_joined.has_value()) {
        project_and_key(*old_joined, &proj, &key);
        if (state->erase(key) == 0) {
          return Status::Corruption(
              "offline projection state missing a deleted row");
        }
      }
      if (new_joined.has_value()) {
        project_and_key(*new_joined, &proj, &key);
        if (state->count(key) != 0) {
          return Status::InvalidArgument(
              "duplicate clustering key in projection view '" + def_.name +
              "'");
        }
        (*state)[key] = std::move(proj);
      }
    }
    return Status::OK();
  }

  std::vector<AggregateDelta> deltas;
  IVDB_RETURN_NOT_OK(ComputeAggregateDeltasImpl(batch, nullptr, &deltas));
  for (const AggregateDelta& delta : deltas) {
    const std::string key = EncodeKeyValues(delta.group);
    auto [it, inserted] = state->try_emplace(key);
    if (inserted) it->second = GhostRow(delta.group);
    IVDB_RETURN_NOT_OK(ApplyIncrementToRow(&it->second, delta.deltas));
  }
  return Status::OK();
}

Status ViewMaintainer::Recompute(std::map<std::string, Row>* out) const {
  out->clear();
  BTree* fact_tree = resolver_->GetIndex(def_.fact_table);
  if (fact_tree == nullptr) return Status::Corruption("fact table missing");

  Status status;
  auto rows = fact_tree->ScanRange("", nullptr);
  std::vector<DeferredChange> batch;
  batch.reserve(rows.size());
  for (const auto& [key, value] : rows) {
    DeferredChange change;
    change.table_id = def_.fact_table;
    change.op = DeferredChange::Op::kInsert;
    IVDB_RETURN_NOT_OK(DecodeRow(value, &change.new_row));
    batch.push_back(std::move(change));
  }

  if (def_.kind == ViewKind::kProjection) {
    for (const DeferredChange& change : batch) {
      std::optional<Row> joined;
      IVDB_RETURN_NOT_OK(JoinAndFilter(change.new_row, nullptr, &joined));
      if (!joined.has_value()) continue;
      Row projected;
      for (int p : def_.projection) {
        projected.push_back((*joined)[static_cast<size_t>(p)]);
      }
      std::vector<Value> key_values;
      for (int k : def_.projection_key) {
        key_values.push_back(projected[static_cast<size_t>(k)]);
      }
      std::string key = EncodeKeyValues(key_values);
      if (out->count(key) != 0) {
        return Status::InvalidArgument(
            "projection view key is not unique over current data");
      }
      (*out)[key] = std::move(projected);
    }
    return Status::OK();
  }

  std::vector<AggregateDelta> deltas;
  IVDB_RETURN_NOT_OK(ComputeAggregateDeltasImpl(batch, nullptr, &deltas));
  for (const AggregateDelta& delta : deltas) {
    Row row = GhostRow(delta.group);
    IVDB_RETURN_NOT_OK(ApplyIncrementToRow(&row, delta.deltas));
    // Groups whose net count is zero are ghosts: logically absent.
    if (row[def_.CountColumnIndex()].AsInt64() == 0) continue;
    (*out)[EncodeKeyValues(delta.group)] = std::move(row);
  }
  return Status::OK();
}

}  // namespace ivdb
