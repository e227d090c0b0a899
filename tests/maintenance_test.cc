#include "view/maintenance.h"

#include <gtest/gtest.h>

#include "wal/log_manager.h"

namespace ivdb {
namespace {

// Standalone harness: ViewMaintainer over raw components (no Database
// facade), so delta derivation and the escrow/ghost protocol can be
// observed directly.
class Harness : public IndexResolver, public LogApplier {
 public:
  Harness()
      : log_(LogManagerOptions{}),  // empty dir => in-memory log
        txns_(&locks_, &log_, &versions_, this) {
    EXPECT_TRUE(log_.Open().ok());
  }

  BTree* GetIndex(ObjectId id) override { return &trees_[id]; }

  Status ApplyRedo(LogRecordType op_type, const LogRecord& rec) override {
    BTree* tree = GetIndex(rec.object_id);
    switch (op_type) {
      case LogRecordType::kInsert:
      case LogRecordType::kUpdate:
        tree->Put(rec.key, rec.after);
        return Status::OK();
      case LogRecordType::kDelete:
        tree->Delete(rec.key);
        return Status::OK();
      case LogRecordType::kIncrement:
        return ApplyIncrementToTree(tree, rec.key, rec.deltas);
      default:
        return Status::Corruption("bad op");
    }
  }

  std::map<ObjectId, BTree> trees_;
  LockManager locks_;
  VersionStore versions_;
  LogManager log_;
  TransactionManager txns_;
};

constexpr ObjectId kFact = 1;
constexpr ObjectId kDim = 2;
constexpr ObjectId kView = 10;

Schema FactSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"grp", TypeId::kInt64},
                 {"amount", TypeId::kInt64}});
}

ViewDefinition GroupDef() {
  ViewDefinition def;
  def.name = "v";
  def.kind = ViewKind::kAggregate;
  def.fact_table = kFact;
  def.group_by = {1};
  def.aggregates = {{AggregateFunction::kSum, 2, "total"}};
  return def;
}

Row Fact(int64_t id, int64_t grp, int64_t amount) {
  return {Value::Int64(id), Value::Int64(grp), Value::Int64(amount)};
}

DeferredChange Insert(int64_t id, int64_t grp, int64_t amount) {
  DeferredChange c;
  c.table_id = kFact;
  c.op = DeferredChange::Op::kInsert;
  c.new_row = Fact(id, grp, amount);
  return c;
}

DeferredChange Delete(int64_t id, int64_t grp, int64_t amount) {
  DeferredChange c;
  c.table_id = kFact;
  c.op = DeferredChange::Op::kDelete;
  c.old_row = Fact(id, grp, amount);
  return c;
}

DeferredChange Update(const Row& old_row, const Row& new_row) {
  DeferredChange c;
  c.table_id = kFact;
  c.op = DeferredChange::Op::kUpdate;
  c.old_row = old_row;
  c.new_row = new_row;
  return c;
}

class MaintenanceTest : public ::testing::Test {
 protected:
  MaintenanceTest()
      : maintainer_(GroupDef(), kView, FactSchema(), std::nullopt, &harness_,
                    &harness_.locks_, &harness_.txns_, &harness_.versions_,
                    ViewMaintainer::Options{}) {}

  Harness harness_;
  ViewMaintainer maintainer_;
};

TEST_F(MaintenanceTest, InsertDeltaShape) {
  std::vector<AggregateDelta> deltas;
  ASSERT_TRUE(
      maintainer_.ComputeAggregateDeltas({Insert(1, 7, 5)}, &deltas).ok());
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].group[0].AsInt64(), 7);
  ASSERT_EQ(deltas[0].deltas.size(), 2u);
  EXPECT_EQ(deltas[0].deltas[0].column, 1u);  // count column
  EXPECT_EQ(deltas[0].deltas[0].delta.AsInt64(), 1);
  EXPECT_EQ(deltas[0].deltas[1].column, 2u);  // SUM(amount)
  EXPECT_EQ(deltas[0].deltas[1].delta.AsInt64(), 5);
}

TEST_F(MaintenanceTest, DeleteDeltaIsNegative) {
  std::vector<AggregateDelta> deltas;
  ASSERT_TRUE(
      maintainer_.ComputeAggregateDeltas({Delete(1, 7, 5)}, &deltas).ok());
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].deltas[0].delta.AsInt64(), -1);
  EXPECT_EQ(deltas[0].deltas[1].delta.AsInt64(), -5);
}

TEST_F(MaintenanceTest, UpdateWithinGroupIsPureIncrement) {
  std::vector<AggregateDelta> deltas;
  ASSERT_TRUE(maintainer_
                  .ComputeAggregateDeltas(
                      {Update(Fact(1, 7, 5), Fact(1, 7, 9))}, &deltas)
                  .ok());
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].deltas[0].delta.AsInt64(), 0);  // count unchanged
  EXPECT_EQ(deltas[0].deltas[1].delta.AsInt64(), 4);  // 9 - 5
}

TEST_F(MaintenanceTest, UpdateAcrossGroupsSplits) {
  std::vector<AggregateDelta> deltas;
  ASSERT_TRUE(maintainer_
                  .ComputeAggregateDeltas(
                      {Update(Fact(1, 7, 5), Fact(1, 8, 5))}, &deltas)
                  .ok());
  ASSERT_EQ(deltas.size(), 2u);
  // Groups come out in encoded-key order: 7 then 8.
  EXPECT_EQ(deltas[0].group[0].AsInt64(), 7);
  EXPECT_EQ(deltas[0].deltas[0].delta.AsInt64(), -1);
  EXPECT_EQ(deltas[1].group[0].AsInt64(), 8);
  EXPECT_EQ(deltas[1].deltas[0].delta.AsInt64(), 1);
}

TEST_F(MaintenanceTest, NoOpUpdateProducesNothing) {
  std::vector<AggregateDelta> deltas;
  ASSERT_TRUE(maintainer_
                  .ComputeAggregateDeltas(
                      {Update(Fact(1, 7, 5), Fact(1, 7, 5))}, &deltas)
                  .ok());
  EXPECT_TRUE(deltas.empty());
}

TEST_F(MaintenanceTest, BatchCoalescesPerGroup) {
  std::vector<AggregateDelta> deltas;
  ASSERT_TRUE(maintainer_
                  .ComputeAggregateDeltas(
                      {Insert(1, 7, 5), Insert(2, 7, 3), Insert(3, 8, 1),
                       Delete(4, 7, 2)},
                      &deltas)
                  .ok());
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].deltas[0].delta.AsInt64(), 1);  // 7: +1+1-1
  EXPECT_EQ(deltas[0].deltas[1].delta.AsInt64(), 6);  // 5+3-2
  EXPECT_EQ(deltas[1].deltas[0].delta.AsInt64(), 1);  // 8
}

TEST_F(MaintenanceTest, SelfCancelingBatchIsEmpty) {
  std::vector<AggregateDelta> deltas;
  ASSERT_TRUE(maintainer_
                  .ComputeAggregateDeltas(
                      {Insert(1, 7, 5), Delete(1, 7, 5)}, &deltas)
                  .ok());
  EXPECT_TRUE(deltas.empty());
}

TEST_F(MaintenanceTest, NullAggregateInputRejected) {
  DeferredChange change;
  change.table_id = kFact;
  change.op = DeferredChange::Op::kInsert;
  change.new_row = {Value::Int64(1), Value::Int64(7),
                    Value::Null(TypeId::kInt64)};
  std::vector<AggregateDelta> deltas;
  EXPECT_TRUE(maintainer_.ComputeAggregateDeltas({change}, &deltas)
                  .IsInvalidArgument());
}

TEST_F(MaintenanceTest, FilterDropsRows) {
  ViewDefinition def = GroupDef();
  def.filter = {{2, CompareOp::kGe, Value::Int64(10)}};
  ViewMaintainer filtered(def, kView, FactSchema(), std::nullopt, &harness_,
                          &harness_.locks_, &harness_.txns_,
                          &harness_.versions_, ViewMaintainer::Options{});
  std::vector<AggregateDelta> deltas;
  ASSERT_TRUE(filtered
                  .ComputeAggregateDeltas(
                      {Insert(1, 7, 5), Insert(2, 7, 50)}, &deltas)
                  .ok());
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].deltas[0].delta.AsInt64(), 1);  // only the 50
  EXPECT_EQ(deltas[0].deltas[1].delta.AsInt64(), 50);
}

TEST_F(MaintenanceTest, ApplyCreatesGhostThenIncrements) {
  Transaction* txn = harness_.txns_.Begin();
  ASSERT_TRUE(maintainer_.ApplyBaseChange(txn, Insert(1, 7, 5)).ok());
  ASSERT_TRUE(harness_.txns_.Commit(txn).ok());

  EXPECT_EQ(maintainer_.metrics().ghosts_created->Value(), 1u);
  EXPECT_EQ(maintainer_.metrics().increments_applied->Value(), 1u);

  std::string key = EncodeKeyValues({Value::Int64(7)});
  std::string value;
  ASSERT_TRUE(harness_.GetIndex(kView)->Get(key, &value));
  Row row;
  ASSERT_TRUE(DecodeRow(value, &row).ok());
  EXPECT_EQ(row[1].AsInt64(), 1);
  EXPECT_EQ(row[2].AsInt64(), 5);

  // Second change reuses the existing row: no new ghost.
  txn = harness_.txns_.Begin();
  ASSERT_TRUE(maintainer_.ApplyBaseChange(txn, Insert(2, 7, 3)).ok());
  ASSERT_TRUE(harness_.txns_.Commit(txn).ok());
  EXPECT_EQ(maintainer_.metrics().ghosts_created->Value(), 1u);
}

// The ghost cleaner reclaims a freshly created ghost before the maintaining
// statement's E lock lands. The statement must drop the E lock it took in
// that attempt before going around: kept, it fails every later
// CreateGhost's TryLock(X) on the key and the insert ends in Busy. The
// reclaim is driven deterministically from the version store's commit hook,
// which fires inside the ghost-creating system transaction's commit, before
// the statement requests its E lock.
TEST_F(MaintenanceTest, GhostReclaimedBeforeTheELockIsRecreated) {
  const std::string key = EncodeKeyValues({Value::Int64(7)});
  int reclaims = 0;
  harness_.versions_.SetCommitHook(
      [&](uint32_t object_id, const std::string& hook_key, uint64_t) {
        if (object_id != kView || hook_key != key || reclaims > 0) return;
        reclaims++;
        EXPECT_TRUE(harness_.GetIndex(kView)->Delete(hook_key));
      });

  Transaction* txn = harness_.txns_.Begin();
  Status s = maintainer_.ApplyBaseChange(txn, Insert(1, 7, 5));
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(harness_.txns_.Commit(txn).ok());
  harness_.versions_.SetCommitHook(nullptr);

  EXPECT_EQ(reclaims, 1);
  EXPECT_EQ(maintainer_.metrics().ghost_create_races->Value(), 1u);
  EXPECT_EQ(maintainer_.metrics().ghosts_created->Value(), 2u);
  std::string value;
  ASSERT_TRUE(harness_.GetIndex(kView)->Get(key, &value));
  Row row;
  ASSERT_TRUE(DecodeRow(value, &row).ok());
  EXPECT_EQ(row[1].AsInt64(), 1);
  EXPECT_EQ(row[2].AsInt64(), 5);
}

TEST_F(MaintenanceTest, AbortRestoresGhost) {
  Transaction* txn = harness_.txns_.Begin();
  ASSERT_TRUE(maintainer_.ApplyBaseChange(txn, Insert(1, 7, 5)).ok());
  ASSERT_TRUE(harness_.txns_.Abort(txn).ok());

  // The ghost (system-transaction work) persists with count 0.
  std::string key = EncodeKeyValues({Value::Int64(7)});
  std::string value;
  ASSERT_TRUE(harness_.GetIndex(kView)->Get(key, &value));
  Row row;
  ASSERT_TRUE(DecodeRow(value, &row).ok());
  EXPECT_EQ(row[1].AsInt64(), 0);
  EXPECT_EQ(row[2].AsInt64(), 0);
}

TEST_F(MaintenanceTest, JoinProbeDropsDanglingRows) {
  // Dimension: grp -> zone, keyed on grp.
  Schema dim_schema({{"grp", TypeId::kInt64}, {"zone", TypeId::kString}});
  Row dim_row = {Value::Int64(7), Value::String("west")};
  harness_.GetIndex(kDim)->Put(EncodeKeyValues({Value::Int64(7)}),
                               EncodeRow(dim_row));

  ViewDefinition def;
  def.name = "joined";
  def.kind = ViewKind::kAggregate;
  def.fact_table = kFact;
  def.join = JoinSpec{kDim, 1};
  def.group_by = {4};  // zone (fact has 3 cols, dim starts at 3)
  def.aggregates = {{AggregateFunction::kSum, 2, "total"}};
  ViewMaintainer joined(def, kView, FactSchema(), dim_schema, &harness_,
                        &harness_.locks_, &harness_.txns_,
                        &harness_.versions_, ViewMaintainer::Options{});

  std::vector<AggregateDelta> deltas;
  ASSERT_TRUE(joined
                  .ComputeAggregateDeltas(
                      {Insert(1, 7, 5), Insert(2, 99, 4)}, &deltas)
                  .ok());
  ASSERT_EQ(deltas.size(), 1u);  // grp 99 has no dimension row
  EXPECT_EQ(deltas[0].group[0].AsString(), "west");
  EXPECT_EQ(deltas[0].deltas[1].delta.AsInt64(), 5);
}

TEST_F(MaintenanceTest, RecomputeMatchesIncrementalState) {
  // Base contents.
  BTree* fact = harness_.GetIndex(kFact);
  for (int i = 0; i < 20; i++) {
    Row row = Fact(i, i % 3, i);
    fact->Put(EncodeKeyValues({Value::Int64(i)}), EncodeRow(row));
  }
  std::map<std::string, Row> recomputed;
  ASSERT_TRUE(maintainer_.Recompute(&recomputed).ok());
  ASSERT_EQ(recomputed.size(), 3u);
  int64_t total = 0;
  for (const auto& [key, row] : recomputed) {
    total += row[2].AsInt64();
    EXPECT_GT(row[1].AsInt64(), 0);
  }
  EXPECT_EQ(total, 190);  // sum 0..19
}

TEST_F(MaintenanceTest, IncrementHelpersValidate) {
  Row row = {Value::Int64(1), Value::Int64(2)};
  std::vector<ColumnDelta> bad = {{9, Value::Int64(1)}};
  EXPECT_TRUE(ApplyIncrementToRow(&row, bad).IsCorruption());

  BTree tree;
  std::vector<ColumnDelta> deltas = {{0, Value::Int64(1)}};
  EXPECT_TRUE(ApplyIncrementToTree(&tree, "missing", deltas).IsNotFound());

  tree.Put("k", EncodeRow({Value::Int64(5)}));
  ASSERT_TRUE(ApplyIncrementToTree(&tree, "k", deltas).ok());
  std::string value;
  tree.Get("k", &value);
  Row out;
  ASSERT_TRUE(DecodeRow(value, &out).ok());
  EXPECT_EQ(out[0].AsInt64(), 6);
}

}  // namespace
}  // namespace ivdb
