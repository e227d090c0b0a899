// Shared fixtures and workload helpers for the engine test suite.
//
// Every test binary that exercises a Database uses one of two schemas:
//   SalesSchema()  {id, region, amount, qty}  — hand-written assertions
//   WideSchema()   {id, grp, region, amount, price} — randomized workloads
// plus the view builders and the random-op driver below. Keeping them here
// means a schema or API change is one edit, not one per test file.
#ifndef IVDB_TESTS_TEST_UTIL_H_
#define IVDB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include <unistd.h>

#include "common/random.h"
#include "engine/database.h"

namespace ivdb {

// Unique directory under the gtest temp root, removed on destruction.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix) {
    path_ = ::testing::TempDir() + prefix + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() { std::filesystem::remove_all(path_); }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- Canonical "sales" schema (hand-written assertions) ---

inline Schema SalesSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"region", TypeId::kString},
                 {"amount", TypeId::kDouble},
                 {"qty", TypeId::kInt64}});
}

inline Row Sale(int64_t id, const std::string& region, double amount,
                int64_t qty = 1) {
  return {Value::Int64(id), Value::String(region), Value::Double(amount),
          Value::Int64(qty)};
}

// GROUP BY region with SUM(amount); `with_units` adds SUM(qty).
inline ViewDefinition RegionView(ObjectId fact,
                                 const std::string& name = "by_region",
                                 bool with_units = false) {
  ViewDefinition def;
  def.name = name;
  def.kind = ViewKind::kAggregate;
  def.fact_table = fact;
  def.group_by = {1};
  def.aggregates = {{AggregateFunction::kSum, 2, "total"}};
  if (with_units) {
    def.aggregates.push_back({AggregateFunction::kSum, 3, "units"});
  }
  return def;
}

// --- Wide schema + randomized workload (property tests, crash torture) ---

inline Schema WideSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"grp", TypeId::kInt64},
                 {"region", TypeId::kString},
                 {"amount", TypeId::kInt64},
                 {"price", TypeId::kDouble}});
}

inline Row RandomWideRow(Random* rng, int64_t id) {
  static const char* kRegions[] = {"eu", "us", "apac"};
  return {Value::Int64(id), Value::Int64(static_cast<int64_t>(rng->Uniform(6))),
          Value::String(kRegions[rng->Uniform(3)]),
          Value::Int64(static_cast<int64_t>(rng->Uniform(100))),
          Value::Double(static_cast<double>(rng->Uniform(10000)) / 100.0)};
}

// The standard three-view set over a WideSchema fact table: a grouped
// aggregate (with AVG), a filtered aggregate, and a filtered projection.
inline void CreateStandardViews(Database* db, ObjectId fact) {
  {
    ViewDefinition def;
    def.name = "by_grp";
    def.kind = ViewKind::kAggregate;
    def.fact_table = fact;
    def.group_by = {1};
    def.aggregates = {{AggregateFunction::kSum, 3, "total"},
                      {AggregateFunction::kAvg, 4, "avg_price"}};
    ASSERT_TRUE(db->CreateIndexedView(def).ok());
  }
  {
    ViewDefinition def;
    def.name = "by_region";
    def.kind = ViewKind::kAggregate;
    def.fact_table = fact;
    def.filter = {{3, CompareOp::kGe, Value::Int64(20)}};
    def.group_by = {2};
    def.aggregates = {{AggregateFunction::kSum, 3, "total"}};
    ASSERT_TRUE(db->CreateIndexedView(def).ok());
  }
  {
    ViewDefinition def;
    def.name = "big_sales";
    def.kind = ViewKind::kProjection;
    def.fact_table = fact;
    def.filter = {{3, CompareOp::kGe, Value::Int64(80)}};
    def.projection = {0, 2, 3};
    def.projection_key = {0};
    ASSERT_TRUE(db->CreateIndexedView(def).ok());
  }
}

// Oracle over the standard views: stored contents == from-scratch
// recomputation of each definition.
inline void VerifyAllViews(Database* db) {
  for (const char* view : {"by_grp", "by_region", "big_sales"}) {
    Status s = db->VerifyViewConsistency(view);
    EXPECT_TRUE(s.ok()) << view << ": " << s.ToString();
  }
}

// One random operation against table "sales" (WideSchema) inside its own
// transaction, with retry on concurrency rollbacks.
inline void RandomOp(Database* db, Random* rng, int64_t id_space) {
  int64_t id = static_cast<int64_t>(rng->Uniform(id_space));
  for (int attempt = 0; attempt < 20; attempt++) {
    Transaction* txn = db->Begin();
    Status s;
    switch (rng->Uniform(4)) {
      case 0:
      case 1: {
        s = db->Insert(txn, "sales", RandomWideRow(rng, id));
        if (s.IsAlreadyExists()) s = Status::OK();
        break;
      }
      case 2: {
        s = db->Update(txn, "sales", RandomWideRow(rng, id));
        if (s.IsNotFound()) s = Status::OK();
        break;
      }
      case 3: {
        s = db->Delete(txn, "sales", {Value::Int64(id)});
        if (s.IsNotFound()) s = Status::OK();
        break;
      }
    }
    if (s.ok() && rng->OneIn(6)) {
      // Multi-statement transactions exercise prevLSN chains and batching.
      Status s2 = db->Insert(txn, "sales", RandomWideRow(rng, id + id_space));
      if (!s2.IsAlreadyExists() && !s2.ok()) s = s2;
    }
    if (s.ok() && rng->OneIn(10)) {
      // Deliberate random abort; under fault injection it may itself fail,
      // which is fine — the workload only promises eventual progress.
      (void)db->Abort(txn);
      db->Forget(txn);
      return;
    }
    if (s.ok()) s = db->Commit(txn);
    bool done = s.ok();
    if (!done && txn->state() == TxnState::kActive) (void)db->Abort(txn);
    db->Forget(txn);
    if (done) return;
  }
  FAIL() << "operation never succeeded";
}

// --- Fixtures ---

// In-memory database with a "sales" table (SalesSchema) pre-created.
class SalesDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto result = Database::Open(options_);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    db_ = std::move(result).value();
    auto table = db_->CreateTable("sales", SalesSchema(), {0});
    ASSERT_TRUE(table.ok());
    sales_ = table.value()->id;
  }

  // Runs `fn` inside a fresh committed transaction.
  void Commit(const std::function<void(Transaction*)>& fn) {
    Transaction* txn = db_->Begin();
    fn(txn);
    Status s = db_->Commit(txn);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  DatabaseOptions options_;  // in-memory by default
  std::unique_ptr<Database> db_;
  ObjectId sales_ = kInvalidObjectId;
};

// Durable database directory with open/crash/reopen support. Dropping the
// Database without Checkpoint() simulates a crash; OpenDb() again recovers.
class DurableDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The process id keeps test binaries that run at once apart: heap
    // layouts repeat across processes (notably under TSan), so `this`
    // alone can name the same directory in two binaries.
    dir_ = ::testing::TempDir() + "durable_db_test_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Database> OpenDb(Env* env = nullptr,
                                   SyncMode sync = SyncMode::kNone) {
    DatabaseOptions options;
    options.dir = dir_;
    options.sync = sync;
    options.env = env;
    auto result = Database::Open(options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  std::string dir_;
};

}  // namespace ivdb

#endif  // IVDB_TESTS_TEST_UTIL_H_
