// engine_bench: the end-to-end benchmark of the ivdb engine.
//
// Three closed-loop workloads (escrow_hot, durable_churn,
// snapshot_dashboard) drive the engine only through Database's public
// functions. A run repeats *rounds* until --seconds have passed; every round
// opens a fresh database, preloads it, runs a fixed operation stream made
// from --seed, checks its outputs and restarts the engine. Because each
// round does the same work, each round also leaves the same version
// history behind (version GC stays at its default, off), and the run
// reports the median set-up time of its rounds and, for every other
// figure, the quartile of its rounds on the good side.
//
// --trace 0 prints the end-to-end metrics of untraced rounds. --trace 1
// alternates untraced and traced rounds and prints per-layer metrics: those
// of the traced rounds, the read latencies of the untraced ones, and
// untraced over traced throughput; the traced rounds' spans are written as
// Chrome trace JSON under .bench_out/.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See README.md in this directory for the workloads and metric map.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/env.h"
#include "bench_env.h"
#include "engine/database.h"
#include "span_trace.h"

namespace ivdb {
namespace enginebench {
namespace {

// ---------------------------------------------------------------------------
// Configuration

// Every workload pins the inline leader/follower commit path. The
// dedicated-writer pipeline (the engine default) wakes the WAL writer thread
// on every commit, so CPU-bound figures measured with it track the
// scheduler, not the engine. This is the one place to edit when the option
// goes away.
constexpr bool kCommitPipeline = false;
constexpr const char* kCommitPipelineWhy =
    "the default dedicated-writer pipeline wakes a thread per commit, so "
    "CPU-bound throughput swung 2.5x between identical runs; the inline path "
    "is steady";

constexpr const char* kDurableDirWhy =
    "durable_churn needs a WAL and checkpoints; the directory is inside the "
    "benchmark checkout";
constexpr const char* kDurableSyncWhy =
    "the engine syncs every commit batch, so the recovery check may demand "
    "every acknowledged commit";
constexpr const char* kDurableEnvWhy =
    "FaultInjectionEnv with no fault scheduled: writes reach the files and a "
    "sync only advances the durable watermark, like fdatasync on a "
    "RAM-backed filesystem; real fdatasync on the shared virtual disk swung "
    "throughput 3x between identical runs";
constexpr const char* kTracedEnvWhy =
    "traced rounds only: CountingEnv in front of FaultInjectionEnv for the "
    "env.* per-layer metrics";

struct WorkloadSpec {
  const char* name;
  const char* why;
  bool durable;
  int writers;
  int64_t groups;   // groups of view by_grp
  int64_t regions;  // groups of view by_region; 0 = no second view
  int inserts_per_txn;
  bool delete_oldest;  // each txn also deletes its writer's oldest live row
  int64_t preload_rows;
  int preload_batch;
  int64_t txns_per_writer;
  // Checkpoint() + CleanGhosts() passes per round by a maintenance client,
  // spread evenly over the round's commit count.
  int maintenance_passes;
  // > 0: an open-loop snapshot reader runs beside the writers at this many
  // operations per second. 0: no reader.
  int reader_ops_per_s;
};

// One read in kScanEvery is a whole-view scan; the rest are point reads.
constexpr int kScanEvery = 5;
constexpr int64_t kAmountMax = 100;
constexpr int64_t kWriterIdStride = int64_t{1} << 40;
// Restarts timed per round. A durable round recovers copies of its crashed
// directory and keeps their median; an in-memory restart has nothing to
// replay, so it is short and timed on every vCPU (see OnEachCpu).
constexpr int kRecoveries = 3;
constexpr int kInMemoryRestartsPerCpu = 4;
constexpr size_t kMaxTraceEvents = 200000;
// Tries per writer transaction, the first included: a transaction the
// engine refuses with a retryable status is rolled back and run again, as
// Database::RunTransaction does by default. It counts as failed only when
// every try was refused.
constexpr int kMaxTxnAttempts = 8;

const WorkloadSpec kWorkloads[] = {
    {"escrow_hot",
     "3 writers insert one row per txn into 16 hot SUM+COUNT groups: every "
     "commit E-locks and increments a shared aggregate row, in memory",
     /*durable=*/false, /*writers=*/3, /*groups=*/16, /*regions=*/0,
     /*inserts_per_txn=*/1, /*delete_oldest=*/false, /*preload_rows=*/40000,
     /*preload_batch=*/500, /*txns_per_writer=*/8000,
     /*maintenance_passes=*/0, /*reader_ops_per_s=*/0},
    {"durable_churn",
     "2 writers insert 3 rows and delete their oldest row per txn into two "
     "views on a fsync'ed WAL, beside checkpoints and ghost cleanup",
     /*durable=*/true, /*writers=*/2, /*groups=*/4096, /*regions=*/16,
     /*inserts_per_txn=*/3, /*delete_oldest=*/true, /*preload_rows=*/8192,
     /*preload_batch=*/512, /*txns_per_writer=*/1500,
     /*maintenance_passes=*/3, /*reader_ops_per_s=*/0},
    {"snapshot_dashboard",
     "2 writers escrow-increment a 256-group view while an open-loop "
     "snapshot reader scans it and reads single groups, in memory",
     /*durable=*/false, /*writers=*/2, /*groups=*/256, /*regions=*/0,
     /*inserts_per_txn=*/2, /*delete_oldest=*/false, /*preload_rows=*/25600,
     /*preload_batch=*/512, /*txns_per_writer=*/6000,
     /*maintenance_passes=*/0, /*reader_ops_per_s=*/400},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Shrinks a workload for the self-tests (same shape, a tenth of the work).
WorkloadSpec Quick(WorkloadSpec spec) {
  spec.preload_rows /= 10;
  spec.txns_per_writer /= 10;
  return spec;
}

[[noreturn]] void Die(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "engine_bench: ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Seeded input generation (outside every timed path)

// splitmix64: a fixed, platform-independent generator, so a seed names the
// same stream on every host and compiler.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % uint64_t(n)); }

 private:
  uint64_t state_;
};

struct Fact {
  int64_t id = 0;
  int64_t grp = 0;
  int64_t region = 0;
  int64_t amount = 0;
};

struct ReadOp {
  bool scan = false;
  int64_t grp = 0;
};

struct Stream {
  std::vector<Fact> preload;
  // writer_rows[w] holds txns_per_writer * inserts_per_txn rows, in order.
  std::vector<std::vector<Fact>> writer_rows;
  // The reader's schedule, cycled when a phase needs more.
  std::vector<ReadOp> reads;

  // FNV-1a over every generated value (the determinism self-test).
  uint64_t Hash() const {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](int64_t v) {
      for (int i = 0; i < 8; i++) {
        h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    auto mix_fact = [&](const Fact& f) {
      mix(f.id);
      mix(f.grp);
      mix(f.region);
      mix(f.amount);
    };
    for (const Fact& f : preload) mix_fact(f);
    for (const auto& rows : writer_rows) {
      for (const Fact& f : rows) mix_fact(f);
    }
    for (const ReadOp& r : reads) {
      mix(r.scan);
      mix(r.grp);
    }
    return h;
  }
};

Stream GenerateStream(const WorkloadSpec& spec, uint64_t seed) {
  Stream s;
  Rng rng(seed * 0x2545f4914f6cdd1dull + 0x51ed2701);
  auto region = [&] { return spec.regions > 0 ? rng.Below(spec.regions) : 0; };
  // Preloaded rows cover every group evenly and in group order, so the
  // measured phase starts with every aggregate row present. Writers own the
  // preloaded rows round-robin, so in durable_churn both writers delete the
  // preloaded rows of group k at about their k-th transaction, and group k
  // empties into a ghost unless a new row landed in it first.
  for (int64_t i = 0; i < spec.preload_rows; i++) {
    s.preload.push_back({i + 1, i * spec.groups / spec.preload_rows, region(),
                         1 + rng.Below(kAmountMax)});
  }
  s.writer_rows.resize(spec.writers);
  for (int w = 0; w < spec.writers; w++) {
    const int64_t rows = spec.txns_per_writer * spec.inserts_per_txn;
    s.writer_rows[w].reserve(rows);
    for (int64_t k = 0; k < rows; k++) {
      s.writer_rows[w].push_back({(w + 1) * kWriterIdStride + k,
                                  rng.Below(spec.groups), region(),
                                  1 + rng.Below(kAmountMax)});
    }
  }
  for (int i = 0; i < 4096; i++) {
    s.reads.push_back({i % kScanEvery == 0, rng.Below(spec.groups)});
  }
  return s;
}

// ---------------------------------------------------------------------------
// Schema and the shadow of acknowledged commits

constexpr const char* kTable = "sales";
constexpr const char* kGroupView = "by_grp";
constexpr const char* kRegionView = "by_region";

Row MakeRow(const Fact& f) {
  return {Value::Int64(f.id), Value::Int64(f.grp), Value::Int64(f.region),
          Value::Int64(f.amount)};
}

struct Agg {
  int64_t count = 0;
  int64_t sum = 0;
};

// Expected contents of both views: per group, the count and sum of every
// acknowledged row.
struct Shadow {
  std::vector<Agg> by_grp;
  std::vector<Agg> by_region;

  explicit Shadow(const WorkloadSpec& spec)
      : by_grp(spec.groups), by_region(spec.regions) {}
  void Apply(const Fact& f, int sign) {
    by_grp[f.grp].count += sign;
    by_grp[f.grp].sum += sign * f.amount;
    if (!by_region.empty()) {
      by_region[f.region].count += sign;
      by_region[f.region].sum += sign * f.amount;
    }
  }
  void Merge(const Shadow& other) {
    for (size_t g = 0; g < by_grp.size(); g++) {
      by_grp[g].count += other.by_grp[g].count;
      by_grp[g].sum += other.by_grp[g].sum;
    }
    for (size_t r = 0; r < by_region.size(); r++) {
      by_region[r].count += other.by_region[r].count;
      by_region[r].sum += other.by_region[r].sum;
    }
  }
};

Status CreateSchema(Database* db, const WorkloadSpec& spec) {
  Schema schema({{"id", TypeId::kInt64},
                 {"grp", TypeId::kInt64},
                 {"region", TypeId::kInt64},
                 {"amount", TypeId::kInt64}});
  auto table = db->CreateTable(kTable, schema, {0});
  if (!table.ok()) return table.status();
  auto view = [&](const char* name, int column) -> Status {
    ViewDefinition def;
    def.name = name;
    def.kind = ViewKind::kAggregate;
    def.fact_table = table.value()->id;
    def.group_by = {column};
    def.aggregates = {{AggregateFunction::kSum, 3, "total"}};
    return db->CreateIndexedView(def).status();
  };
  IVDB_RETURN_NOT_OK(view(kGroupView, 1));
  if (spec.regions > 0) IVDB_RETURN_NOT_OK(view(kRegionView, 2));
  return Status::OK();
}

std::vector<std::string> ViewNames(const WorkloadSpec& spec) {
  std::vector<std::string> names = {kGroupView};
  if (spec.regions > 0) names.push_back(kRegionView);
  return names;
}

// Compares a view's snapshot contents with the shadow.
Status CheckViewAgainstShadow(Database* db, const std::string& view,
                              const std::vector<Agg>& expected) {
  Transaction* txn = db->Begin(ReadMode::kSnapshot);
  auto rows = db->ScanView(txn, view);
  Status commit = db->Commit(txn);
  db->Forget(txn);
  if (!rows.ok()) return rows.status();
  IVDB_RETURN_NOT_OK(commit);
  size_t live = 0;
  for (const Agg& a : expected) live += a.count != 0;
  if (rows.value().size() != live) {
    return Status::Corruption(view + ": " +
                              std::to_string(rows.value().size()) +
                              " rows, shadow has " + std::to_string(live));
  }
  for (const Row& row : rows.value()) {
    int64_t g = row[0].AsInt64();
    if (g < 0 || static_cast<size_t>(g) >= expected.size() ||
        row[1].AsInt64() != expected[g].count ||
        row[2].AsInt64() != expected[g].sum) {
      return Status::Corruption(view + ": group " + std::to_string(g) +
                                " differs from the shadow");
    }
  }
  return Status::OK();
}

Status CheckOutputs(Database* db, const WorkloadSpec& spec,
                    const Shadow& shadow) {
  for (const std::string& view : ViewNames(spec)) {
    IVDB_RETURN_NOT_OK(db->VerifyViewConsistency(view));
  }
  IVDB_RETURN_NOT_OK(CheckViewAgainstShadow(db, kGroupView, shadow.by_grp));
  if (spec.regions > 0) {
    IVDB_RETURN_NOT_OK(
        CheckViewAgainstShadow(db, kRegionView, shadow.by_region));
  }
  return Status::OK();
}

// Every acknowledged row, and nothing else, is in the base table.
Status CheckBaseRows(Database* db, const std::set<int64_t>& expected_ids) {
  Transaction* txn = db->Begin(ReadMode::kSnapshot);
  auto rows = db->ScanTable(txn, kTable);
  Status commit = db->Commit(txn);
  db->Forget(txn);
  if (!rows.ok()) return rows.status();
  IVDB_RETURN_NOT_OK(commit);
  std::set<int64_t> ids;
  for (const Row& row : rows.value()) ids.insert(row[0].AsInt64());
  if (ids != expected_ids) {
    return Status::Corruption("recovered table holds " +
                              std::to_string(ids.size()) + " rows, expected " +
                              std::to_string(expected_ids.size()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Engine counters read before and after the measured phase

enum Counter {
  kTxnAborted,
  kLockAcquisitions,
  kLockImmediateGrants,
  kLockWaits,
  kLockWaitMicros,
  kDeadlocks,
  kTimeouts,
  kWalRecords,
  kWalBytes,
  kWalFlushes,
  kWalFlushedRecords,
  kWalRotations,
  kWalSegmentsRetired,
  kViewIncrements,
  kGhostsCreated,
  kGhostCreateRaces,
  kCacheHits,
  kCacheMisses,
  kCacheServedScans,
  kCacheFullScans,
  kCacheInvalidations,
  kEnvAppends,
  kEnvAppendBytes,
  kEnvCheckpointBytes,
  kEnvSyncs,
  kEnvReadBytes,
  kNumCounters,
};
using Counters = std::array<uint64_t, kNumCounters>;

Counters ReadCounters(Database* db, const WorkloadSpec& spec,
                      const CountingEnv* env) {
  Counters c{};
  c[kTxnAborted] = db->txn_metrics().aborted->Value();
  const LockManagerMetrics& l = db->lock_metrics();
  c[kLockAcquisitions] = l.acquisitions->Value();
  c[kLockImmediateGrants] = l.immediate_grants->Value();
  c[kLockWaits] = l.waits->Value();
  c[kLockWaitMicros] = l.wait_micros->Value();
  c[kDeadlocks] = l.deadlocks->Value();
  c[kTimeouts] = l.timeouts->Value();
  const LogManagerMetrics& w = db->log_metrics();
  c[kWalRecords] = w.records_appended->Value();
  c[kWalBytes] = w.bytes_appended->Value();
  c[kWalFlushes] = w.flushes->Value();
  c[kWalFlushedRecords] = w.flushed_records->Value();
  c[kWalRotations] = w.rotations->Value();
  c[kWalSegmentsRetired] = w.segments_retired->Value();
  for (const std::string& view : ViewNames(spec)) {
    const ViewMaintainerMetrics* v = db->view_metrics(view);
    if (v == nullptr) continue;
    c[kViewIncrements] += v->increments_applied->Value();
    c[kGhostsCreated] += v->ghosts_created->Value();
    c[kGhostCreateRaces] += v->ghost_create_races->Value();
  }
  const ScanCache::Stats s = db->scan_cache()->GetStats();
  c[kCacheHits] = s.hits;
  c[kCacheMisses] = s.misses;
  c[kCacheServedScans] = s.served_scans;
  c[kCacheFullScans] = s.full_scans;
  c[kCacheInvalidations] = s.invalidations;
  if (env != nullptr) {
    const CountingEnv::Counts e = env->Snap();
    c[kEnvAppends] = e.appends;
    c[kEnvAppendBytes] = e.append_bytes;
    c[kEnvCheckpointBytes] = e.checkpoint_bytes;
    c[kEnvSyncs] = e.syncs;
    c[kEnvReadBytes] = e.read_bytes;
  }
  return c;
}

Counters Minus(const Counters& a, const Counters& b) {
  Counters d{};
  for (size_t i = 0; i < d.size(); i++) d[i] = a[i] - b[i];
  return d;
}

// A sample of DumpMetrics()' Prometheus text, e.g.
// `ivdb_commit_stage_micros_sum{stage="fsync"}`; 0 when absent.
double PromValue(const std::string& dump, const std::string& sample) {
  const std::string needle = sample + " ";
  size_t pos = 0;
  while ((pos = dump.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || dump[pos - 1] == '\n') {
      return std::strtod(dump.c_str() + pos + needle.size(), nullptr);
    }
    pos += needle.size();
  }
  return 0;
}

struct StageSums {
  double fsync_sum = 0, fsync_count = 0, flip_sum = 0, flip_count = 0;

  static StageSums Read(const std::string& dump) {
    auto stage = [&](const char* suffix, const char* name) {
      return PromValue(dump, std::string("ivdb_commit_stage_micros") + suffix +
                                 "{stage=\"" + name + "\"}");
    };
    return {stage("_sum", "fsync"), stage("_count", "fsync"),
            stage("_sum", "flip_wait"), stage("_count", "flip_wait")};
  }
};

// ---------------------------------------------------------------------------
// One round

double Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(q * (v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return static_cast<double>(v[k]);
}

// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * (v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - lo) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct RoundOptions {
  bool traced = false;
  // Durable rounds only: the data directory, and the seed of the round's
  // FaultInjectionEnv.
  std::string dir;
  uint64_t seed = 0;
  // Crash self-test: after the phase, crash the FaultInjectionEnv at its
  // next mutating op instead of running the normal restart.
  bool crash = false;
};

struct RoundResult {
  bool traced = false;
  double setup_s = 0, cpu_s = 0, recovery_s = 0;
  uint64_t committed = 0, attempted = 0, failed = 0;
  uint64_t retries = 0;  // refused writer attempts that were run again
  std::vector<uint64_t> txn_ns, lag_ns;
  double scan_us = 0, point_us = 0;  // the round's read latency figures
  double phase_s = 0;  // first writer started to last writer finished
  Counters delta{};
  StageSums stages;  // traced rounds: phase deltas
  double version_entries_end = 0, chain_max_end = 0;
  double sync_us_p50 = 0;
  uint64_t recovery_read_bytes = 0;
  uint64_t ghosts_reclaimed = 0;
  std::vector<Span> spans;
  std::string error;  // first failed output check; empty = all passed
  std::string first_failure;  // status of the first failed operation
};

// Runs body() once on each vCPU this thread may use, pinned to it, then
// restores the thread's mask. On a shared VM one vCPU ran a
// single-threaded loop 1.2-2x slower than another from one second to the
// next, so a single-threaded timing depended on where the scheduler put
// it; callers time on every vCPU and keep the fastest vCPU's figure. Only
// for sections that start no threads: new threads inherit the mask.
template <typename F>
void OnEachCpu(F&& body) {
  cpu_set_t saved;
  if (sched_getaffinity(0, sizeof(saved), &saved) != 0) {
    body();
    return;
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; c++) {
    if (CPU_ISSET(c, &saved)) cpus.push_back(c);
  }
  for (size_t k = 0; k < cpus.size(); k++) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[k], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
    body();
  }
  (void)sched_setaffinity(0, sizeof(saved), &saved);
}

// The smallest of the positive values (0 when none).
double MinPositive(const std::vector<double>& v) {
  double best = 0;
  for (double x : v) {
    if (x > 0 && (best == 0 || x < best)) best = x;
  }
  return best;
}

DatabaseOptions OptionsFor(const WorkloadSpec& spec, const RoundOptions& ro,
                           Env* env) {
  DatabaseOptions options;
  options.commit_pipeline = kCommitPipeline;
  if (spec.durable) {
    options.dir = ro.dir;
    options.sync = SyncMode::kFsync;
    options.env = env;
  }
  return options;
}

class Round {
 public:
  Round(const WorkloadSpec& spec, const Stream& stream, RoundOptions ro)
      : spec_(spec),
        stream_(stream),
        ro_(std::move(ro)),
        fault_env_(ro_.seed) {
    result_.traced = ro_.traced;
  }

  RoundResult Run() {
    if (spec_.durable) {
      std::error_code ec;
      std::filesystem::remove_all(ro_.dir, ec);
      std::filesystem::create_directories(
          std::filesystem::path(ro_.dir).parent_path());
    }
    Env* env = &fault_env_;
    if (spec_.durable && ro_.traced) {
      counting_ = std::make_unique<CountingEnv>(env);
      env = counting_.get();
    }
    const DatabaseOptions options = OptionsFor(spec_, ro_, env);
    Setup(options);
    Measure(counting_.get());
    Note(CheckOutputs(db_.get(), spec_, shadow_), "after the phase");
    if (ro_.crash) {
      CrashAndRecover();
    } else {
      Restart(options, counting_.get());
    }
    return Finish();
  }

 private:
  RoundResult Finish() {
    db_.reset();
    std::error_code ec;
    if (spec_.durable) std::filesystem::remove_all(ro_.dir, ec);
    for (auto& log : logs_) {
      result_.spans.insert(result_.spans.end(), log->spans().begin(),
                           log->spans().end());
    }
    return std::move(result_);
  }

  void Note(const Status& s, const char* where) {
    if (!s.ok() && result_.error.empty()) {
      result_.error = std::string(where) + ": " + s.ToString();
    }
  }

  SpanLog* NewLog() {
    if (!ro_.traced) return nullptr;
    logs_.push_back(std::make_unique<SpanLog>(logs_.size() + 1));
    return logs_.back().get();
  }

  void Setup(const DatabaseOptions& options) {
    SpanLog* log = NewLog();
    const uint64_t start = NowNanos();
    auto opened = Traced(log, "Open", 0, [&] { return Database::Open(options); });
    if (!opened.ok()) Die("open: %s", opened.status().ToString().c_str());
    db_ = std::move(opened).value();
    Status s = CreateSchema(db_.get(), spec_);
    if (!s.ok()) Die("schema: %s", s.ToString().c_str());
    queues_.resize(spec_.writers);
    for (size_t i = 0; i < stream_.preload.size();) {
      Transaction* txn = db_->Begin();
      size_t end = std::min(stream_.preload.size(), i + spec_.preload_batch);
      for (; i < end && s.ok(); i++) {
        s = db_->Insert(txn, kTable, MakeRow(stream_.preload[i]));
        shadow_.Apply(stream_.preload[i], +1);
        queues_[i % spec_.writers].push_back(stream_.preload[i]);
      }
      if (s.ok()) s = db_->Commit(txn);
      if (!s.ok()) Die("preload: %s", s.ToString().c_str());
      db_->Forget(txn);
    }
    result_.setup_s = (NowNanos() - start) / 1e9;
  }

  // The measured phase: writers, plus the maintenance client and the
  // open-loop reader where the workload has them.
  void Measure(CountingEnv* counting) {
    std::string dump_before;
    if (ro_.traced) dump_before = db_->DumpMetrics();
    const Counters before = ReadCounters(db_.get(), spec_, counting);
    const double cpu_before = CpuSeconds();

    std::vector<Writer> writers(spec_.writers, Writer(spec_));
    for (int w = 0; w < spec_.writers; w++) {
      writers[w].log = NewLog();
      writers[w].queue = std::move(queues_[w]);
    }
    SpanLog* maintenance_log = spec_.maintenance_passes > 0 ? NewLog() : nullptr;
    SpanLog* reader_log = spec_.reader_ops_per_s > 0 ? NewLog() : nullptr;

    const int extra = (spec_.maintenance_passes > 0) +
                      (spec_.reader_ops_per_s > 0);
    std::latch start(spec_.writers + extra + 1);
    std::atomic<uint64_t> phase_start{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < spec_.writers; w++) {
      threads.emplace_back([&, w] {
        start.arrive_and_wait();
        RunWriter(w, &writers[w]);
      });
    }
    if (spec_.maintenance_passes > 0) {
      threads.emplace_back([&] {
        start.arrive_and_wait();
        RunMaintenance(maintenance_log);
      });
    }
    if (spec_.reader_ops_per_s > 0) {
      threads.emplace_back([&] {
        start.arrive_and_wait();
        RunReader(reader_log, phase_start.load());
      });
    }
    phase_start = NowNanos();
    start.arrive_and_wait();
    for (int w = 0; w < spec_.writers; w++) threads[w].join();
    result_.phase_s = (NowNanos() - phase_start.load()) / 1e9;
    {
      std::lock_guard<std::mutex> guard(due_mu_);
      writers_done_ = true;
      due_cv_.notify_all();
    }
    for (size_t t = spec_.writers; t < threads.size(); t++) threads[t].join();

    // The reader's waits between reads are spins, not work: only its CPU
    // inside reads counts.
    result_.cpu_s = CpuSeconds() - cpu_before - reader_wait_cpu_s_;
    result_.delta = Minus(ReadCounters(db_.get(), spec_, counting), before);

    result_.attempted += maintenance_attempted_;
    result_.failed += maintenance_failed_;
    result_.ghosts_reclaimed = maintenance_reclaimed_;
    result_.first_failure = maintenance_failure_;
    for (Writer& w : writers) {
      if (result_.first_failure.empty()) result_.first_failure = w.first_failure;
      result_.committed += w.committed;
      result_.attempted += w.attempted;
      result_.failed += w.failed;
      result_.retries += w.retries;
      result_.txn_ns.insert(result_.txn_ns.end(), w.latency_ns.begin(),
                            w.latency_ns.end());
      shadow_.Merge(w.shadow);
      for (const Fact& f : w.queue) live_ids_.insert(f.id);
    }
    if (ro_.traced) {
      const std::string dump_after = db_->DumpMetrics();
      StageSums a = StageSums::Read(dump_after);
      StageSums b = StageSums::Read(dump_before);
      result_.stages = {a.fsync_sum - b.fsync_sum,
                        a.fsync_count - b.fsync_count, a.flip_sum - b.flip_sum,
                        a.flip_count - b.flip_count};
      result_.version_entries_end =
          static_cast<double>(db_->version_store_entries());
      result_.chain_max_end =
          PromValue(dump_after, "ivdb_storage_version_chain_max");
      if (counting != nullptr) {
        result_.sync_us_p50 = counting->sync_micros().Snap().P50();
      }
    }
  }

  struct Writer {
    explicit Writer(const WorkloadSpec& spec) : shadow(spec) {}
    SpanLog* log = nullptr;
    std::deque<Fact> queue;  // this writer's live rows, oldest first
    Shadow shadow;           // deltas of this writer's acknowledged commits
    std::vector<uint64_t> latency_ns;
    uint64_t committed = 0, attempted = 0, failed = 0, retries = 0;
    std::string first_failure;
  };

  void RunWriter(int w, Writer* wr) {
    const std::vector<Fact>& rows = stream_.writer_rows[w];
    wr->latency_ns.reserve(spec_.txns_per_writer);
    SpanLog* log = wr->log;
    for (int64_t i = 0; i < spec_.txns_per_writer; i++) {
      const size_t first = i * spec_.inserts_per_txn;
      std::optional<Fact> victim;
      if (spec_.delete_oldest && !wr->queue.empty()) victim = wr->queue.front();
      // A refused attempt is rolled back and the transaction is run again
      // from the top, the way Database::RunTransaction retries; its
      // latency runs from the first attempt's Begin to the ack.
      const uint64_t t0 = NowNanos();
      Status s;
      for (int attempt = 1;; attempt++) {
        s = RunWriterTxn(log, rows, first, victim);
        const bool retryable = s.RequiresRollback() ||
                               (s.IsTransient() && !s.IsUnavailable());
        if (s.ok() || !retryable || attempt == kMaxTxnAttempts) break;
        wr->retries++;
      }
      const uint64_t t1 = NowNanos();
      wr->attempted++;
      if (!s.ok()) {
        if (wr->failed++ == 0) wr->first_failure = "txn: " + s.ToString();
        continue;
      }
      wr->committed++;
      wr->latency_ns.push_back(t1 - t0);
      for (int k = 0; k < spec_.inserts_per_txn; k++) {
        wr->shadow.Apply(rows[first + k], +1);
        wr->queue.push_back(rows[first + k]);
      }
      if (victim) {
        wr->shadow.Apply(*victim, -1);
        wr->queue.pop_front();
      }
      const uint64_t c = commits_.fetch_add(1) + 1;
      if (maintenance_stride_ > 0 && c % maintenance_stride_ == 0) {
        std::lock_guard<std::mutex> guard(due_mu_);
        due_cv_.notify_all();
      }
    }
  }

  // One attempt at a writer transaction: inserts rows[first..], deletes
  // `victim` if set, commits; a failed attempt is rolled back.
  Status RunWriterTxn(SpanLog* log, const std::vector<Fact>& rows,
                      size_t first, const std::optional<Fact>& victim) {
    const uint64_t id = log != nullptr ? log->NextId() : 0;
    const uint64_t t0 = NowNanos();
    Transaction* txn = Traced(log, "Begin", id, [&] { return db_->Begin(); });
    Status s;
    for (int k = 0; k < spec_.inserts_per_txn && s.ok(); k++) {
      s = Traced(log, "Insert", id, [&] {
        return db_->Insert(txn, kTable, MakeRow(rows[first + k]));
      });
    }
    if (s.ok() && victim) {
      s = Traced(log, "Delete", id, [&] {
        return db_->Delete(txn, kTable, {Value::Int64(victim->id)});
      });
    }
    if (s.ok()) s = Traced(log, "Commit", id, [&] { return db_->Commit(txn); });
    if (log != nullptr) log->Add("txn", t0, NowNanos(), 0, id);
    if (!s.ok() && txn->state() == TxnState::kActive) {
      (void)Traced(log, "Abort", id, [&] { return db_->Abort(txn); });
    }
    (void)Traced(log, "Forget", 0, [&] {
      db_->Forget(txn);
      return 0;
    });
    return s;
  }

  // Runs maintenance pass k once k * maintenance_stride_ transactions have
  // committed, so runs repeat independently of timing.
  void RunMaintenance(SpanLog* log) {
    for (int k = 1; k <= spec_.maintenance_passes; k++) {
      const uint64_t due = k * maintenance_stride_;
      {
        std::unique_lock<std::mutex> lock(due_mu_);
        due_cv_.wait(lock, [&] {
          return commits_.load() >= due || writers_done_.load();
        });
      }
      maintenance_attempted_ += 2;
      Status s = Traced(log, "Checkpoint", 0, [&] { return db_->Checkpoint(); });
      NoteMaintenanceFailure(s, "Checkpoint");
      uint64_t reclaimed = 0;
      s = Traced(log, "CleanGhosts", 0,
                 [&] { return db_->CleanGhosts(&reclaimed); });
      NoteMaintenanceFailure(s, "CleanGhosts");
      maintenance_reclaimed_ += reclaimed;
    }
  }

  void NoteMaintenanceFailure(const Status& s, const char* what) {
    if (s.ok()) return;
    if (maintenance_failed_++ == 0) {
      maintenance_failure_ = std::string(what) + ": " + s.ToString();
    }
  }

  // One snapshot read: a whole-view scan or a point read of one group.
  // With `seen`, checks that no group's count went backwards since this
  // reader's previous snapshot, which holds while the writers only insert.
  // Returns false when the engine refused the read.
  bool Read(SpanLog* log, const ReadOp& op, std::vector<int64_t>* seen) {
    const uint64_t id = log != nullptr ? log->NextId() : 0;
    const uint64_t t0 = NowNanos();
    Transaction* txn = Traced(log, "Begin[snapshot]", id,
                              [&] { return db_->Begin(ReadMode::kSnapshot); });
    std::vector<Row> rows;
    bool ok = true;
    if (op.scan) {
      auto r = Traced(log, "ScanView", id,
                      [&] { return db_->ScanView(txn, kGroupView); });
      ok = r.ok();
      if (ok) rows = std::move(r).value();
    } else {
      auto r = Traced(log, "GetViewRow", id, [&] {
        return db_->GetViewRow(txn, kGroupView, {Value::Int64(op.grp)});
      });
      ok = r.ok();
      if (ok && r.value().has_value()) rows.push_back(*r.value());
    }
    Status s = Traced(log, "Commit[snapshot]", id,
                      [&] { return db_->Commit(txn); });
    if (log != nullptr) log->Add("read_txn", t0, NowNanos(), 0, id);
    db_->Forget(txn);
    ok = ok && s.ok();
    if (ok && seen != nullptr) {
      for (const Row& row : rows) {
        int64_t g = row[0].AsInt64();
        if (g < 0 || g >= spec_.groups || row[1].AsInt64() < (*seen)[g]) {
          Note(Status::Corruption("group " + std::to_string(g) +
                                  " went backwards between snapshots"),
               "snapshot reader");
          break;
        }
        (*seen)[g] = row[1].AsInt64();
      }
    }
    return ok;
  }

  // Open loop: operation i is due at phase_start + i / rate. Each read is
  // timed from when it was due, so a stalled read also delays the ones
  // behind it; how late each read started is kept as the generator's lag.
  // The reader spins until a read is due: a reader that slept woke on a
  // halted vCPU, and that wake-up was half of a point read's latency.
  void RunReader(SpanLog* log, uint64_t phase_start) {
    const uint64_t period_ns = 1000000000ull / spec_.reader_ops_per_s;
    std::vector<int64_t> seen(spec_.groups, 0);
    std::vector<uint64_t> scan_ns, point_ns;
    const double cpu_start = ThreadCpuSeconds();
    double read_cpu_s = 0;
    for (uint64_t i = 0; !writers_done_.load(); i++) {
      const uint64_t due = phase_start + i * period_ns;
      uint64_t now;
      while ((now = NowNanos()) < due) {
      }
      const ReadOp& op = stream_.reads[i % stream_.reads.size()];
      const double cpu0 = ThreadCpuSeconds();
      bool ok = Read(log, op, spec_.delete_oldest ? nullptr : &seen);
      const uint64_t end = NowNanos();
      read_cpu_s += ThreadCpuSeconds() - cpu0;
      result_.attempted++;
      if (!ok) {
        result_.failed++;
        continue;
      }
      result_.lag_ns.push_back(now - due);
      (op.scan ? scan_ns : point_ns).push_back(end - due);
    }
    reader_wait_cpu_s_ = ThreadCpuSeconds() - cpu_start - read_cpu_s;
    result_.scan_us = Percentile(scan_ns, .5) / 1e3;
    result_.point_us = Percentile(point_ns, .5) / 1e3;
  }

  // Destroys the engine without a checkpoint (the destructor has crash
  // semantics) and times the reopen. Durable rounds then check that every
  // acknowledged commit came back; in-memory rounds have nothing to replay,
  // so the restart times an empty Open.
  void Restart(const DatabaseOptions& options, CountingEnv* counting) {
    db_.reset();
    SpanLog* log = NewLog();
    std::vector<double> samples;
    if (spec_.durable) {
      // Copies first, so every recovery starts from the same crashed bytes;
      // the original is recovered last and checked.
      std::vector<std::string> dirs;
      for (int i = 1; i < kRecoveries; i++) {
        dirs.push_back(ro_.dir + "-copy" + std::to_string(i));
        std::error_code ec;
        std::filesystem::remove_all(dirs.back(), ec);
        std::filesystem::copy(ro_.dir, dirs.back(),
                              std::filesystem::copy_options::recursive);
      }
      dirs.push_back(ro_.dir);
      for (const std::string& dir : dirs) {
        DatabaseOptions copy = options;
        copy.dir = dir;
        const uint64_t read_before =
            counting != nullptr ? counting->Snap().read_bytes : 0;
        const uint64_t start = NowNanos();
        auto opened =
            Traced(log, "Open", 0, [&] { return Database::Open(copy); });
        samples.push_back((NowNanos() - start) / 1e9);
        if (counting != nullptr) {
          result_.recovery_read_bytes =
              counting->Snap().read_bytes - read_before;
        }
        if (!opened.ok()) {
          Note(opened.status(), "recovery");
          return;
        }
        if (dir == ro_.dir) {
          db_ = std::move(opened).value();
        } else {
          opened.value().reset();
          std::error_code ec;
          std::filesystem::remove_all(dir, ec);
        }
      }
      result_.recovery_s = Median(samples);
      CheckRecovered("after recovery");
      return;
    }
    std::vector<double> per_cpu;
    OnEachCpu([&] {
      samples.clear();
      for (int i = 0; i < kInMemoryRestartsPerCpu; i++) {
        const uint64_t start = NowNanos();
        auto opened =
            Traced(log, "Open", 0, [&] { return Database::Open(options); });
        samples.push_back((NowNanos() - start) / 1e9);
        Note(opened.status(), "restart");
      }
      per_cpu.push_back(Median(samples));
    });
    result_.recovery_s = MinPositive(per_cpu);
  }

  void CheckRecovered(const char* where) {
    Note(CheckBaseRows(db_.get(), live_ids_), where);
    Note(CheckOutputs(db_.get(), spec_, shadow_), where);
  }

  // Crash self-test: the fault Env freezes the files at power-loss state on
  // the next mutating op, which one more (unacknowledged) transaction
  // triggers. Recovery on the real filesystem must bring back every
  // acknowledged commit and nothing else.
  void CrashAndRecover() {
    fault_env_.CrashAtOp(fault_env_.ops_issued());
    Transaction* txn = db_->Begin();
    Fact extra{-1, 0, 0, 1};
    Status s = db_->Insert(txn, kTable, MakeRow(extra));
    if (s.ok()) s = db_->Commit(txn);
    if (s.ok()) Note(Status::Corruption("commit succeeded"), "crash");
    if (!fault_env_.crashed()) Note(Status::Corruption("env never crashed"), "crash");
    db_.reset();
    const DatabaseOptions options = OptionsFor(spec_, ro_, nullptr);
    auto opened = Database::Open(options);
    if (!opened.ok()) {
      Note(opened.status(), "crash recovery");
      return;
    }
    db_ = std::move(opened).value();
    CheckRecovered("after crash recovery");
  }

  const WorkloadSpec& spec_;
  const Stream& stream_;
  RoundOptions ro_;
  RoundResult result_;
  // The devices outlive db_, which is declared after them. Durable rounds
  // run on fault_env_ with no fault scheduled unless ro_.crash is set.
  FaultInjectionEnv fault_env_;
  std::unique_ptr<CountingEnv> counting_;
  std::unique_ptr<Database> db_;
  Shadow shadow_{spec_};
  std::vector<std::deque<Fact>> queues_;  // preload rows, per writer
  std::set<int64_t> live_ids_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  // Maintenance passes are due every maintenance_stride_ commits (0 = none);
  // a writer that reaches a due count, and the end of the phase, wake the
  // maintenance client through due_cv_.
  const uint64_t maintenance_stride_ =
      spec_.maintenance_passes > 0
          ? spec_.writers * spec_.txns_per_writer /
                (spec_.maintenance_passes + 1)
          : 0;
  std::atomic<uint64_t> commits_{0};
  std::atomic<bool> writers_done_{false};
  std::mutex due_mu_;
  std::condition_variable due_cv_;
  // Written by the reader, read after it is joined.
  double reader_wait_cpu_s_ = 0;
  // Written by the maintenance client, read after it is joined.
  uint64_t maintenance_attempted_ = 0, maintenance_failed_ = 0,
           maintenance_reclaimed_ = 0;
  std::string maintenance_failure_;
};

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double PerTxn(double v, uint64_t committed) {
  return committed > 0 ? v / committed : 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// A run's figure for a per-round metric: the quartile of its rounds on the
// good side (the 25th percentile of a time, the 75th of a rate). On a shared
// VM a round is only ever slowed by its neighbours, and per-round figures
// were bimodal by up to 2x as rounds landed on fast or slow vCPUs; the
// median then followed the share of slow rounds, which changed from run to
// run, while the good-side quartile reads the engine's figure whenever a
// quarter of the rounds ran undisturbed. A change that slows the engine
// slows every round, so it still shows.
double OverRounds(const std::vector<const RoundResult*>& rounds,
                  const std::function<double(const RoundResult&)>& f,
                  bool higher_is_better = false) {
  std::vector<double> v;
  for (const RoundResult* r : rounds) v.push_back(f(*r));
  return Quantile(v, higher_is_better ? 0.75 : 0.25);
}

double TxnPerS(const std::vector<const RoundResult*>& rounds) {
  return OverRounds(
      rounds,
      [](const RoundResult& r) { return Ratio(r.committed, r.phase_s); }, true);
}

// Set-up is timed in every round and reported as the median round, so work
// moved into set-up shows as soon as it slows half the rounds.
double SetupS(const std::vector<const RoundResult*>& rounds) {
  std::vector<double> v;
  for (const RoundResult* r : rounds) v.push_back(r->setup_s);
  return Median(v);
}

std::vector<Metric> EndToEnd(const std::vector<const RoundResult*>& rounds) {
  auto over = [&](const std::function<double(const RoundResult&)>& f) {
    return OverRounds(rounds, f);
  };
  return {
      {"setup_s", SetupS(rounds), "s"},
      {"txn_per_s", TxnPerS(rounds), "1/s"},
      {"txn_p50_us",
       over([](const RoundResult& r) { return Percentile(r.txn_ns, .5) / 1e3; }),
       "us"},
      {"cpu_us_per_txn",
       over([](const RoundResult& r) { return PerTxn(r.cpu_s * 1e6, r.committed); }),
       "us"},
      {"wal_bytes_per_txn",
       over([](const RoundResult& r) {
         return PerTxn(r.delta[kWalBytes], r.committed);
       }),
       "B"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
      {"recovery_s", over([](const RoundResult& r) { return r.recovery_s; }),
       "s"},
  };
}

// Per-layer metrics come from the traced rounds, except for the read
// latencies, which are figures of the untraced rounds like the end-to-end
// metrics, and the retries, which are rare and so are counted over every
// round.
std::vector<Metric> PerLayer(const std::vector<const RoundResult*>& traced,
                             const std::vector<const RoundResult*>& plain) {
  Counters d{};
  uint64_t committed = 0;
  StageSums st;
  SpanSummary spans;
  std::vector<uint64_t> lag_ns;
  std::vector<double> entries, chains, sync_p50;
  double reclaimed = 0, recovery_read = 0;
  for (const RoundResult* r : traced) {
    for (size_t i = 0; i < d.size(); i++) d[i] += r->delta[i];
    committed += r->committed;
    st.fsync_sum += r->stages.fsync_sum;
    st.fsync_count += r->stages.fsync_count;
    st.flip_sum += r->stages.flip_sum;
    st.flip_count += r->stages.flip_count;
    spans.Add(r->spans);
    lag_ns.insert(lag_ns.end(), r->lag_ns.begin(), r->lag_ns.end());
    entries.push_back(r->version_entries_end);
    chains.push_back(r->chain_max_end);
    sync_p50.push_back(r->sync_us_p50);
    reclaimed += r->ghosts_reclaimed;
    recovery_read += r->recovery_read_bytes;
  }
  const double n = traced.empty() ? 1 : traced.size();
  uint64_t all_committed = 0, retries = 0;
  for (const auto* rounds : {&traced, &plain}) {
    for (const RoundResult* r : *rounds) {
      all_committed += r->committed;
      retries += r->retries;
    }
  }
  auto p = [&](const char* name, double q, double scale) {
    auto it = spans.dur_ns.find(name);
    return it == spans.dur_ns.end() ? 0 : Percentile(it->second, q) / scale;
  };
  auto self_p50 = spans.self_ns.find("txn");
  return {
      {"engine.insert_us_p50", p("Insert", .5, 1e3), "us"},
      {"engine.delete_us_p50", p("Delete", .5, 1e3), "us"},
      {"engine.checkpoint_ms_p50", p("Checkpoint", .5, 1e6), "ms"},
      {"engine.scan_view_us_p50", p("ScanView", .5, 1e3), "us"},
      {"engine.get_view_row_us_p50", p("GetViewRow", .5, 1e3), "us"},
      {"txn.begin_us_p50", p("Begin", .5, 1e3), "us"},
      {"txn.commit_us_p50", p("Commit", .5, 1e3), "us"},
      {"txn.p50_us", p("txn", .5, 1e3), "us"},
      {"txn.p99_us", p("txn", .99, 1e3), "us"},
      {"txn.self_us_p50",
       self_p50 == spans.self_ns.end()
           ? 0
           : Percentile(self_p50->second, .5) / 1e3,
       "us"},
      {"txn.aborted_per_1k", PerTxn(1000.0 * d[kTxnAborted], committed),
       "count"},
      {"txn.retries_per_1k", PerTxn(1000.0 * retries, all_committed),
       "count"},
      {"txn.stage_fsync_us_mean", Ratio(st.fsync_sum, st.fsync_count), "us"},
      {"txn.stage_flip_wait_us_mean", Ratio(st.flip_sum, st.flip_count), "us"},
      {"lock.acquisitions_per_txn", PerTxn(d[kLockAcquisitions], committed), "count"},
      {"lock.immediate_grant_ratio", Ratio(d[kLockImmediateGrants], d[kLockAcquisitions]),
       "ratio"},
      {"lock.waits_per_1k_txn", PerTxn(1000.0 * d[kLockWaits], committed),
       "count"},
      {"lock.wait_us_per_txn", PerTxn(d[kLockWaitMicros], committed), "us"},
      {"lock.deadlocks", d[kDeadlocks] / n, "count"},
      {"lock.timeouts", d[kTimeouts] / n, "count"},
      {"wal.records_per_txn", PerTxn(d[kWalRecords], committed), "count"},
      {"wal.flushes_per_txn", PerTxn(d[kWalFlushes], committed), "count"},
      {"wal.batch_records_mean", Ratio(d[kWalFlushedRecords], d[kWalFlushes]),
       "count"},
      {"wal.rotations", d[kWalRotations] / n, "count"},
      {"wal.segments_retired", d[kWalSegmentsRetired] / n, "count"},
      {"env.appends_per_txn", PerTxn(d[kEnvAppends], committed), "count"},
      {"env.append_bytes_per_txn", PerTxn(d[kEnvAppendBytes], committed), "B"},
      {"env.syncs_per_txn", PerTxn(d[kEnvSyncs], committed), "count"},
      {"env.sync_us_p50", Median(sync_p50), "us"},
      {"env.checkpoint_bytes", d[kEnvCheckpointBytes] / n, "B"},
      {"env.recovery_read_mb", recovery_read / n / (1 << 20), "MiB"},
      {"view.increments_per_txn", PerTxn(d[kViewIncrements], committed), "count"},
      {"view.ghosts_created", d[kGhostsCreated] / n, "count"},
      {"view.ghost_create_races", d[kGhostCreateRaces] / n, "count"},
      {"view.clean_ms_p50", p("CleanGhosts", .5, 1e6), "ms"},
      {"view.ghosts_reclaimed", reclaimed / n, "count"},
      {"storage.version_entries_end", Median(entries), "count"},
      {"storage.chain_max_end", Median(chains), "count"},
      {"storage.scan_cache_hit_ratio",
       Ratio(d[kCacheHits], d[kCacheHits] + d[kCacheMisses]), "ratio"},
      {"storage.scan_served_ratio",
       Ratio(d[kCacheServedScans], d[kCacheServedScans] + d[kCacheFullScans]), "ratio"},
      {"storage.scan_invalidations_per_txn",
       PerTxn(d[kCacheInvalidations], committed), "count"},
      {"reader.scan_p50_us",
       OverRounds(plain, [](const RoundResult& r) { return r.scan_us; }),
       "us"},
      {"reader.point_read_p50_us",
       OverRounds(plain, [](const RoundResult& r) { return r.point_us; }),
       "us"},
      {"reader.lag_us_p50", Percentile(lag_ns, .5) / 1e3, "us"},
      {"reader.lag_us_p99", Percentile(lag_ns, .99) / 1e3, "us"},
      {"obs.trace_overhead_ratio", Ratio(TxnPerS(plain), TxnPerS(traced)),
       "ratio"},
  };
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); i++) {
    if (i > 0) out += ", ";
    out += Json(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Json(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string ProvenanceJson(const WorkloadSpec& spec, uint64_t seed,
                           bool trace, int rounds, int traced_rounds) {
  std::string opts = "{\"commit_pipeline\": {\"value\": " +
                     std::string(kCommitPipeline ? "true" : "false") +
                     ", \"why\": " + Json(kCommitPipelineWhy) + "}";
  if (spec.durable) {
    opts += ", \"dir\": {\"value\": \".bench_data/...\", \"why\": " +
            Json(kDurableDirWhy) + "}";
    opts += ", \"sync\": {\"value\": \"kFsync\", \"why\": " +
            Json(kDurableSyncWhy) + "}";
    opts += ", \"env\": {\"value\": \"FaultInjectionEnv\", \"why\": " +
            Json(trace ? kTracedEnvWhy : kDurableEnvWhy) + "}";
  }
  opts += "}";
  char work[512];
  std::snprintf(
      work, sizeof(work),
      "{\"writers\": %d, \"txns_per_writer\": %lld, \"inserts_per_txn\": %d, "
      "\"delete_oldest\": %s, \"groups\": %lld, \"regions\": %lld, "
      "\"preload_rows\": %lld, \"maintenance_passes\": %d, "
      "\"reader_ops_per_s\": %d}",
      spec.writers, static_cast<long long>(spec.txns_per_writer),
      spec.inserts_per_txn, spec.delete_oldest ? "true" : "false",
      static_cast<long long>(spec.groups),
      static_cast<long long>(spec.regions),
      static_cast<long long>(spec.preload_rows), spec.maintenance_passes,
      spec.reader_ops_per_s);
  return std::string("{\"provenance\": {\"workload\": ") + Json(spec.name) +
         ", \"why\": " + Json(spec.why) + ", \"seed\": " +
         std::to_string(seed) + ", \"build_type\": " +
         Json(ENGINEBENCH_BUILD_TYPE) + ", \"ivdb_checks\": " +
         Json(ENGINEBENCH_IVDB_CHECKS) + ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"rounds\": " + std::to_string(rounds) +
         ", \"traced_rounds\": " + std::to_string(traced_rounds) +
         ", \"work_per_round\": " + work + ", \"options\": " + opts + "}}";
}

std::string DataDir(const WorkloadSpec& spec, uint64_t seed) {
  return ".bench_data/" + std::string(spec.name) + "-" +
         std::to_string(seed) + "-" + std::to_string(getpid());
}

// ---------------------------------------------------------------------------
// Commands

int RunBenchmark(const WorkloadSpec& spec, uint64_t seed, double seconds,
                 bool trace) {
  const Stream stream = GenerateStream(spec, seed);
  // Untraced-only runs take at least 3 rounds; traced runs alternate
  // untraced and traced rounds and take at least 2 of each.
  const int min_rounds = trace ? 4 : 3;
  std::vector<RoundResult> rounds;
  const uint64_t deadline = NowNanos() + static_cast<uint64_t>(seconds * 1e9);
  while (static_cast<int>(rounds.size()) < min_rounds ||
         NowNanos() < deadline) {
    RoundOptions ro;
    ro.traced = trace && rounds.size() % 2 == 1;
    if (spec.durable) ro.dir = DataDir(spec, seed);
    ro.seed = seed;
    rounds.push_back(Round(spec, stream, ro).Run());
    if (!rounds.back().error.empty()) break;
  }
  std::error_code ec;
  std::filesystem::remove(".bench_data", ec);  // only if empty

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<const RoundResult*> plain, traced;
  for (const RoundResult& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    if (!r.error.empty()) {
      std::fprintf(stderr, "engine_bench: output check failed: %s\n",
                   r.error.c_str());
      correct = false;
    }
    if (!r.first_failure.empty()) {
      std::fprintf(stderr, "engine_bench: operation failed: %s\n",
                   r.first_failure.c_str());
    }
    (r.traced ? traced : plain).push_back(&r);
  }
  std::vector<Metric> metrics;
  if (trace) {
    metrics = PerLayer(traced, plain);
    if (!traced.empty()) {
      std::vector<Span> spans = traced.back()->spans;
      std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
        return a.start_ns < b.start_ns;
      });
      std::filesystem::create_directories(".bench_out");
      const std::string path = ".bench_out/" + std::string(spec.name) +
                               "-seed" + std::to_string(seed) + ".trace.json";
      if (!spans.empty() &&
          !WriteChromeTrace(path, spans, spans.front().start_ns,
                            kMaxTraceEvents)) {
        Die("cannot write %s", path.c_str());
      }
      std::fprintf(stderr, "engine_bench: trace written to %s\n",
                   path.c_str());
    }
  } else {
    metrics = EndToEnd(plain);
  }
  std::printf("%s\n", ProvenanceJson(spec, seed, trace, rounds.size(),
                                     traced.size())
                          .c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  return correct ? 0 : 1;
}

// The same seed gives the same operation stream; another seed does not.
int SelfTestStreams() {
  int failures = 0;
  for (const WorkloadSpec& w : kWorkloads) {
    const WorkloadSpec spec = Quick(w);
    const uint64_t a = GenerateStream(spec, 7).Hash();
    const uint64_t b = GenerateStream(spec, 7).Hash();
    const uint64_t c = GenerateStream(spec, 8).Hash();
    const bool ok = a == b && a != c;
    std::printf("streams %-18s same seed %s, other seed %s: %s\n", spec.name,
                a == b ? "equal" : "DIFFERENT", a != c ? "different" : "EQUAL",
                ok ? "ok" : "FAIL");
    failures += !ok;
  }
  return failures == 0 ? 0 : 1;
}

// durable_churn under FaultInjectionEnv, crashed after the phase; recovery
// must return every acknowledged commit.
int SelfTestCrash(uint64_t seed) {
  const WorkloadSpec spec = Quick(*FindWorkload("durable_churn"));
  const Stream stream = GenerateStream(spec, seed);
  RoundOptions ro;
  ro.dir = DataDir(spec, seed) + "-crash";
  ro.seed = seed;
  ro.crash = true;
  RoundResult r = Round(spec, stream, ro).Run();
  std::error_code ec;
  std::filesystem::remove(".bench_data", ec);
  const bool ok = r.error.empty() && r.failed == 0 && r.committed > 0;
  std::printf("crash durable_churn: %llu acknowledged commits %s\n",
              static_cast<unsigned long long>(r.committed),
              ok ? "recovered: ok" : ("FAIL " + r.error).c_str());
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: engine_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--quick]\n"
               "       engine_bench --self-test-streams\n"
               "       engine_bench --self-test-crash [--seed <n>]\n"
               "workloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace enginebench
}  // namespace ivdb

int main(int argc, char** argv) {
  using namespace ivdb::enginebench;
  std::string workload, mode;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false, quick = false;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(Usage());
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value() == "1";
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--self-test-streams" || arg == "--self-test-crash") {
      mode = arg;
    } else {
      return Usage();
    }
  }
  if (mode == "--self-test-streams") return SelfTestStreams();
  if (mode == "--self-test-crash") return SelfTestCrash(seed);
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || !(seconds > 0 && seconds <= 600)) return Usage();
  return RunBenchmark(quick ? Quick(*spec) : *spec, seed, seconds, trace);
}
