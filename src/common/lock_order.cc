#include "common/lock_order.h"

namespace ivdb {

const char* LockRankName(LockRank rank) {
  // No default: -Wswitch flags an enumerator added without a name here.
  switch (rank) {
    case LockRank::kCkptThread: return "kCkptThread";
    case LockRank::kCheckpointSerial: return "kCheckpointSerial";
    case LockRank::kTxnWatchdog: return "kTxnWatchdog";
    case LockRank::kTxnOwner: return "kTxnOwner";
    case LockRank::kEngineIndexes: return "kEngineIndexes";
    case LockRank::kEngineViews: return "kEngineViews";
    case LockRank::kTxnActive: return "kTxnActive";
    case LockRank::kEpochSlot: return "kEpochSlot";
    case LockRank::kTxnVisibility: return "kTxnVisibility";
    case LockRank::kTxnEpoch: return "kTxnEpoch";
    case LockRank::kLockGraph: return "kLockGraph";
    case LockRank::kLockTxn: return "kLockTxn";
    case LockRank::kLockManager: return "kLockManager";
    case LockRank::kScanCache: return "kScanCache";
    case LockRank::kVersionPending: return "kVersionPending";
    case LockRank::kVersionRetire: return "kVersionRetire";
    case LockRank::kVersionStore: return "kVersionStore";
    case LockRank::kBtreeLatch: return "kBtreeLatch";
    case LockRank::kWalFlush: return "kWalFlush";
    case LockRank::kWalSegments: return "kWalSegments";
    case LockRank::kWalBuffer: return "kWalBuffer";
    case LockRank::kCatalog: return "kCatalog";
    case LockRank::kMetricsRegistry: return "kMetricsRegistry";
    case LockRank::kFlightRing: return "kFlightRing";
    case LockRank::kTraceRing: return "kTraceRing";
    case LockRank::kFaultEnv: return "kFaultEnv";
  }
  return nullptr;
}

}  // namespace ivdb

#if IVDB_CHECKS_ENABLED

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace ivdb {
namespace {

constexpr int kMaxHeld = 16;
// Ranks index the edge/name tables directly.
constexpr int kMaxRank = kMaxLockRank;

struct HeldLock {
  LockRank rank;
  const char* name;
};

thread_local HeldLock t_held[kMaxHeld];
thread_local int t_depth = 0;

// Global (cross-thread) record of every acquisition-order edge ever
// observed: edge[a][b] is set when some thread acquired rank b while
// holding rank a. Used only to print the cycle in the violation report.
std::atomic<bool> g_edges[kMaxRank + 1][kMaxRank + 1];
// First name seen for each rank, for readable reports.
std::atomic<const char*> g_rank_names[kMaxRank + 1];

int RankIndex(LockRank rank) {
  int idx = static_cast<int>(rank);
  return (idx >= 0 && idx <= kMaxRank) ? idx : 0;
}

const char* RankName(int idx) {
  const char* name = g_rank_names[idx].load(std::memory_order_relaxed);
  return name != nullptr ? name : "?";
}

[[noreturn]] void ReportViolation(LockRank rank, const char* name,
                                  const HeldLock& conflicting) {
  std::fprintf(stderr,
               "ivdb lock-order violation: acquiring %s (rank %d) while "
               "holding %s (rank %d)\n",
               name, static_cast<int>(rank), conflicting.name,
               static_cast<int>(conflicting.rank));
  std::fprintf(stderr, "  held by this thread (acquisition order):\n");
  for (int i = 0; i < t_depth; i++) {
    std::fprintf(stderr, "    [%d] %s (rank %d)\n", i, t_held[i].name,
                 static_cast<int>(t_held[i].rank));
  }
  // The cycle this edge closes: the reverse edge (or a path) already exists
  // in the observed-order graph by construction of the rank order; print
  // the two-edge cycle the violation itself demonstrates.
  int from = RankIndex(conflicting.rank);
  int to = RankIndex(rank);
  std::fprintf(stderr, "  cycle: %s -> %s -> %s", RankName(to), RankName(from),
               RankName(to));
  if (g_edges[to][from].load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "  (edge %s -> %s observed on an earlier acquisition)",
                 RankName(to), RankName(from));
  }
  std::fprintf(stderr, "\n");
  std::abort();
}

void RecordHeld(LockRank rank, const char* name) {
  int idx = RankIndex(rank);
  const char* expected = nullptr;
  g_rank_names[idx].compare_exchange_strong(expected, name,
                                            std::memory_order_relaxed);
  if (t_depth > 0) {
    g_edges[RankIndex(t_held[t_depth - 1].rank)][idx].store(
        true, std::memory_order_relaxed);
  }
  if (t_depth < kMaxHeld) {
    t_held[t_depth] = HeldLock{rank, name};
  }
  t_depth++;
}

}  // namespace

void LockOrderAcquire(LockRank rank, const char* name) {
  for (int i = 0; i < t_depth; i++) {
    if (t_held[i].rank >= rank) ReportViolation(rank, name, t_held[i]);
  }
  RecordHeld(rank, name);
}

void LockOrderAcquireTry(LockRank rank, const char* name) {
  // No order check: a successful non-blocking probe cannot close a wait
  // cycle. The rank still goes on the stack so everything acquired while
  // the probe's lock is held is ordered against it.
  RecordHeld(rank, name);
}

void LockOrderRelease(LockRank rank) {
  // Non-LIFO release: drop the most recent entry with this rank.
  for (int i = (t_depth < kMaxHeld ? t_depth : kMaxHeld) - 1; i >= 0; i--) {
    if (t_held[i].rank == rank) {
      for (int j = i; j + 1 < t_depth && j + 1 < kMaxHeld; j++) {
        t_held[j] = t_held[j + 1];
      }
      t_depth--;
      return;
    }
  }
  // Release without matching acquire: scope misuse.
  std::fprintf(stderr,
               "ivdb lock-order: release of rank %d never acquired on this "
               "thread\n",
               static_cast<int>(rank));
  std::abort();
}

int LockOrderDepth() { return t_depth; }

}  // namespace ivdb

#endif  // IVDB_CHECKS_ENABLED
