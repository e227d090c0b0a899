#include "common/mutex.h"

#include <atomic>

namespace ivdb {

namespace {

// One counter per rank, each on its own cache line: contended acquisitions
// of different ranks must not slow each other down through the counters.
struct alignas(64) ContendedCount {
  std::atomic<uint64_t> n{0};
};

ContendedCount g_contended[kMaxLockRank + 1];

size_t RankSlot(LockRank rank) {
  const int idx = static_cast<int>(rank);
  return idx >= 0 && idx <= kMaxLockRank ? static_cast<size_t>(idx) : 0;
}

}  // namespace

void NoteMutexContended(LockRank rank) {
  g_contended[RankSlot(rank)].n.fetch_add(1, std::memory_order_relaxed);
}

uint64_t MutexContendedCount(LockRank rank) {
  return g_contended[RankSlot(rank)].n.load(std::memory_order_relaxed);
}

}  // namespace ivdb
