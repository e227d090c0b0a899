// Fixture: taking a transaction's lock record after a lock-table stripe.
//
// The lock manager's per-transaction record shards (rank kLockTxn) sit
// below the lock-table stripes (rank kLockManager): escalation holds the
// record's shard while it visits stripes, so a path that holds a stripe
// and then reaches for a record shard closes a cycle with it. Grant
// bookkeeping must run after the stripe is released. ivdb_lint --fixtures
// asserts the rule fires.
//
// LINT-EXPECT: static-rank-inversion

#include <map>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ivdb {
namespace lint_fixture {

struct alignas(64) QueueStripe {
  RankedMutex queue_stripe_mu_{LockRank::kLockManager, "queue_stripe_mu_"};
  std::map<std::string, int> queues IVDB_GUARDED_BY(queue_stripe_mu_);
};

struct alignas(64) RecordShard {
  RankedMutex record_shard_mu_{LockRank::kLockTxn, "record_shard_mu_"};
  std::map<std::string, int> held IVDB_GUARDED_BY(record_shard_mu_);
};

QueueStripe stripe_;
RecordShard shard_;

void BookkeepUnderStripe(const std::string& key) {
  MutexLock stripe(&stripe_.queue_stripe_mu_);
  stripe_.queues[key] = 1;
  // Rank 29 under rank 30: the grant's bookkeeping must wait until the
  // stripe is released.
  MutexLock record(&shard_.record_shard_mu_);
  shard_.held[key] = 1;
}

}  // namespace lint_fixture
}  // namespace ivdb
