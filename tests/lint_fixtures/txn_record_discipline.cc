// Fixture: the clean twin of txn_record_nesting.cc — the order the lock
// manager actually uses, so ivdb_lint --fixtures asserts ZERO findings (no
// LINT-EXPECT).
//
//   * Grant bookkeeping takes the record shard only after the stripe is
//     released (sequential scopes).
//   * Escalation holds the record shard (rank kLockTxn) and visits the
//     stripes (rank kLockManager) one at a time beneath it.

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

QueueStripe stripe_a_;
QueueStripe stripe_b_;
RecordShard shard_;

void GrantThenBookkeep(const std::string& key) {
  {
    MutexLock stripe(&stripe_a_.queue_stripe_mu_);
    stripe_a_.queues[key] = 1;
  }
  MutexLock record(&shard_.record_shard_mu_);
  shard_.held[key] = 1;
}

void EscalateUnderRecord(const std::string& key) {
  MutexLock record(&shard_.record_shard_mu_);  // rank 29
  {
    MutexLock stripe(&stripe_a_.queue_stripe_mu_);  // rank 30, one at a time
    stripe_a_.queues.erase(key);
  }
  {
    MutexLock stripe(&stripe_b_.queue_stripe_mu_);
    stripe_b_.queues[key] = 2;
  }
  shard_.held.erase(key);
}

}  // namespace lint_fixture
}  // namespace ivdb
