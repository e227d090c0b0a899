// Fixture: a lock rank that outlived the mutex it ordered.
//
// A miniature hierarchy in the shape of src/common/lock_order.h plus the
// members that use it. The batch-queue mutex that rank kBatchQueue once
// ordered has been deleted, but its enumerator stayed behind: the rank
// table now documents a lock that does not exist, and the next reader
// reasons about an order nothing takes. ivdb_lint --fixtures asserts the
// rule fires.
//
// LINT-EXPECT: unused-rank

#include <string>

namespace ivdb {
namespace lint_fixture {

enum class LockRank : int {
  kFlush = 50,
  kBatchQueue = 58,
  kBuffer = 60,
};

struct LogState {
  RankedMutex log_flush_mu_{LockRank::kFlush, "log_flush_mu_"};
  RankedMutex log_buf_mu_{LockRank::kBuffer, "log_buf_mu_"};
  std::string buffer IVDB_GUARDED_BY(log_buf_mu_);
};

}  // namespace lint_fixture
}  // namespace ivdb
