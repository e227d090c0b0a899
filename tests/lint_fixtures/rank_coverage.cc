// Fixture: the clean twin of rank_coverage_broken.cc — the deleted mutex
// took its rank with it, so every enumerator keys a declaration and
// ivdb_lint --fixtures asserts ZERO findings (no LINT-EXPECT).

#include <string>

namespace ivdb {
namespace lint_fixture {

enum class LockRank : int {
  kFlush = 50,
  kBuffer = 60,
};

struct LogState {
  RankedMutex log_flush_mu_{LockRank::kFlush, "log_flush_mu_"};
  RankedMutex log_buf_mu_{LockRank::kBuffer, "log_buf_mu_"};
  std::string buffer IVDB_GUARDED_BY(log_buf_mu_);
};

}  // namespace lint_fixture
}  // namespace ivdb
