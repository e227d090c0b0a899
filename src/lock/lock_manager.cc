#include "lock/lock_manager.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/lock_order.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace ivdb {

namespace {

// Default stripe count. Sixteen independent cache-line-aligned buckets is
// enough that a committer fleet hashing random keys almost never collides,
// while keeping the fixed footprint trivial.
constexpr size_t kDefaultLockStripes = 16;

}  // namespace

LockManagerMetrics::LockManagerMetrics(obs::MetricsRegistry* registry)
    : acquisitions(registry->GetCounter("ivdb_lock_acquisitions_total")),
      immediate_grants(
          registry->GetCounter("ivdb_lock_immediate_grants_total")),
      waits(registry->GetCounter("ivdb_lock_waits_total")),
      deadlocks(registry->GetCounter("ivdb_lock_deadlocks_total")),
      timeouts(registry->GetCounter("ivdb_lock_timeouts_total")),
      conversions(registry->GetCounter("ivdb_lock_conversions_total")),
      wait_micros(registry->GetCounter("ivdb_lock_wait_micros_total")),
      escalations(registry->GetCounter("ivdb_lock_escalations_total")),
      covered_by_object_lock(
          registry->GetCounter("ivdb_lock_covered_by_object_lock_total")),
      wait_latency(registry->GetHistogram("ivdb_lock_wait_micros")) {}

LockManager::LockManager(Options options)
    : options_(options),
      owned_registry_(options.metrics == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : owned_registry_.get()),
      clock_(options.clock != nullptr ? options.clock : Clock::Default()) {
  const size_t n =
      options_.stripes != 0 ? options_.stripes : kDefaultLockStripes;
  stripes_.reserve(n);
  for (size_t i = 0; i < n; i++) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

std::string ResourceId::ToString() const {
  std::string out = "obj" + std::to_string(object_id);
  if (!key.empty()) {
    out += "/key(";
    for (char c : key) {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned char>(c));
      out += buf;
    }
    out += ")";
  }
  return out;
}

LockManager::Stripe& LockManager::StripeFor(const ResourceId& res) const {
  size_t h = std::hash<uint32_t>{}(res.object_id);
  h ^= std::hash<std::string>{}(res.key) + 0x9e3779b97f4a7c15ULL + (h << 6) +
       (h >> 2);
  return *stripes_[h % stripes_.size()];
}

Status LockManager::Lock(TxnId txn, const ResourceId& res, LockMode mode) {
  return LockInternal(txn, res, mode, /*wait=*/true);
}

Status LockManager::TryLock(TxnId txn, const ResourceId& res, LockMode mode) {
  return LockInternal(txn, res, mode, /*wait=*/false);
}

bool LockManager::CanGrant(const Stripe& stripe, const LockQueue& queue,
                           const LockRequest& req) const {
  (void)stripe;
  bool is_conversion = req.converting_from != LockMode::kNL;
  for (const LockRequest& other : queue.requests) {
    if (&other == &req) {
      // Fresh requests queue FIFO: anything after our own position arrived
      // later and cannot block us. Conversions keep scanning — they must be
      // compatible with *every* other holder regardless of position.
      if (!is_conversion) break;
      continue;
    }
    // A waiting conversion still *holds* its original mode; its target mode
    // is not held yet. Granted requests hold `mode`.
    LockMode held =
        other.granted ? other.mode : other.converting_from;
    if (held != LockMode::kNL) {
      if (!LockModesCompatible(req.mode, held)) return false;
    }
    if (!other.granted && !is_conversion) {
      // Strict FIFO among fresh waiters: do not overtake an earlier waiter.
      // (Conversions may overtake: they already hold a lock here, and making
      // them queue behind fresh waiters would turn every upgrade into a
      // deadlock with the waiter.)
      return false;
    }
  }
  return true;
}

void LockManager::RollbackRequest(const Stripe& stripe, const ResourceId& res,
                                  LockQueue* queue,
                                  std::list<LockRequest>::iterator request,
                                  bool is_conversion, LockMode restore_mode) {
  if (is_conversion) {
    // If the conversion was granted in a window where the stripe was
    // unlocked (deadlock verdict racing a grant), this simply downgrades
    // back — semantically the conversion never happened.
    request->mode = restore_mode;
    request->converting_from = LockMode::kNL;
    request->granted = true;
  } else {
    queue->requests.erase(request);
  }
  GrantWaiters(stripe, res, queue);
}

Status LockManager::LockInternal(TxnId txn, const ResourceId& res,
                                 LockMode mode, bool wait) {
  metrics_.acquisitions->Add();

  // Answered from the transaction's own record, without the lock table:
  // a request its granted mode already covers is a no-op, and a key
  // request implied by a held object-level lock (e.g. after escalation) is
  // granted without creating a key-level request at all. The record is
  // stable here: only this transaction's requests (serialized by its
  // engine owner latch) change it.
  {
    TxnShard& shard = ShardFor(txn);
    MutexLock shard_guard(&shard.txn_shard_mu_);
    auto record_it = shard.txns.find(txn);
    if (record_it != shard.txns.end()) {
      const TxnLocks& record = record_it->second;
      if (!res.IsObjectLevel()) {
        const LockMode object_mode =
            record.ModeOf(ResourceId::Object(res.object_id));
        if (object_mode != LockMode::kNL &&
            LockModeCovers(object_mode, mode)) {
          metrics_.covered_by_object_lock->Add();
          metrics_.immediate_grants->Add();
          return Status::OK();
        }
      }
      const LockMode held = record.ModeOf(res);
      if (held != LockMode::kNL && LockModeCovers(held, mode)) {
        metrics_.immediate_grants->Add();
        return Status::OK();  // already strong enough
      }
    }
  }

  Stripe& stripe = StripeFor(res);
  UniqueMutexLock guard(&stripe.lock_stripe_mu_);

  auto& queue_ptr = stripe.queues[res];
  if (queue_ptr == nullptr) queue_ptr = std::make_unique<LockQueue>();
  LockQueue* queue = queue_ptr.get();

  // Locate an existing request by this transaction.
  auto it = std::find_if(queue->requests.begin(), queue->requests.end(),
                         [txn](const LockRequest& r) { return r.txn == txn; });

  bool is_conversion = false;
  LockMode restore_mode = LockMode::kNL;
  if (it != queue->requests.end()) {
    // The record said the held mode does not cover `mode`, so this is a
    // conversion (the record and the queue agree on the held mode).
    IVDB_CHECK_MSG(it->granted, "transaction already waiting on this lock");
    IVDB_CHECK_MSG(!LockModeCovers(it->mode, mode),
                   "lock record out of step with the lock table");
    // Lock conversion: keep position (within the granted region), switch to
    // the supremum mode, and wait until compatible with all other holders.
    is_conversion = true;
    restore_mode = it->mode;
    it->converting_from = it->mode;
    it->mode = LockModeSupremum(it->mode, mode);
    it->granted = false;
    metrics_.conversions->Add();
  } else {
    queue->requests.push_back(LockRequest{txn, mode, LockMode::kNL, false});
    it = std::prev(queue->requests.end());
  }
  const LockMode target = it->mode;

  if (CanGrant(stripe, *queue, *it)) {
    it->granted = true;
    it->converting_from = LockMode::kNL;
    metrics_.immediate_grants->Add();
    guard.Unlock();
    FinishGrant(txn, res, target, is_conversion);
    return Status::OK();
  }

  if (!wait) {
    RollbackRequest(stripe, res, queue, it, is_conversion, restore_mode);
    return Status::Busy("lock not immediately available: " + res.ToString());
  }

  // The request is queued; release the stripe before touching the graph
  // (stripes rank above graph_mu_, never the reverse). The queue entry —
  // and therefore `queue` and `it` — stay valid while unlocked: only this
  // transaction may erase its own request, and a queue with requests in it
  // is never reclaimed.
  guard.Unlock();

  // Recorded before the deadlock probe so a victim's trace still shows what
  // it was about to wait on when the detector chose it.
  obs::EmitTrace(obs::TraceEventType::kLockWait, res.object_id,
                 res.IsObjectLevel() ? 0 : 1);

  // Publish the wait edge and probe for a cycle in ONE graph_mu_ critical
  // section: every edge is published before its owner's DFS runs, so the
  // last transaction to close a cycle is guaranteed to observe the whole
  // cycle and elect itself the victim.
  bool deadlock = false;
  {
    MutexLock graph_guard(&graph_mu_);
    waiting_on_[txn] = res;
    if (options_.detect_deadlocks && WouldDeadlockLocked(txn)) {
      waiting_on_.erase(txn);
      deadlock = true;
    }
  }
  if (deadlock) {
    guard.Lock();
    RollbackRequest(stripe, res, queue, it, is_conversion, restore_mode);
    guard.Unlock();
    metrics_.deadlocks->Add();
    obs::EmitTrace(obs::TraceEventType::kLockDeadlock, res.object_id);
    return Status::Deadlock(std::string("deadlock acquiring ") +
                            LockModeName(mode) + " on " + res.ToString());
  }

  metrics_.waits->Add();
  // Wait accounting goes through the Clock seam (virtual time in tests);
  // the condition-variable deadline below necessarily stays on real time.
  const uint64_t wait_start = clock_->NowMicros();
  const auto deadline =
      std::chrono::steady_clock::now() + options_.wait_timeout;
  bool granted = false;
  guard.Lock();
  while (true) {
    if (it->granted) {
      // Possibly granted while the stripe was unlocked around the deadlock
      // probe — the predicate check before the first wait catches it.
      granted = true;
      break;
    }
    if (queue->cv.WaitUntil(&guard, deadline) == std::cv_status::timeout) {
      // Re-check once under the lock: the grant may have raced the timeout.
      granted = it->granted;
      break;
    }
  }
  if (!granted) {
    RollbackRequest(stripe, res, queue, it, is_conversion, restore_mode);
  }
  guard.Unlock();
  {
    MutexLock graph_guard(&graph_mu_);
    waiting_on_.erase(txn);
  }
  const uint64_t waited = clock_->NowMicros() - wait_start;
  metrics_.wait_micros->Add(waited);
  metrics_.wait_latency->Record(waited);
  if (granted) {
    obs::EmitTrace(obs::TraceEventType::kLockGrant, res.object_id, waited);
    FinishGrant(txn, res, target, is_conversion);
    return Status::OK();
  }
  metrics_.timeouts->Add();
  obs::EmitTrace(obs::TraceEventType::kLockTimeout, res.object_id, waited);
  return Status::TimedOut("lock wait timeout on " + res.ToString());
}

void LockManager::FinishGrant(TxnId txn, const ResourceId& res,
                              LockMode granted, bool is_conversion) {
  // Runs after the stripe is released: a record only changes through its
  // own transaction's requests, so nothing can observe the gap.
  TxnShard& shard = ShardFor(txn);
  MutexLock shard_guard(&shard.txn_shard_mu_);
  TxnLocks& record = shard.txns[txn];
  record.held.insert_or_assign(res, granted);
  if (is_conversion || res.IsObjectLevel()) return;
  const size_t count = ++record.key_counts[res.object_id];
  if (options_.escalation_threshold > 0 &&
      count >= options_.escalation_threshold) {
    TryEscalateLocked(shard, &record, txn, res.object_id);
  }
}

void LockManager::GrantWaiters(const Stripe& stripe, const ResourceId& res,
                               LockQueue* queue) {
  (void)res;
  bool any_granted = false;
  bool fresh_blocked = false;
  for (LockRequest& req : queue->requests) {
    if (req.granted) continue;
    bool is_conversion = req.converting_from != LockMode::kNL;
    if (!is_conversion && fresh_blocked) continue;
    if (CanGrant(stripe, *queue, req)) {
      req.granted = true;
      req.converting_from = LockMode::kNL;
      any_granted = true;
    } else if (!is_conversion) {
      fresh_blocked = true;
    }
  }
  if (any_granted) queue->cv.NotifyAll();
}

std::vector<TxnId> LockManager::BlockersOfLocked(TxnId txn) const {
  std::vector<TxnId> blockers;
  auto wait_it = waiting_on_.find(txn);
  if (wait_it == waiting_on_.end()) return blockers;
  const ResourceId& res = wait_it->second;

  // Re-read live queue state under the resource's stripe (taken inside
  // graph_mu_, 28 -> 30, one stripe at a time). A stale wait edge — its
  // owner already granted — yields no blockers here.
  Stripe& stripe = StripeFor(res);
  MutexLock stripe_guard(&stripe.lock_stripe_mu_);
  auto queue_it = stripe.queues.find(res);
  if (queue_it == stripe.queues.end()) return blockers;
  const LockQueue& queue = *queue_it->second;

  auto self = std::find_if(queue.requests.begin(), queue.requests.end(),
                           [txn](const LockRequest& r) { return r.txn == txn; });
  if (self == queue.requests.end() || self->granted) return blockers;
  bool is_conversion = self->converting_from != LockMode::kNL;

  for (auto it = queue.requests.begin(); it != queue.requests.end(); ++it) {
    if (it->txn == txn) {
      if (!is_conversion && it == self) break;  // fresh: earlier reqs only
      continue;
    }
    LockMode held = it->granted ? it->mode : it->converting_from;
    if (held != LockMode::kNL && !LockModesCompatible(self->mode, held)) {
      blockers.push_back(it->txn);
    } else if (!it->granted && !is_conversion) {
      // An earlier fresh waiter blocks us through FIFO ordering.
      blockers.push_back(it->txn);
    }
  }
  return blockers;
}

bool LockManager::WouldDeadlockLocked(TxnId requester) const {
  // DFS over the waits-for graph looking for a cycle back to `requester`.
  std::vector<TxnId> stack = BlockersOfLocked(requester);
  std::set<TxnId> visited;
  while (!stack.empty()) {
    TxnId t = stack.back();
    stack.pop_back();
    if (t == requester) return true;
    if (!visited.insert(t).second) continue;
    for (TxnId b : BlockersOfLocked(t)) stack.push_back(b);
  }
  return false;
}

void LockManager::EraseRequest(Stripe& stripe, TxnId txn,
                               const ResourceId& res, LockQueue* queue) {
  queue->requests.remove_if(
      [txn](const LockRequest& r) { return r.txn == txn; });
  GrantWaiters(stripe, res, queue);
  if (queue->requests.empty()) stripe.queues.erase(res);
}

void LockManager::ReleaseAll(TxnId txn) {
  // Take the record out of its shard first, then walk the stripes one at a
  // time. The record cannot change in between: only the owning transaction
  // adds entries, and it is not running — it is here. It is not waiting
  // either, so it has no waits-for edge to clear.
  TxnLocks record;
  {
    TxnShard& shard = ShardFor(txn);
    MutexLock shard_guard(&shard.txn_shard_mu_);
    auto it = shard.txns.find(txn);
    if (it == shard.txns.end()) return;
    record = std::move(it->second);
    shard.txns.erase(it);
  }
  for (const auto& [res, mode] : record.held) {
    Stripe& stripe = StripeFor(res);
    MutexLock stripe_guard(&stripe.lock_stripe_mu_);
    auto queue_it = stripe.queues.find(res);
    if (queue_it == stripe.queues.end()) continue;
    EraseRequest(stripe, txn, res, queue_it->second.get());
  }
}

void LockManager::Unlock(TxnId txn, const ResourceId& res) {
  {
    Stripe& stripe = StripeFor(res);
    MutexLock stripe_guard(&stripe.lock_stripe_mu_);
    auto queue_it = stripe.queues.find(res);
    if (queue_it != stripe.queues.end()) {
      EraseRequest(stripe, txn, res, queue_it->second.get());
    }
  }
  TxnShard& shard = ShardFor(txn);
  MutexLock shard_guard(&shard.txn_shard_mu_);
  auto it = shard.txns.find(txn);
  if (it == shard.txns.end()) return;
  TxnLocks& record = it->second;
  if (record.held.erase(res) == 0) return;
  if (!res.IsObjectLevel()) {
    auto count_it = record.key_counts.find(res.object_id);
    if (count_it != record.key_counts.end() && count_it->second > 0) {
      count_it->second--;
    }
  }
  if (record.held.empty()) shard.txns.erase(it);
}

LockMode LockManager::HeldMode(TxnId txn, const ResourceId& res) const {
  TxnShard& shard = ShardFor(txn);
  MutexLock shard_guard(&shard.txn_shard_mu_);
  auto it = shard.txns.find(txn);
  return it == shard.txns.end() ? LockMode::kNL : it->second.ModeOf(res);
}

void LockManager::TryEscalateLocked(TxnShard& shard, TxnLocks* record,
                                    TxnId txn, uint32_t object_id) {
  (void)shard;
  // Collect this txn's granted key locks on the object and derive the
  // escalation target: S when everything held is shared, X otherwise
  // (an object-level E would not license arbitrary key access). The modes
  // come from the record; no other request of this transaction is in
  // flight, so each is the mode its queue holds.
  std::vector<ResourceId> key_locks;
  bool all_shared = true;
  for (auto it = record->held.upper_bound(ResourceId::Object(object_id));
       it != record->held.end() && it->first.object_id == object_id; ++it) {
    if (it->second != LockMode::kS && it->second != LockMode::kIS) {
      all_shared = false;
    }
    key_locks.push_back(it->first);
  }
  if (key_locks.empty()) return;
  const LockMode target = all_shared ? LockMode::kS : LockMode::kX;

  // Upgrade (or freshly take) the object-level lock, without waiting. The
  // object queue alone arbitrates this: every transaction touching keys of
  // the object holds an intention mode on the object, so a grant against
  // this one queue is a grant against all concurrent key activity — no
  // cross-stripe atomicity is needed.
  const ResourceId object_res = ResourceId::Object(object_id);
  LockMode object_mode;
  {
    Stripe& object_stripe = StripeFor(object_res);
    MutexLock object_guard(&object_stripe.lock_stripe_mu_);
    auto& queue_ptr = object_stripe.queues[object_res];
    if (queue_ptr == nullptr) queue_ptr = std::make_unique<LockQueue>();
    LockQueue* queue = queue_ptr.get();
    auto self =
        std::find_if(queue->requests.begin(), queue->requests.end(),
                     [txn](const LockRequest& r) { return r.txn == txn; });
    if (self != queue->requests.end()) {
      if (!self->granted) return;  // waiting on the object already: bail
      if (!LockModeCovers(self->mode, target)) {
        LockMode restore = self->mode;
        self->converting_from = self->mode;
        self->mode = LockModeSupremum(self->mode, target);
        self->granted = false;
        if (CanGrant(object_stripe, *queue, *self)) {
          self->granted = true;
          self->converting_from = LockMode::kNL;
        } else {
          self->mode = restore;
          self->converting_from = LockMode::kNL;
          self->granted = true;
          return;  // conflicting holders: try again at the next trigger
        }
      }
      // else: already strong enough (repeat escalation attempt).
      object_mode = self->mode;
    } else {
      queue->requests.push_back(
          LockRequest{txn, target, LockMode::kNL, false});
      auto inserted = std::prev(queue->requests.end());
      if (!CanGrant(object_stripe, *queue, *inserted)) {
        queue->requests.erase(inserted);
        if (queue->requests.empty()) object_stripe.queues.erase(object_res);
        return;
      }
      inserted->granted = true;
      object_mode = target;
    }
  }
  record->held.insert_or_assign(object_res, object_mode);

  // Escalated: the key locks are now redundant — drop them so the lock
  // table shrinks (the point of the exercise).
  for (const ResourceId& res : key_locks) {
    Stripe& stripe = StripeFor(res);
    MutexLock stripe_guard(&stripe.lock_stripe_mu_);
    auto queue_it = stripe.queues.find(res);
    if (queue_it != stripe.queues.end()) {
      EraseRequest(stripe, txn, res, queue_it->second.get());
    }
    record->held.erase(res);
  }
  record->key_counts.erase(object_id);
  metrics_.escalations->Add();
  obs::EmitTrace(obs::TraceEventType::kLockEscalation, object_id,
                 key_locks.size());
}

int LockManager::NumHolders(const ResourceId& res) const {
  Stripe& stripe = StripeFor(res);
  MutexLock guard(&stripe.lock_stripe_mu_);
  auto queue_it = stripe.queues.find(res);
  if (queue_it == stripe.queues.end()) return 0;
  int n = 0;
  for (const LockRequest& r : queue_it->second->requests) {
    // A waiting conversion still holds its original lock.
    if (r.granted || r.converting_from != LockMode::kNL) n++;
  }
  return n;
}

}  // namespace ivdb
