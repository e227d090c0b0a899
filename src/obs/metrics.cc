#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

namespace ivdb {
namespace obs {

namespace {

// Splits "base{labels}" so extra labels (quantile) can be spliced in.
void SplitName(const std::string& name, std::string* base,
               std::string* labels) {
  size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  // keep the inner `k="v"[,...]` part only
  size_t close = name.rfind('}');
  *labels = name.substr(brace + 1,
                        close == std::string::npos ? std::string::npos
                                                   : close - brace - 1);
}

std::string WithLabels(const std::string& base, const std::string& labels,
                       const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return base;
  std::string out = base + "{";
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ",";
  out += extra;
  out += "}";
  return out;
}

void AppendSample(std::string* out, const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  out->append(name);
  out->append(" ");
  out->append(buf);
  out->append("\n");
}

void AppendSample(std::string* out, const std::string& name, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out->append(name);
  out->append(" ");
  out->append(buf);
  out->append("\n");
}

}  // namespace

// --- Histogram ---

size_t Histogram::BucketFor(uint64_t value) {
  value = std::min(value, kMaxValue);
  if (value < kSub) return static_cast<size_t>(value);
  int msb = 63 - std::countl_zero(value);
  size_t base = static_cast<size_t>(kSub) +
                static_cast<size_t>(msb - kSubBits) * kSub;
  size_t offset =
      static_cast<size_t>((value >> (msb - kSubBits)) - kSub);
  return base + offset;
}

uint64_t Histogram::BucketLowerBound(size_t bucket) {
  if (bucket < 2 * kSub) return bucket;
  size_t group = bucket / kSub;
  size_t within = bucket % kSub;
  int msb = static_cast<int>(group) - 1 + kSubBits;
  return (static_cast<uint64_t>(kSub) + within) << (msb - kSubBits);
}

Histogram::Shard& Histogram::ShardForThisThread() {
  static std::atomic<size_t> next_stripe{0};
  thread_local size_t stripe =
      next_stripe.fetch_add(1, std::memory_order_relaxed);
  const size_t i = stripe % kShards;
  if (published_[i].load(std::memory_order_acquire) == nullptr) {
    std::call_once(once_[i], [&] {
      owned_[i] = std::make_unique<Shard>();
      published_[i].store(owned_[i].get(), std::memory_order_release);
    });
  }
  // Either the acquire load above or call_once ordered this read after
  // the creating store.
  return *owned_[i];
}

void Histogram::Record(uint64_t value) {
  value = std::min(value, kMaxValue);
  Shard& shard = ShardForThisThread();
  shard.buckets[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = shard.max.load(std::memory_order_relaxed);
  while (value > seen &&
         !shard.max.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
  }
  seen = shard.min.load(std::memory_order_relaxed);
  while (value < seen &&
         !shard.min.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  snap.buckets.assign(kBuckets, 0);
  uint64_t min_seen = UINT64_MAX;
  for (const auto& slot : published_) {
    const Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;  // never recorded into
    snap.count += shard->count.load(std::memory_order_relaxed);
    snap.sum += shard->sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, shard->max.load(std::memory_order_relaxed));
    min_seen = std::min(min_seen, shard->min.load(std::memory_order_relaxed));
    for (int b = 0; b < kBuckets; b++) {
      snap.buckets[b] += shard->buckets[b].load(std::memory_order_relaxed);
    }
  }
  snap.min = (snap.count == 0) ? 0 : min_seen;
  return snap;
}

double Histogram::Snapshot::Percentile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 100.0);
  double rank = q / 100.0 * static_cast<double>(count);
  if (rank <= 1) return static_cast<double>(min);
  if (rank >= static_cast<double>(count)) return static_cast<double>(max);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); b++) {
    if (buckets[b] == 0) continue;
    double before = static_cast<double>(cumulative);
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) >= rank) {
      double lower = static_cast<double>(BucketLowerBound(b));
      double upper = static_cast<double>(BucketLowerBound(b + 1));
      double fraction = (rank - before) / static_cast<double>(buckets[b]);
      double v = lower + (upper - lower) * fraction;
      return std::clamp(v, static_cast<double>(min),
                        static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

// --- MetricsRegistry ---

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock guard(&registry_mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock guard(&registry_mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock guard(&registry_mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::string MetricsRegistry::RenderPrometheus() const {
  MutexLock guard(&registry_mu_);
  std::string out;
  std::string base, labels;
  std::string last_typed;  // emit one # TYPE per base name
  for (const auto& [name, counter] : counters_) {
    SplitName(name, &base, &labels);
    if (base != last_typed) {
      out += "# TYPE " + base + " counter\n";
      last_typed = base;
    }
    AppendSample(&out, name, counter->Value());
  }
  last_typed.clear();
  for (const auto& [name, gauge] : gauges_) {
    SplitName(name, &base, &labels);
    if (base != last_typed) {
      out += "# TYPE " + base + " gauge\n";
      last_typed = base;
    }
    AppendSample(&out, name,
                 static_cast<double>(gauge->Value()));
  }
  last_typed.clear();
  for (const auto& [name, histogram] : histograms_) {
    SplitName(name, &base, &labels);
    Histogram::Snapshot snap = histogram->Snap();
    if (base != last_typed) {
      out += "# TYPE " + base + " summary\n";
      last_typed = base;
    }
    AppendSample(&out, WithLabels(base, labels, "quantile=\"0.5\""),
                 snap.P50());
    AppendSample(&out, WithLabels(base, labels, "quantile=\"0.95\""),
                 snap.P95());
    AppendSample(&out, WithLabels(base, labels, "quantile=\"0.99\""),
                 snap.P99());
    AppendSample(&out, WithLabels(base + "_sum", labels), snap.sum);
    AppendSample(&out, WithLabels(base + "_count", labels), snap.count);
    AppendSample(&out, WithLabels(base + "_min", labels), snap.min);
    AppendSample(&out, WithLabels(base + "_max", labels), snap.max);
  }
  return out;
}

std::string RenderMutexContention() {
  std::string out = "# TYPE ivdb_mutex_contended_total counter\n";
  for (int i = 0; i <= kMaxLockRank; i++) {
    const LockRank rank = static_cast<LockRank>(i);
    const char* name = LockRankName(rank);
    if (name == nullptr) continue;
    AppendSample(&out, WithLabel("ivdb_mutex_contended_total", "rank", name),
                 MutexContendedCount(rank));
  }
  return out;
}

}  // namespace obs
}  // namespace ivdb
