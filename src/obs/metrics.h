#ifndef IVDB_OBS_METRICS_H_
#define IVDB_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ivdb {
namespace obs {

// Unified metrics layer (see docs/OBSERVABILITY.md).
//
// All instruments are cheap enough to leave compiled in on every hot path:
// counters and gauges are single relaxed atomics, histograms stripe their
// buckets across cache-line-aligned shards so concurrent recorders do not
// contend. The registry itself is only touched at component construction —
// every recording site holds a raw pointer obtained once.
//
// Naming scheme: `ivdb_<subsystem>_<what>[_total|_micros]`, optionally with
// a `{key="value"}` label suffix for per-instance metrics (one view, one
// cleaner). Names must render directly in Prometheus text exposition.

// Monotonically increasing counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Instantaneous signed value.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Bucketed latency/size histogram.
//
// Log-linear buckets: values 0..15 get exact buckets, above that each
// power-of-two octave is split into 16 linear sub-buckets, so the relative
// quantization error of any reported percentile is bounded by ~1/16 (6.25%).
// Values are clamped to kMaxValue (~2^40 µs ≈ 13 days).
//
// Recording picks a shard by thread identity and touches only relaxed
// atomics in that shard; Snapshot() merges all shards. Max/min are exact
// (CAS loops); percentiles interpolate inside the winning bucket. A shard
// (~4.9 KB of buckets) is allocated by the first Record that lands on it,
// so an engine's dozens of never-recorded histograms cost almost nothing.
class Histogram {
 public:
  static constexpr int kSubBits = 4;               // 16 sub-buckets per octave
  static constexpr int kSub = 1 << kSubBits;       // 16
  static constexpr int kBuckets = kSub * (40 - kSubBits + 1) + kSub;
  static constexpr uint64_t kMaxValue = (1ull << 40) - 1;

  void Record(uint64_t value);

  // Bucket index for `value` and the half-open value range [lower, upper)
  // a bucket covers. Exposed for tests and the text exposition.
  static size_t BucketFor(uint64_t value);
  static uint64_t BucketLowerBound(size_t bucket);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;  // exact; 0 when count == 0
    uint64_t max = 0;  // exact
    std::vector<uint64_t> buckets;  // merged counts, size kBuckets

    double Mean() const { return count > 0 ? double(sum) / count : 0; }
    // Interpolated percentile, q in [0, 100]. Exact at the recorded min/max
    // endpoints; elsewhere within one sub-bucket of the true value.
    double Percentile(double q) const;
    double P50() const { return Percentile(50); }
    double P95() const { return Percentile(95); }
    double P99() const { return Percentile(99); }
  };

  Snapshot Snap() const;

 private:
  static constexpr int kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{UINT64_MAX};
    std::atomic<uint64_t> max{0};
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
  };

  // This thread's shard, allocated on first use.
  Shard& ShardForThisThread();

  // owned_[i] is created once under once_[i]; published_[i] points at it
  // (release) so Snap() can skip untouched shards without synchronizing
  // with the creator.
  std::array<std::once_flag, kShards> once_;
  std::array<std::unique_ptr<Shard>, kShards> owned_;
  std::array<std::atomic<const Shard*>, kShards> published_{};
};

// `base{key="value"}` — the spelling RenderPrometheus() expects for
// per-instance instruments (one per view, one per cleaner). Applied to a
// name that already carries labels it splices the new pair into the
// existing set: WithLabel(WithLabel("m", "view", "v"), "stage", "s")
// yields `m{view="v",stage="s"}`.
inline std::string WithLabel(const std::string& base, const std::string& key,
                             const std::string& value) {
  if (!base.empty() && base.back() == '}') {
    return base.substr(0, base.size() - 1) + "," + key + "=\"" + value +
           "\"}";
  }
  return base + "{" + key + "=\"" + value + "\"}";
}

// Owner of named instruments. Get*() registers on first use and returns the
// same instance for the same name afterwards; pointers stay valid for the
// registry's lifetime. Thread-safe; intended to be called once per metric
// at component construction, not on hot paths.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Prometheus text exposition: `# TYPE` comments, `name value` samples;
  // histograms render as summaries (quantile labels + _sum/_count/_max).
  std::string RenderPrometheus() const;

 private:
  mutable RankedMutex registry_mu_{LockRank::kMetricsRegistry,
                                   "registry_mu_"};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      IVDB_GUARDED_BY(registry_mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      IVDB_GUARDED_BY(registry_mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      IVDB_GUARDED_BY(registry_mu_);
};

// `ivdb_mutex_contended_total{rank="kLockGraph"}` samples, one per lock
// rank: blocking acquisitions that found the mutex held (common/mutex.h).
// Process-wide — every engine instance in the process adds to the same
// counters — so they live outside any MetricsRegistry.
std::string RenderMutexContention();

}  // namespace obs
}  // namespace ivdb

#endif  // IVDB_OBS_METRICS_H_
