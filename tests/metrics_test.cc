#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"

namespace ivdb {
namespace obs {
namespace {

TEST(Counter, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Gauge, SetAddSigned) {
  Gauge g;
  g.Set(10);
  g.Add(-25);
  EXPECT_EQ(g.Value(), -15);
}

TEST(Registry, SameNameSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("ivdb_test_total");
  Counter* b = registry.GetCounter("ivdb_test_total");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.GetCounter("ivdb_other_total"));
  EXPECT_EQ(registry.GetHistogram("ivdb_lat_micros"),
            registry.GetHistogram("ivdb_lat_micros"));
  // Labelled variants are distinct instruments.
  EXPECT_NE(registry.GetCounter(WithLabel("ivdb_v_total", "view", "a")),
            registry.GetCounter(WithLabel("ivdb_v_total", "view", "b")));
}

TEST(HistogramBuckets, MonotonicAndInverse) {
  size_t prev = 0;
  for (uint64_t v : std::vector<uint64_t>{0, 1, 15, 16, 17, 100, 1000,
                                          123456, 1ull << 30,
                                          Histogram::kMaxValue}) {
    size_t b = Histogram::BucketFor(v);
    EXPECT_LT(b, static_cast<size_t>(Histogram::kBuckets));
    EXPECT_GE(b, prev);
    prev = b;
    // The bucket's lower bound never exceeds the value it holds.
    EXPECT_LE(Histogram::BucketLowerBound(b), v);
  }
}

TEST(Histogram, ExactSmallValues) {
  Histogram h;
  for (uint64_t v = 0; v < 16; v++) h.Record(v);
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 16u);
  EXPECT_EQ(s.sum, 120u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 15u);
}

// Percentiles must track a sorted-reference computation within the
// documented log-linear quantization error (~6.25%) plus interpolation
// slack.
TEST(Histogram, PercentilesMatchSortedReference) {
  Histogram h;
  Random rng(42);
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; i++) {
    // Skewed latency-like distribution spanning several octaves.
    uint64_t v = 10 + rng.Uniform(100) * rng.Uniform(100);
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  Histogram::Snapshot s = h.Snap();
  ASSERT_EQ(s.count, values.size());
  EXPECT_EQ(s.min, values.front());
  EXPECT_EQ(s.max, values.back());
  for (double q : {50.0, 90.0, 95.0, 99.0}) {
    double exact = static_cast<double>(
        values[std::min(values.size() - 1,
                        static_cast<size_t>(q / 100.0 * values.size()))]);
    double approx = s.Percentile(q);
    EXPECT_NEAR(approx, exact, exact * 0.10)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; i++) {
        h.Record(static_cast<uint64_t>(t) * 1000 + i % 977);
      }
    });
  }
  for (auto& t : threads) t.join();
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; t++) {
    for (uint64_t i = 0; i < kPerThread; i++) {
      expected_sum += static_cast<uint64_t>(t) * 1000 + i % 977;
    }
  }
  EXPECT_EQ(s.sum, expected_sum);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 7000u + 976u);
}

TEST(Histogram, EmptySnapshotIsZero) {
  Histogram h;
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.P50(), 0.0);
}

TEST(Histogram, SnapOfNeverRecordedHistogramIsAllZero) {
  Histogram h;
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  ASSERT_EQ(s.buckets.size(), static_cast<size_t>(Histogram::kBuckets));
  for (uint64_t b : s.buckets) EXPECT_EQ(b, 0u);
  EXPECT_EQ(s.P99(), 0.0);
  // Snapping allocates nothing: a later first Record still lands exactly.
  h.Record(42);
  s = h.Snap();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 42u);
  EXPECT_EQ(s.max, 42u);
}

// Shards are allocated by the first Record that lands on them. Two threads
// per shard race that first Record on a fresh histogram while the main
// thread snaps concurrently; nothing may be lost or double-allocated (run
// under TSan to check the publication too).
TEST(Histogram, ConcurrentFirstRecordRace) {
  constexpr int kThreads = 16;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; round++) {
    Histogram h;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        h.Record(static_cast<uint64_t>(t + 1));
        h.Record(static_cast<uint64_t>(t + 1));
      });
    }
    while (ready.load() < kThreads) std::this_thread::yield();
    go.store(true);
    uint64_t last_count = 0;
    while (last_count < 2 * kThreads) {
      const uint64_t count = h.Snap().count;
      EXPECT_GE(count, last_count);
      last_count = count;
      if (count < 2 * kThreads) std::this_thread::yield();
    }
    for (auto& t : threads) t.join();
    Histogram::Snapshot s = h.Snap();
    ASSERT_EQ(s.count, 2u * kThreads);
    EXPECT_EQ(s.sum, 2u * kThreads * (kThreads + 1) / 2);
    EXPECT_EQ(s.min, 1u);
    EXPECT_EQ(s.max, static_cast<uint64_t>(kThreads));
  }
}

// Parse the exposition text back into name -> value and check every sample
// round-trips. This is the contract ivdb_stats and the CI smoke job rely on.
TEST(Registry, RenderPrometheusRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("ivdb_commits_total")->Add(7);
  registry.GetGauge("ivdb_active")->Set(-3);
  registry.GetCounter(WithLabel("ivdb_view_total", "view", "by_grp"))->Add(2);
  Histogram* h = registry.GetHistogram("ivdb_commit_micros");
  for (uint64_t v = 1; v <= 100; v++) h->Record(v);

  std::string text = registry.RenderPrometheus();
  std::map<std::string, double> samples;
  std::map<std::string, std::string> types;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream hdr(line.substr(7));
      std::string name, type;
      hdr >> name >> type;
      ASSERT_TRUE(type == "counter" || type == "gauge" || type == "summary")
          << line;
      types[name] = type;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unexpected comment: " << line;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }

  EXPECT_EQ(samples.at("ivdb_commits_total"), 7);
  EXPECT_EQ(types.at("ivdb_commits_total"), "counter");
  EXPECT_EQ(samples.at("ivdb_active"), -3);
  EXPECT_EQ(samples.at("ivdb_view_total{view=\"by_grp\"}"), 2);
  EXPECT_EQ(samples.at("ivdb_commit_micros_count"), 100);
  EXPECT_EQ(samples.at("ivdb_commit_micros_sum"), 5050);
  EXPECT_EQ(samples.at("ivdb_commit_micros_min"), 1);
  EXPECT_EQ(samples.at("ivdb_commit_micros_max"), 100);
  EXPECT_EQ(types.at("ivdb_commit_micros"), "summary");
  double p50 = samples.at("ivdb_commit_micros{quantile=\"0.5\"}");
  EXPECT_NEAR(p50, 50, 50 * 0.10);
}

TEST(WithLabelHelper, SplicesIntoExistingLabelSet) {
  EXPECT_EQ(WithLabel("ivdb_m", "view", "v"), "ivdb_m{view=\"v\"}");
  EXPECT_EQ(WithLabel(WithLabel("ivdb_m", "view", "v"), "stage", "s"),
            "ivdb_m{view=\"v\",stage=\"s\"}");
  EXPECT_EQ(WithLabel(WithLabel(WithLabel("ivdb_m", "a", "1"), "b", "2"), "c",
                      "3"),
            "ivdb_m{a=\"1\",b=\"2\",c=\"3\"}");
}

// Multi-label instruments through the full exposition path: the spliced
// names must render as one metric family with distinct label sets, sharing
// a single # TYPE header — the shape Prometheus requires and the one the
// stage-latency metrics (ivdb_commit_stage_micros{stage=...}) rely on.
TEST(Registry, RenderPrometheusMultiLabel) {
  MetricsRegistry registry;
  for (const char* stage :
       {"staging_wait", "batch_assembly", "fsync", "flip_wait"}) {
    Histogram* h = registry.GetHistogram(
        WithLabel("ivdb_commit_stage_micros", "stage", stage));
    h->Record(10);
  }
  registry
      .GetCounter(WithLabel(WithLabel("ivdb_multi_total", "view", "by_grp"),
                            "stage", "apply"))
      ->Add(5);

  std::string text = registry.RenderPrometheus();
  // The two-label sample renders with both pairs, in splice order.
  EXPECT_NE(
      text.find("ivdb_multi_total{view=\"by_grp\",stage=\"apply\"} 5"),
      std::string::npos)
      << text;
  // All four stage variants expose their samples with the label set moved
  // after the _count/_sum suffix (the Prometheus summary shape) and their
  // quantile label spliced after the stage label.
  for (const char* stage :
       {"staging_wait", "batch_assembly", "fsync", "flip_wait"}) {
    const std::string set = "{stage=\"" + std::string(stage) + "\"}";
    EXPECT_NE(text.find("ivdb_commit_stage_micros_count" + set + " 1"),
              std::string::npos)
        << "missing count for " << stage << "\n"
        << text;
    EXPECT_NE(text.find("ivdb_commit_stage_micros{stage=\"" +
                        std::string(stage) + "\",quantile=\"0.5\"}"),
              std::string::npos)
        << "missing quantile for " << stage;
  }
  // The four labelled variants are one metric family: exactly one TYPE
  // header for the base name, naming the bare family (no labels).
  std::istringstream in(text);
  std::string line;
  size_t stage_type_lines = 0;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ivdb_commit_stage_micros", 0) == 0) {
      EXPECT_EQ(line, "# TYPE ivdb_commit_stage_micros summary");
      stage_type_lines++;
    }
  }
  EXPECT_EQ(stage_type_lines, 1u);
}

TEST(Registry, ConcurrentGetIsSafe) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(8, nullptr);
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&registry, &seen, t] {
      for (int i = 0; i < 1000; i++) {
        seen[static_cast<size_t>(t)] =
            registry.GetCounter("ivdb_contended_total");
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < 8; t++) EXPECT_EQ(seen[0], seen[static_cast<size_t>(t)]);
}

// A blocking acquisition that finds the mutex held bumps its rank's
// process-wide counter; an uncontended one does not.
TEST(MutexContention, CountsOnlyBlockedAcquisitions) {
  RankedMutex held_mu{LockRank::kFaultEnv, "held_mu"};
  RankedSharedMutex shared_mu{LockRank::kFaultEnv, "shared_mu"};
  const uint64_t before = MutexContendedCount(LockRank::kFaultEnv);
  { MutexLock guard(&held_mu); }
  { ReaderMutexLock guard(&shared_mu); }
  EXPECT_EQ(MutexContendedCount(LockRank::kFaultEnv), before);

  std::atomic<bool> locked{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    MutexLock guard(&held_mu);
    locked = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!locked.load()) std::this_thread::yield();
  std::thread contender([&] { MutexLock guard(&held_mu); });
  // The contender counts before it blocks; wait for that, then let go.
  while (MutexContendedCount(LockRank::kFaultEnv) == before) {
    std::this_thread::yield();
  }
  release = true;
  holder.join();
  contender.join();
  EXPECT_GE(MutexContendedCount(LockRank::kFaultEnv), before + 1);

  const std::string text = RenderMutexContention();
  EXPECT_NE(text.find("# TYPE ivdb_mutex_contended_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ivdb_mutex_contended_total{rank=\"kLockGraph\"} "),
            std::string::npos);
  EXPECT_NE(text.find("ivdb_mutex_contended_total{rank=\"kFaultEnv\"} "),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace ivdb
