#ifndef IVDB_ENGINEBENCH_SPAN_TRACE_H_
#define IVDB_ENGINEBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace ivdb {
namespace enginebench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One public engine call as the benchmark saw it. `parent` is the id of the
// enclosing transaction span (0 for calls outside a transaction).
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t tid = 0;

  uint64_t dur_ns() const { return end_ns - start_ns; }
};

// The spans of one client thread. Only that thread appends; the spans are
// read after the thread is joined. A null SpanLog* means "not traced", and
// every helper then degrades to the bare call.
class SpanLog {
 public:
  explicit SpanLog(uint32_t tid) : tid_(tid) { spans_.reserve(1 << 16); }

  // A fresh span id, unique across threads (tid in the high bits).
  uint64_t NextId() { return (uint64_t{tid_} << 40) | ++seq_; }

  void Add(const char* name, uint64_t start_ns, uint64_t end_ns,
           uint64_t parent, uint64_t id = 0) {
    spans_.push_back(Span{name, start_ns, end_ns, id, parent, tid_});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t tid_;
  uint64_t seq_ = 0;
  std::vector<Span> spans_;
};

// Runs `call` and, when `log` is set, records it as a span named `name`.
template <typename F>
auto Traced(SpanLog* log, const char* name, uint64_t parent, F&& call) {
  if (log == nullptr) return call();
  const uint64_t start = NowNanos();
  auto result = call();
  log->Add(name, start, NowNanos(), parent);
  return result;
}

// Span durations grouped by name, plus the self time of each transaction
// span (a span with an id), grouped by its name: its Begin->Commit duration
// minus the statement and commit spans inside it.
struct SpanSummary {
  std::map<std::string, std::vector<uint64_t>> dur_ns;
  std::map<std::string, std::vector<uint64_t>> self_ns;

  void Add(const std::vector<Span>& spans) {
    std::map<uint64_t, uint64_t> child_ns;
    for (const Span& s : spans) {
      dur_ns[s.name].push_back(s.dur_ns());
      if (s.parent != 0) child_ns[s.parent] += s.dur_ns();
      if (s.id != 0) {
        auto it = child_ns.find(s.id);
        uint64_t children = it == child_ns.end() ? 0 : it->second;
        self_ns[s.name].push_back(s.dur_ns() > children ? s.dur_ns() - children
                                                        : 0);
        if (it != child_ns.end()) child_ns.erase(it);
      }
    }
  }
};

// Writes `spans` as Chrome trace-event JSON ("X" complete events, times in
// microseconds relative to `origin_ns`), which Perfetto and chrome://tracing
// load directly. At most `max_events` spans are written. Returns false if the
// file could not be written.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<Span>& spans,
                             uint64_t origin_ns, size_t max_events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  size_t n = spans.size() < max_events ? spans.size() : max_events;
  for (size_t i = 0; i < n; i++) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%llu,\"parent\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.id != 0 ? "txn" : "call", s.tid,
                 (s.start_ns - origin_ns) / 1e3, s.dur_ns() / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace enginebench
}  // namespace ivdb

#endif  // IVDB_ENGINEBENCH_SPAN_TRACE_H_
