#ifndef IVDB_ENGINEBENCH_BENCH_ENV_H_
#define IVDB_ENGINEBENCH_BENCH_ENV_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "obs/metrics.h"

namespace ivdb {
namespace enginebench {

// A pass-through Env that counts what the engine asks of the device:
// appends and their bytes (WAL segments apart from everything else, which is
// checkpoint images and their temp files), syncs and their latency, and
// bytes read back (recovery). Traced rounds put it in front of the
// workload's device through DatabaseOptions::env; untraced rounds hand the
// engine the device directly.
class CountingEnv : public Env {
 public:
  struct Counts {
    uint64_t appends = 0;
    uint64_t append_bytes = 0;
    uint64_t checkpoint_bytes = 0;  // appended to files other than WAL segments
    uint64_t syncs = 0;
    uint64_t read_bytes = 0;
  };

  explicit CountingEnv(Env* base) : base_(base) {}

  Counts Snap() const {
    Counts c;
    c.appends = appends_.load(std::memory_order_relaxed);
    c.append_bytes = append_bytes_.load(std::memory_order_relaxed);
    c.checkpoint_bytes = checkpoint_bytes_.load(std::memory_order_relaxed);
    c.syncs = syncs_.load(std::memory_order_relaxed);
    c.read_bytes = read_bytes_.load(std::memory_order_relaxed);
    return c;
  }
  // Durations of every Sync() issued so far, in microseconds.
  const obs::Histogram& sync_micros() const { return sync_micros_; }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate_existing) override {
    auto file = base_->NewWritableFile(path, truncate_existing);
    if (!file.ok()) return file.status();
    std::unique_ptr<WritableFile> wrapped = std::make_unique<File>(
        this, std::move(file).value(), IsWalSegment(path));
    return wrapped;
  }
  Status ReadFileToString(const std::string& path, std::string* out) override {
    Status s = base_->ReadFileToString(path, out);
    if (s.ok()) read_bytes_.fetch_add(out->size(), std::memory_order_relaxed);
    return s;
  }
  Status RemoveFileIfExists(const std::string& path) override {
    return base_->RemoveFileIfExists(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status EnsureDirectory(const std::string& path) override {
    return base_->EnsureDirectory(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status SyncDirectory(const std::string& path) override {
    return base_->SyncDirectory(path);
  }
  Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override {
    return base_->ListDirectory(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }

 private:
  class File : public WritableFile {
   public:
    File(CountingEnv* env, std::unique_ptr<WritableFile> base, bool wal)
        : env_(env), base_(std::move(base)), wal_(wal) {}
    Status Append(const std::string& data) override {
      Status s = base_->Append(data);
      if (s.ok()) env_->NoteAppend(data.size(), wal_);
      return s;
    }
    Status Sync() override {
      const auto start = std::chrono::steady_clock::now();
      Status s = base_->Sync();
      env_->NoteSync(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count());
      return s;
    }
    Status Truncate(uint64_t size) override { return base_->Truncate(size); }
    Status Close() override { return base_->Close(); }

   private:
    CountingEnv* env_;
    std::unique_ptr<WritableFile> base_;
    bool wal_;
  };

  // WAL segments are `wal-<seqno>.log` (wal/log_manager.h).
  static bool IsWalSegment(const std::string& path) {
    size_t slash = path.find_last_of('/');
    size_t base = slash == std::string::npos ? 0 : slash + 1;
    return path.compare(base, 4, "wal-") == 0;
  }
  void NoteAppend(uint64_t bytes, bool wal) {
    appends_.fetch_add(1, std::memory_order_relaxed);
    append_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    if (!wal) checkpoint_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void NoteSync(int64_t micros) {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    sync_micros_.Record(static_cast<uint64_t>(micros < 0 ? 0 : micros));
  }

  Env* base_;
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> append_bytes_{0};
  std::atomic<uint64_t> checkpoint_bytes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> read_bytes_{0};
  obs::Histogram sync_micros_;
};

}  // namespace enginebench
}  // namespace ivdb

#endif  // IVDB_ENGINEBENCH_BENCH_ENV_H_
