#include "recorder_fs.h"

#include <utility>

namespace perfbench {

using sion::Result;
using sion::Status;
using sion::fs::DataView;
using sion::fs::File;
using sion::fs::FileStat;

bool is_parity_path(const std::string& path) {
  const std::size_t dot = path.rfind(".p");
  if (dot == std::string::npos || dot + 2 == path.size()) return false;
  for (std::size_t i = dot + 2; i < path.size(); ++i) {
    if (path[i] < '0' || path[i] > '9') return false;
  }
  return true;
}

Status RecorderFs::admit(const sion::workloads::CheckpointSpec& spec) {
  if (spec.staging.has_value()) {
    return sion::FailedPrecondition(
        "RecorderFs: staging downcasts to SimFs and would charge its free "
        "drain I/O behind the wrapper");
  }
  return Status::Ok();
}

namespace {
bool failed(const Status& s) { return !s.ok(); }
template <typename T>
bool failed(const Result<T>& r) {
  return !r.ok();
}
}  // namespace

template <typename R>
R RecorderFs::count_meta(R result) {
  ++counters_.meta_ops;
  if (failed(result)) ++counters_.failed_ops;
  return result;
}

class RecorderFile final : public File {
 public:
  RecorderFile(std::unique_ptr<File> inner, RecorderFs& owner, bool parity)
      : inner_(std::move(inner)), owner_(owner), parity_(parity) {}

  // Closing is a metadata operation of the wrapped file system.
  ~RecorderFile() override {
    Span span(owner_.spans_, Kind::kFsMeta);
    inner_.reset();
    ++owner_.counters_.meta_ops;
  }
  RecorderFile(const RecorderFile&) = delete;
  RecorderFile& operator=(const RecorderFile&) = delete;

  Result<std::uint64_t> pwrite(DataView data, std::uint64_t offset) override {
    Span span(owner_.spans_, Kind::kFsWrite);
    Result<std::uint64_t> r = inner_->pwrite(data, offset);
    FsCounters& c = owner_.counters_;
    ++c.write_ops;
    if (!r.ok()) {
      ++c.failed_ops;
      return r;
    }
    c.write_bytes += r.value();
    (parity_ ? c.parity_write_bytes : c.primary_write_bytes) += r.value();
    return r;
  }

  Result<std::uint64_t> pread(std::span<std::byte> out,
                              std::uint64_t offset) override {
    Span span(owner_.spans_, Kind::kFsRead);
    Result<std::uint64_t> r = inner_->pread(out, offset);
    FsCounters& c = owner_.counters_;
    ++c.read_ops;
    if (r.ok()) {
      c.read_bytes += r.value();
    } else {
      ++c.failed_ops;
    }
    return r;
  }

  Status pread_discard(std::uint64_t len, std::uint64_t offset) override {
    Span span(owner_.spans_, Kind::kFsRead);
    Status s = inner_->pread_discard(len, offset);
    FsCounters& c = owner_.counters_;
    ++c.read_ops;
    if (s.ok()) {
      c.read_bytes += len;
    } else {
      ++c.failed_ops;
    }
    return s;
  }

  Result<FileStat> stat() override {
    Span span(owner_.spans_, Kind::kFsMeta);
    return owner_.count_meta(inner_->stat());
  }
  Status truncate(std::uint64_t size) override {
    Span span(owner_.spans_, Kind::kFsMeta);
    return owner_.count_meta(inner_->truncate(size));
  }
  Status sync() override {
    Span span(owner_.spans_, Kind::kFsMeta);
    return owner_.count_meta(inner_->sync());
  }

 private:
  std::unique_ptr<File> inner_;
  RecorderFs& owner_;
  bool parity_;
};

Result<std::unique_ptr<File>> RecorderFs::wrap(
    Result<std::unique_ptr<File>> opened, const std::string& path) {
  ++counters_.meta_ops;
  if (!opened.ok()) {
    ++counters_.failed_ops;
    return opened;
  }
  return std::unique_ptr<File>(std::make_unique<RecorderFile>(
      std::move(opened).value(), *this, is_parity_path(path)));
}

Result<std::unique_ptr<File>> RecorderFs::create(const std::string& path) {
  Span span(spans_, Kind::kFsMeta);
  return wrap(inner_.create(path), path);
}
Result<std::unique_ptr<File>> RecorderFs::open_read(const std::string& path) {
  Span span(spans_, Kind::kFsMeta);
  return wrap(inner_.open_read(path), path);
}
Result<std::unique_ptr<File>> RecorderFs::open_rw(const std::string& path) {
  Span span(spans_, Kind::kFsMeta);
  return wrap(inner_.open_rw(path), path);
}
Status RecorderFs::mkdir(const std::string& path) {
  Span span(spans_, Kind::kFsMeta);
  return count_meta(inner_.mkdir(path));
}
Status RecorderFs::remove(const std::string& path) {
  Span span(spans_, Kind::kFsMeta);
  return count_meta(inner_.remove(path));
}
Result<std::vector<std::string>> RecorderFs::list_dir(const std::string& path) {
  Span span(spans_, Kind::kFsMeta);
  return count_meta(inner_.list_dir(path));
}
Result<FileStat> RecorderFs::stat_path(const std::string& path) {
  Span span(spans_, Kind::kFsMeta);
  return count_meta(inner_.stat_path(path));
}
bool RecorderFs::exists(const std::string& path) {
  Span span(spans_, Kind::kFsMeta);
  ++counters_.meta_ops;
  return inner_.exists(path);
}
Result<std::uint64_t> RecorderFs::block_size(const std::string& path) {
  Span span(spans_, Kind::kFsMeta);
  return count_meta(inner_.block_size(path));
}

}  // namespace perfbench
