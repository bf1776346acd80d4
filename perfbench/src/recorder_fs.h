// Pass-through fs::FileSystem that counts and times every call it forwards.
//
// Every virtual is forwarded unchanged to the wrapped file system, including
// File::pread_discard (which would otherwise fall back to the base class's
// staging-buffer loop), truncate, sync and block_size, so virtual results
// and SimFs::counters() are bit-identical with and without the wrapper; the
// self-test and every traced run check this.
//
// Two library paths downcast the file system they are handed to fs::SimFs:
// SimFs::ScopedFreeIo and ext::Staging. Behind this wrapper the downcast
// fails, which would silently turn free drain I/O into charged I/O, so
// admit() refuses any checkpoint spec that stages.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fs/filesystem.h"
#include "spans.h"
#include "workloads/checkpoint.h"

namespace perfbench {

struct FsCounters {
  std::uint64_t meta_ops = 0;  // namespace ops, stat, truncate, sync, close
  std::uint64_t write_ops = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t read_ops = 0;  // pread and pread_discard
  std::uint64_t read_bytes = 0;
  std::uint64_t failed_ops = 0;  // non-ok Status or Result
  // Bytes written to ECC parity files (`<name>.p<j>`) and to all others.
  std::uint64_t parity_write_bytes = 0;
  std::uint64_t primary_write_bytes = 0;
};

// True for ext::Ecc parity file names: a final `.p` followed by digits.
bool is_parity_path(const std::string& path);

class RecorderFs final : public sion::fs::FileSystem {
 public:
  // `spans` may be null: counters only.
  RecorderFs(sion::fs::FileSystem& inner, Spans* spans)
      : inner_(inner), spans_(spans) {}

  // The wrapper cannot stand in for SimFs where the library downcasts.
  static sion::Status admit(const sion::workloads::CheckpointSpec& spec);

  [[nodiscard]] const FsCounters& counters() const { return counters_; }

  sion::Result<std::unique_ptr<sion::fs::File>> create(
      const std::string& path) override;
  sion::Result<std::unique_ptr<sion::fs::File>> open_read(
      const std::string& path) override;
  sion::Result<std::unique_ptr<sion::fs::File>> open_rw(
      const std::string& path) override;
  sion::Status mkdir(const std::string& path) override;
  sion::Status remove(const std::string& path) override;
  sion::Result<std::vector<std::string>> list_dir(
      const std::string& path) override;
  sion::Result<sion::fs::FileStat> stat_path(const std::string& path) override;
  bool exists(const std::string& path) override;
  sion::Result<std::uint64_t> block_size(const std::string& path) override;

 private:
  friend class RecorderFile;

  sion::Result<std::unique_ptr<sion::fs::File>> wrap(
      sion::Result<std::unique_ptr<sion::fs::File>> opened,
      const std::string& path);
  template <typename R>
  R count_meta(R result);

  sion::fs::FileSystem& inner_;
  Spans* spans_;
  FsCounters counters_;
};

}  // namespace perfbench
