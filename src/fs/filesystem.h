// The file-system abstraction SIONlib is written against.
//
// Two implementations exist:
//   * PosixFs — a passthrough to the host file system, used by the
//     command-line utilities, the examples, and functional tests.
//   * SimFs — a discrete-event parallel-file-system simulator (GPFS- and
//     Lustre-like machine models) used to reproduce the paper's evaluation
//     at up to 64Ki tasks; see src/fs/sim/.
//
// The interface uses positional reads/writes (pread/pwrite style) — SIONlib
// maintains per-task logical file positions itself, so a shared seek pointer
// would only invite races.
//
// `DataView` lets benchmark workloads write *virtual* payloads (a fill byte
// repeated N times) so that simulating a 1 TB experiment does not require
// materialising a terabyte: SimFs stores fills as constant extents, and
// PosixFs expands them through a small staging buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace sion::fs {

// Non-owning description of write payload: real bytes, a repeated fill, or
// a gather list of such parts forming one logically contiguous range.
class DataView {
 public:
  DataView(std::span<const std::byte> bytes)  // NOLINT(google-explicit-constructor)
      : bytes_(bytes), size_(bytes.size()), is_fill_(false) {}

  static DataView fill(std::byte value, std::uint64_t size) {
    DataView v;
    v.fill_ = value;
    v.size_ = size;
    v.is_fill_ = true;
    return v;
  }

  // View over a sequence of single-mode parts (spans and fills; nesting is
  // not supported). The parts array — and every buffer the parts reference —
  // must outlive the view. This is what lets a write coalescer issue ONE
  // pwrite for a contiguous file range whose bytes live in many different
  // senders' buffers, without staging them through a copy.
  static DataView gather(std::span<const DataView> parts) {
    DataView v;
    v.parts_ = parts;
    v.is_gather_ = true;
    std::uint64_t total = 0;
    for (const DataView& p : parts) total += p.size_;
    v.size_ = total;
    return v;
  }

  [[nodiscard]] bool is_fill() const { return is_fill_; }
  [[nodiscard]] bool is_gather() const { return is_gather_; }
  [[nodiscard]] std::byte fill_byte() const { return fill_; }
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] std::span<const std::byte> bytes() const { return bytes_; }
  [[nodiscard]] std::span<const DataView> parts() const { return parts_; }

  // Sub-range [offset, offset+len), clamped to the view. Not available for
  // gather views (coalescers slice before gathering, not after).
  [[nodiscard]] DataView subview(std::uint64_t offset,
                                 std::uint64_t len) const {
    const std::uint64_t off = offset > size_ ? size_ : offset;
    const std::uint64_t n = len > size_ - off ? size_ - off : len;
    if (is_fill_) return fill(fill_, n);
    return DataView(bytes_.subspan(off, n));
  }

 private:
  DataView() = default;
  std::span<const std::byte> bytes_;
  std::span<const DataView> parts_;
  std::uint64_t size_ = 0;
  std::byte fill_{0};
  bool is_fill_ = false;
  bool is_gather_ = false;
};

struct FileStat {
  std::uint64_t size = 0;        // logical size (end of file)
  std::uint64_t allocated = 0;   // physically allocated bytes (sparse-aware)
  std::uint64_t block_size = 0;  // file-system block size (st_blksize analog)
};

// An open file handle. Destroying the handle closes the file.
class File {
 public:
  virtual ~File() = default;

  virtual Result<std::uint64_t> pwrite(DataView data, std::uint64_t offset) = 0;
  virtual Result<std::uint64_t> pread(std::span<std::byte> out,
                                      std::uint64_t offset) = 0;

  // Charge the cost of reading `len` bytes at `offset` without materialising
  // them (benchmark read paths). Default: loop through a staging buffer.
  virtual Status pread_discard(std::uint64_t len, std::uint64_t offset);

  virtual Result<FileStat> stat() = 0;
  virtual Status truncate(std::uint64_t size) = 0;
  virtual Status sync() = 0;
};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  // Create (or truncate) a file for read/write access.
  virtual Result<std::unique_ptr<File>> create(const std::string& path) = 0;
  // Open an existing file read-only.
  virtual Result<std::unique_ptr<File>> open_read(const std::string& path) = 0;
  // Open an existing file read/write (no truncation).
  virtual Result<std::unique_ptr<File>> open_rw(const std::string& path) = 0;

  virtual Status mkdir(const std::string& path) = 0;
  virtual Status remove(const std::string& path) = 0;
  virtual Result<std::vector<std::string>> list_dir(const std::string& path) = 0;
  virtual Result<FileStat> stat_path(const std::string& path) = 0;
  [[nodiscard]] virtual bool exists(const std::string& path) = 0;

  // File-system block size for files under `path` — the value SIONlib aligns
  // chunks to (the paper determines it via fstat()).
  virtual Result<std::uint64_t> block_size(const std::string& path) = 0;

  // Uncharged I/O, for copies whose cost is modelled elsewhere (the
  // ext::Staging background drain). Between begin and end, operations move
  // bytes and mutate the namespace as usual but charge no time — on a file
  // system that charges any. Calls nest; use UnchargedIo rather than
  // pairing them by hand. No-op by default; a wrapper forwards both.
  virtual void begin_uncharged_io() {}
  virtual void end_uncharged_io() {}
};

// RAII scope of uncharged I/O on one file system. Under the fiber engine
// every rank of a collective uncharged section holds its own scope, and the
// ranks enter and leave at different points of the cooperative schedule: a
// section must end with a collective (barrier, agree, share) before any
// task resumes charged I/O on the same file system.
class UnchargedIo {
 public:
  explicit UnchargedIo(FileSystem& fs) : fs_(fs) { fs_.begin_uncharged_io(); }
  ~UnchargedIo() { fs_.end_uncharged_io(); }
  UnchargedIo(const UnchargedIo&) = delete;
  UnchargedIo& operator=(const UnchargedIo&) = delete;

 private:
  FileSystem& fs_;
};

}  // namespace sion::fs
