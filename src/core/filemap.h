// Task-to-physical-file mapping for multifiles with several underlying
// physical files (paper Fig. 2(d)): every task lands in exactly one file,
// the user chooses how many files and, if desired, the exact mapping (e.g.,
// one physical file per Blue Gene I/O node).
//
// The built-in mappings are *computed*, not materialised: every task of a
// collective open holds a FileMap while blocked, so per-task O(ntasks)
// storage would make opens O(ntasks^2) memory at 64 Ki tasks. Only custom
// mappings carry arrays.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace sion::core {

enum class Mapping : std::uint8_t {
  kContiguous,  // ranks [i*N/F, (i+1)*N/F) share file i (default)
  kRoundRobin,  // rank r -> file r % F
  kCustom,      // caller-supplied file index per rank
};

class FileMap {
 public:
  static Result<FileMap> contiguous(int ntasks, int nfiles);
  static Result<FileMap> round_robin(int ntasks, int nfiles);
  static Result<FileMap> custom(std::vector<int> file_of_rank, int nfiles);
  static Result<FileMap> make(Mapping mapping, int ntasks, int nfiles,
                              const std::vector<int>& custom_map);

  [[nodiscard]] int nfiles() const { return nfiles_; }
  [[nodiscard]] int file_of(int rank) const;
  // Index of `rank` among the tasks of its file, in ascending rank order.
  [[nodiscard]] int local_index(int rank) const;
  [[nodiscard]] int tasks_in_file(int filenum) const;

 private:
  FileMap(Mapping kind, int ntasks, int nfiles)
      : kind_(kind), ntasks_(ntasks), nfiles_(nfiles) {}

  // First global rank mapped to file `f` under the contiguous scheme.
  [[nodiscard]] int contiguous_first_rank(int f) const;

  Mapping kind_;
  int ntasks_;
  int nfiles_;
  // Populated for kCustom only.
  std::vector<int> custom_file_of_rank_;
  std::vector<int> custom_local_index_;
  std::vector<int> custom_tasks_in_file_;
};

}  // namespace sion::core
