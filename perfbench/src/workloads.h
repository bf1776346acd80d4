// The benchmark's three workloads. Each turns a seed into inputs (the
// harness's work, outside set-up), builds the system under test on demand
// (set-up: machine model, file system, engine, one untimed warm-up step) and
// runs steps. One step is one full write-then-read cycle of all tasks.
//
// Why these three:
//   open_close         the paper's Fig. 3 path: 16Ki tasks, 32 files, a
//                      64 KiB fill write and a read_skip per task. Engine and
//                      Comm metadata collectives do nearly all the work.
//   checkpoint_restart trace-buffer checkpoint of 256 writers through
//                      compression, ECC (k=16, m=2) and collective
//                      aggregation, restored N->M at 64 tasks and verified.
//                      ext kernels, Collective and Remap dominate.
//   posix_roundtrip    64 tasks, 4 files, 1 MiB chunks, ~4 MiB of seeded
//                      bytes per task on the host file system through
//                      PosixFs. Bypasses SimFs entirely. The library issues
//                      no fsync, so these are page-cache numbers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "fs/filesystem.h"
#include "fs/posix_fs.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "recorder_fs.h"
#include "spans.h"

namespace perfbench {

// The harness's own operations: every library call it makes, every byte
// comparison and every determinism comparison is one attempt.
class Tally {
 public:
  void check(bool ok, const std::string& what);
  void status(const sion::Status& s, const std::string& what) {
    check(s.ok(), s.ok() ? what : what + ": " + s.to_string());
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;  // the first few failures, for the log
};

struct StepResult {
  double write_s = 0.0;  // host seconds of the write pass (Engine::run)
  double read_s = 0.0;   // host seconds of the read pass
  double step_s = 0.0;   // host seconds of the whole cycle
  // Model output of the step, compared bit for bit across instances and
  // processes: virtual makespans (hex floats) and SimFs counters.
  std::string virt;
  double virt_s = 0.0;  // virtual makespan of both passes
  std::uint64_t alloc_after_write = 0;  // SimFs::allocated_bytes(); 0 on posix
};

// One built system under test.
class Instance {
 public:
  virtual ~Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  StepResult step(Tally& tally);

  // Null when the instance is untraced / not simulated.
  [[nodiscard]] const RecorderFs* recorder() const { return recorder_.get(); }
  [[nodiscard]] const sion::fs::SimFs* sim() const { return sim_.get(); }
  // Tasks started by Engine::run so far, over all passes.
  [[nodiscard]] std::uint64_t tasks_run() const { return tasks_run_; }

 protected:
  // `spans` non-null wraps the file system in a RecorderFs and records
  // spans around every library call.
  explicit Instance(Spans* spans) : spans_(spans) {}
  // Finish construction once the backend exists.
  void attach(sion::fs::FileSystem& backend,
              const sion::par::NetworkModel& network);

  [[nodiscard]] sion::fs::FileSystem& fs() { return *fs_; }
  [[nodiscard]] Spans* spans() const { return spans_; }

  virtual int write_tasks() const = 0;
  virtual int read_tasks() const = 0;
  virtual void write_task(sion::par::Comm& world, Tally& tally) = 0;
  virtual void read_task(sion::par::Comm& world, Tally& tally) = 0;
  virtual void before_step() {}                // untimed
  virtual void after_step(Tally& /*tally*/) {}  // untimed: verify, clean up

  std::unique_ptr<sion::fs::SimFs> sim_;

 private:
  double run_pass(int ntasks, bool write, Tally& tally, double& virt_s);

  Spans* spans_;
  std::unique_ptr<RecorderFs> recorder_;
  sion::fs::FileSystem* fs_ = nullptr;
  std::unique_ptr<sion::par::Engine> engine_;
  std::uint64_t tasks_run_ = 0;
};

// Wall-clock rates of the ext kernels on a workload's own payloads.
struct KernelProbe {
  double compress_mb_per_s = 0.0;
  double decompress_mb_per_s = 0.0;
  double gf_mul_add_mb_per_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // The stated task count; no pass runs more tasks.
  [[nodiscard]] virtual int tasks() const = 0;
  // Raw application payload bytes one step writes / restores.
  [[nodiscard]] virtual std::uint64_t write_bytes() const = 0;
  [[nodiscard]] virtual std::uint64_t read_bytes() const = 0;

  // Builds a fresh instance; `spans` as for Instance. Does not run the
  // warm-up step.
  virtual std::unique_ptr<Instance> build(Spans* spans) = 0;

  // Kernel probes outside the engine; only checkpoint_restart has ext
  // payloads, the others report zeros.
  virtual KernelProbe probe_kernels(Tally& /*tally*/) { return {}; }
};

// Null for an unknown name. `scratch_dir` is where posix_roundtrip puts its
// files.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir);

}  // namespace perfbench
