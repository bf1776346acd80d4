// Host worker pool for pure jobs: bytes in, bytes out.
//
// The engine runs every task on one host thread (par/engine.h), so codec
// work that all tasks of a checkpoint do "at the same time" on the real
// machine — compressing a trace buffer, decoding a restart's frames — runs
// one task after another here. A task can instead hand such work to this
// pool at a point where it is about to suspend anyway (a collective, a SimFs
// read that yields) and pick up the result after it resumes: the workers
// crunch while the engine runs the other tasks.
//
// A job must be pure: it may read and write only memory it was handed, and
// it must never call into par::Comm, fs::FileSystem or anything else that
// consults par::this_task(). Jobs therefore cannot move virtual time or the
// schedule; only host time changes. Debug builds enforce this: this_task()
// fails a SION_CHECK on a pool worker, and every SimFs and Comm operation
// calls it.
//
// Workers: hardware_concurrency() - 1 (at least 1, at most kMaxHostWorkers),
// started on the first start(), so a process that never hands off work never
// starts a thread. Jobs are taken oldest first.
#pragma once

#include <exception>
#include <functional>
#include <memory>

namespace sion::par {

inline constexpr unsigned kMaxHostWorkers = 8;

namespace detail {
struct HostJobState;
}  // namespace detail

// A handle to one job. wait() (and the destructor) return only once the job
// has finished, so a job may write into its starter's stack frame.
class HostJob {
 public:
  HostJob() = default;  // no job: wait() returns at once
  ~HostJob();
  HostJob(HostJob&& other) noexcept = default;
  HostJob& operator=(HostJob&& other) noexcept;
  HostJob(const HostJob&) = delete;
  HostJob& operator=(const HostJob&) = delete;

  // Queues `fn` on the pool.
  static HostJob start(std::function<void()> fn);

  // Runs the job on the calling thread if no worker has taken it yet;
  // otherwise runs other queued jobs until this one is done. Rethrows what
  // the job threw. The handle is empty afterwards.
  void wait();

  [[nodiscard]] bool pending() const { return state_ != nullptr; }

 private:
  std::shared_ptr<detail::HostJobState> state_;
};

// True on a pool worker thread.
[[nodiscard]] bool on_host_worker();

// Workers the pool runs once started (0 before the first start()).
[[nodiscard]] unsigned host_workers_started();

}  // namespace sion::par
