#include "par/host_pool.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.h"

namespace sion::par {

namespace detail {

// `fn` belongs to the one thread that claimed the job; the other fields are
// guarded by the pool's mutex.
struct HostJobState {
  std::function<void()> fn;
  std::exception_ptr error;
  bool claimed = false;  // a thread has started (or is about to run) it
  bool done = false;
};

}  // namespace detail

namespace {

using detail::HostJobState;

thread_local bool g_on_worker = false;

class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void submit(std::shared_ptr<HostJobState> job) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (workers_.empty()) start_workers();
      queue_.push_back(std::move(job));
    }
    work_cv_.notify_one();
  }

  void wait(HostJobState& job) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!job.claimed) {
      // Nobody took it yet: run it here. Its queue entry is skipped later.
      job.claimed = true;
      lock.unlock();
      run(job);
      return;
    }
    while (!job.done) {
      if (std::shared_ptr<HostJobState> other = take_locked()) {
        lock.unlock();
        run(*other);
        lock.lock();
        continue;
      }
      done_cv_.wait(lock);
    }
  }

  unsigned started() {
    const std::lock_guard<std::mutex> lock(mu_);
    return static_cast<unsigned>(workers_.size());
  }

 private:
  void start_workers() {
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned n = std::clamp(hw > 1 ? hw - 1 : 1U, 1U, kMaxHostWorkers);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      workers_.emplace_back([this] { work(); });
    }
  }

  void work() {
    g_on_worker = true;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping
      if (std::shared_ptr<HostJobState> job = take_locked()) {
        lock.unlock();
        run(*job);
        lock.lock();
      }
    }
  }

  // Oldest unclaimed job, claimed for the caller; entries whose job was
  // already run inline by its waiter are dropped on the way.
  std::shared_ptr<HostJobState> take_locked() {
    while (!queue_.empty()) {
      std::shared_ptr<HostJobState> job = std::move(queue_.front());
      queue_.pop_front();
      if (!job->claimed) {
        job->claimed = true;
        return job;
      }
    }
    return nullptr;
  }

  // Runs a claimed job outside the lock and publishes its completion.
  void run(HostJobState& job) {
    std::exception_ptr error;
    try {
      job.fn();
    } catch (...) {  // sion-lint: allow(catch-all)
      // A job boundary, like a fiber boundary: whatever the job throws is
      // carried to the thread that waits for it and rethrown there.
      error = std::current_exception();
    }
    job.fn = nullptr;  // its captures go before the waiter sees `done`
    {
      const std::lock_guard<std::mutex> lock(mu_);
      job.error = std::move(error);
      job.done = true;
    }
    done_cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a job was queued
  std::condition_variable done_cv_;  // waiters: a job finished
  std::deque<std::shared_ptr<HostJobState>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;  // last: the workers use the above
};

Pool& pool() {
  static Pool p;
  return p;
}

// An unwaited handle goes away on an early return: finish its job before
// the job's captures go out of scope. Nobody is left to rethrow to, so a
// failure is logged.
void finish_dropped(const std::shared_ptr<HostJobState>& state) {
  if (state == nullptr) return;
  pool().wait(*state);
  if (state->error) {
    SION_LOG_WARN << "a host pool job failed, and its handle was dropped "
                     "without wait()";
  }
}

}  // namespace

HostJob::~HostJob() { finish_dropped(state_); }

HostJob& HostJob::operator=(HostJob&& other) noexcept {
  if (this != &other) {
    finish_dropped(state_);
    state_ = std::move(other.state_);
  }
  return *this;
}

HostJob HostJob::start(std::function<void()> fn) {
  HostJob job;
  job.state_ = std::make_shared<detail::HostJobState>();
  job.state_->fn = std::move(fn);
  pool().submit(job.state_);
  return job;
}

void HostJob::wait() {
  if (state_ == nullptr) return;
  const std::shared_ptr<detail::HostJobState> state = std::move(state_);
  pool().wait(*state);
  // Written under the pool's mutex before `done`, which wait() observed.
  if (state->error) std::rethrow_exception(state->error);
}

bool on_host_worker() { return g_on_worker; }

unsigned host_workers_started() { return pool().started(); }

}  // namespace sion::par
