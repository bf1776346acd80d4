// Tests for the host worker pool (par/host_pool.h): a job runs inline when
// no worker took it, a waiter helps with other jobs, exceptions reach the
// waiter, a dropped handle still waits, many tiny jobs all run once, and a
// job started inside a fiber survives the task's suspension in a collective
// without moving virtual time.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/api.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "par/host_pool.h"

namespace sion::par {
namespace {

void spin_until(const std::atomic<bool>& flag) {
  while (!flag.load()) std::this_thread::yield();
}

void spin_until_count(const std::atomic<unsigned>& count, unsigned n) {
  while (count.load() < n) std::this_thread::yield();
}

// Starts the pool and occupies `n` of its workers until `release` is set.
std::vector<HostJob> occupy_workers(unsigned n, std::atomic<bool>& release,
                                    std::atomic<unsigned>& running) {
  std::vector<HostJob> blockers;
  for (unsigned i = 0; i < n; ++i) {
    blockers.push_back(HostJob::start([&release, &running] {
      ++running;
      spin_until(release);
    }));
  }
  spin_until_count(running, n);
  return blockers;
}

unsigned started_workers() {
  HostJob::start([] {}).wait();
  return host_workers_started();
}

// Declared first: ctest runs every case in a fresh process, and so does a
// plain run of this binary up to here.
TEST(HostPoolTest, SionOpenAndCloseStartNoWorker) {
  fs::SimFs fs(fs::TestbedConfig());
  Engine engine;
  engine.run(8, [&](Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "nopool.sion";
    spec.chunksize = 4096;
    spec.nfiles = 2;
    auto sion = core::SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    ASSERT_TRUE(sion.value()->close().ok());
  });
  EXPECT_EQ(host_workers_started(), 0U);
}

TEST(HostPoolTest, StartsBetweenOneAndTheCapOfWorkers) {
  const unsigned n = started_workers();
  EXPECT_GE(n, 1U);
  EXPECT_LE(n, kMaxHostWorkers);
}

TEST(HostPoolTest, WaitRunsAnUntakenJobInline) {
  const unsigned n = started_workers();
  std::atomic<bool> release{false};
  std::atomic<unsigned> running{0};
  std::vector<HostJob> blockers = occupy_workers(n, release, running);
  std::thread::id ran_on;
  HostJob job =
      HostJob::start([&ran_on] { ran_on = std::this_thread::get_id(); });
  job.wait();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_FALSE(job.pending());
  release = true;
  for (HostJob& b : blockers) b.wait();
}

TEST(HostPoolTest, WaiterRunsOtherJobsUntilItsOwnIsDone) {
  const unsigned n = started_workers();
  std::atomic<bool> release{false};
  std::atomic<unsigned> running{0};
  std::vector<HostJob> blockers = occupy_workers(n - 1, release, running);
  // `a` takes the last free worker and finishes only after `b` ran, and
  // only the thread waiting for `a` is left to run `b`.
  std::atomic<bool> a_running{false};
  std::atomic<bool> b_ran{false};
  HostJob a = HostJob::start([&] {
    a_running = true;
    spin_until(b_ran);
  });
  spin_until(a_running);
  std::thread::id b_on;
  HostJob b = HostJob::start([&] {
    b_on = std::this_thread::get_id();
    b_ran = true;
  });
  a.wait();
  EXPECT_TRUE(b_ran.load());
  EXPECT_EQ(b_on, std::this_thread::get_id());
  b.wait();
  release = true;
  for (HostJob& blocker : blockers) blocker.wait();
}

TEST(HostPoolTest, WaitRethrowsTheJobsException) {
  HostJob job = HostJob::start([] { throw std::runtime_error("job failed"); });
  try {
    job.wait();
    ADD_FAILURE() << "wait() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job failed");
  }
  EXPECT_FALSE(job.pending());
  job.wait();  // empty now: returns at once
}

// Returns before waiting: the handle's destructor must keep `local` alive
// until the job is done with it.
bool early_return(std::atomic<bool>& finished) {
  std::vector<int> local(4096, 0);
  std::atomic<bool> go{false};
  HostJob job = HostJob::start([&] {
    spin_until(go);
    std::iota(local.begin(), local.end(), 1);
    finished = true;
  });
  go = true;
  return local.empty();  // the handle is dropped here, unwaited
}

TEST(HostPoolTest, DroppedHandleWaitsForItsJob) {
  std::atomic<bool> finished{false};
  EXPECT_FALSE(early_return(finished));
  EXPECT_TRUE(finished.load());
}

TEST(HostPoolTest, TenThousandTinyJobsEachRunOnce) {
  constexpr std::size_t kJobs = 10000;
  std::vector<int> runs(kJobs, 0);
  std::vector<HostJob> jobs;
  jobs.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back(HostJob::start([&runs, i] { runs[i] += 1; }));
  }
  for (HostJob& job : jobs) job.wait();
  for (std::size_t i = 0; i < kJobs; ++i) ASSERT_EQ(runs[i], 1) << i;
}

// A task starts a job on its own stack, suspends in a barrier while the
// other tasks run, and waits afterwards: the result is intact and virtual
// time and the rendezvous count match a run without jobs.
TEST(HostPoolTest, JobStartedInAFiberIsWaitedAfterARendezvous) {
  constexpr int kTasks = 16;
  const auto body = [](bool with_jobs) {
    return [with_jobs](Comm& world) {
      std::vector<std::uint64_t> data(2048);
      std::iota(data.begin(), data.end(), static_cast<std::uint64_t>(
                                              world.rank()));
      std::uint64_t sum = 0;
      HostJob job;
      if (with_jobs) {
        job = HostJob::start([&data, &sum] {
          sum = std::accumulate(data.begin(), data.end(), std::uint64_t{0});
        });
      }
      this_task()->compute(1e-3 * world.rank());
      world.barrier();
      job.wait();
      if (with_jobs) {
        const auto r = static_cast<std::uint64_t>(world.rank());
        EXPECT_EQ(sum, 2048 * r + 2047 * 2048 / 2);
      }
      world.barrier();
    };
  };
  Engine plain;
  plain.run(kTasks, body(false));
  Engine pooled;
  pooled.run(kTasks, body(true));
  EXPECT_EQ(plain.epoch(), pooled.epoch());
  EXPECT_EQ(plain.rendezvous_count(), pooled.rendezvous_count());
}

TEST(HostPoolDeathTest, JobCallingIntoSimFsFailsACheck) {
#ifdef NDEBUG
  GTEST_SKIP() << "the purity guard is compiled into debug builds only";
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        fs::SimFs fs(fs::TestbedConfig());
        std::atomic<bool> on_worker{false};
        HostJob job = HostJob::start([&] {
          on_worker = true;
          (void)fs.create("impure");
        });
        spin_until(on_worker);  // a worker took it, not this thread
        job.wait();
      },
      "host pool job called into");
#endif
}

}  // namespace
}  // namespace sion::par
