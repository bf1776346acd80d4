#include "par/engine.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <mutex>

#include "common/log.h"
#include "par/comm.h"
#include "par/host_pool.h"

#if defined(__SANITIZE_ADDRESS__)
#define SION_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SION_ASAN 1
#endif
#endif
#ifdef SION_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace sion::par {

namespace {
thread_local TaskState* g_current_task = nullptr;
thread_local Engine* g_engine = nullptr;

// Written at the low end of every fiber stack; checked when the fiber
// finishes to detect (most) stack overflows without per-fiber guard pages,
// which would exhaust vm.max_map_count at 64Ki fibers.
constexpr std::uint64_t kCanary = 0x510AC0DE510AC0DEULL;

// Retired stack slabs are pooled and handed to the next engine whose task
// count fits: a 64Ki-task sweep builds a fresh Engine per data point,
// and re-faulting ~2 pages per fiber per point dominates the host cost of
// task setup otherwise. Pooled slabs are marked MADV_FREE, so the kernel may
// reclaim (zero) any page at any moment while unreclaimed pages are reused
// without a fault — which is why canaries are re-armed on every acquisition
// and never trusted across a pool round-trip. Process-global with a mutex
// (not thread_local): any host thread may build an Engine, and a slab cached
// on a thread that has exited would be leaked capacity.
class SlabPool {
 public:
  std::byte* acquire(std::size_t bytes, std::size_t* actual) {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t best = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].bytes >= bytes &&
          (best == entries_.size() ||
           entries_[i].bytes < entries_[best].bytes)) {
        best = i;
      }
    }
    if (best == entries_.size()) return nullptr;
    std::byte* slab = entries_[best].ptr;
    *actual = entries_[best].bytes;
    entries_.erase(entries_.begin() +
                   static_cast<std::ptrdiff_t>(best));
    return slab;
  }

  void release(std::byte* ptr, std::size_t bytes) {
#ifdef SION_ASAN
    // Frames of retired fibers never unwound, so their ASan stack poison is
    // still on the slab; a pooled slab is plain memory again (scribble(),
    // the next engine's canary writes).
    ASAN_UNPOISON_MEMORY_REGION(ptr, bytes);
#endif
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.size() >= kMaxEntries) {
      // Keep the large slabs: they are the expensive ones to re-fault.
      std::size_t smallest = 0;
      for (std::size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].bytes < entries_[smallest].bytes) smallest = i;
      }
      if (entries_[smallest].bytes >= bytes) {
        ::munmap(ptr, bytes);
        return;
      }
      ::munmap(entries_[smallest].ptr, entries_[smallest].bytes);
      entries_.erase(entries_.begin() +
                     static_cast<std::ptrdiff_t>(smallest));
    }
    entries_.push_back(Entry{ptr, bytes});
#ifdef MADV_FREE
    ::madvise(ptr, bytes, MADV_FREE);
#endif
  }

  void scribble() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries_) {
      std::memset(e.ptr, 0xA5, e.bytes);
#ifdef MADV_FREE
      ::madvise(e.ptr, e.bytes, MADV_FREE);
#endif
    }
  }

 private:
  struct Entry {
    std::byte* ptr = nullptr;
    std::size_t bytes = 0;
  };
  static constexpr std::size_t kMaxEntries = 8;

  std::mutex mu_;
  std::vector<Entry> entries_;
};

SlabPool& slab_pool() {
  static SlabPool pool;
  return pool;
}

// Binds/unbinds the per-thread engine pointers for the duration of one
// Engine::run. RAII so an aborting run (a throwing task body, a bad_alloc
// during setup) cannot poison the thread for the next Engine — the
// non-reentrancy guard and this_task() must reset on every exit path.
class ScopedRunBinding {
 public:
  explicit ScopedRunBinding(Engine* engine) {
    SION_CHECK(g_engine == nullptr) << "Engine::run is not reentrant";
    SION_CHECK(g_current_task == nullptr)
        << "Engine::run called from inside a task body";
    g_engine = engine;
  }
  ~ScopedRunBinding() {
    g_engine = nullptr;
    g_current_task = nullptr;
  }
  ScopedRunBinding(const ScopedRunBinding&) = delete;
  ScopedRunBinding& operator=(const ScopedRunBinding&) = delete;
};
}  // namespace

namespace testing {
void scribble_cached_stack_slabs() { slab_pool().scribble(); }
}  // namespace testing

TaskState* this_task() {
#ifndef NDEBUG
  // Every SimFs and Comm operation asks for its task here; a host pool job
  // that got this far is not pure (par/host_pool.h).
  SION_CHECK(!on_host_worker())
      << "a host pool job called into the engine, SimFs or Comm";
#endif
  return g_current_task;
}

void TaskState::advance_to(double t) {
  if (t > vtime_) {
    vtime_ = t;
    engine_->yield_current();
  }
}

Engine::Engine(EngineConfig config) : config_(config) {}

Engine::~Engine() {
  if (slab_ != nullptr) slab_pool().release(slab_, slab_bytes_);
}

Comm& Engine::adopt_comm(std::unique_ptr<Comm> comm) {
  comms_.push_back(std::move(comm));
  return *comms_.back();
}

#ifdef SION_FAST_FIBERS

void Engine::fiber_entry(void* arg) {
  auto* task = static_cast<TaskState*>(arg);
  Engine* engine = task->engine_;
  engine->fiber_main(task->rank_);
  engine->retire_and_dispatch(*task);
}

#else

void Engine::trampoline(unsigned int hi, unsigned int lo) {
  const std::uintptr_t bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  auto* task = reinterpret_cast<TaskState*>(bits);
  Engine* engine = task->engine_;
  engine->fiber_main(task->rank_);
  engine->retire_and_dispatch(*task);
}

#endif  // SION_FAST_FIBERS

void Engine::fiber_main(int index) {
  TaskState& task = tasks_[static_cast<std::size_t>(index)];
  try {
    (*body_)(*world_);
  } catch (...) {  // sion-lint: allow(catch-all)
    // A legitimate catch-all: a fiber boundary. Whatever a task body
    // throws must be parked and rethrown from Engine::run -- letting it
    // unwind a fiber stack into the scheduler would be UB. The smallest
    // (vtime, rank) throw wins, so the propagated exception does not depend
    // on which task happened to be dispatched first.
    const ReadyEntry key{task.vtime_, task.rank_};
    if (!error_ || key < ReadyEntry{error_vt_, error_rank_}) {
      error_ = std::current_exception();
      error_vt_ = task.vtime_;
      error_rank_ = task.rank_;
    }
  }
  task.state_ = TaskState::Run::kDone;
}

TaskState* Engine::next_task() {
  for (;;) {
    if (!runs_.empty() &&
        (ready_.empty() || run_front_key(runs_.front()) < ready_.top())) {
      TaskState* task = pop_run_front();
      SION_CHECK(task->state_ == TaskState::Run::kReady)
          << "release run holds task " << task->rank_ << " in invalid state";
      return task;
    }
    if (ready_.empty()) return nullptr;
    const auto [vtime, rank] = ready_.top();
    ready_.pop();
    TaskState& task = tasks_[static_cast<std::size_t>(rank)];
    if (task.state_ != TaskState::Run::kReady || task.vtime_ != vtime) {
      continue;  // stale heap entry (task was re-queued with a newer time)
    }
    return &task;
  }
}

void Engine::switch_to(TaskState& task) {
  current_ = &task;
  task.state_ = TaskState::Run::kRunning;
  g_current_task = &task;
#ifdef SION_FAST_FIBERS
  prefetch_likely_next();
  sion_fiber_swap(&sched_sp_, task.fiber_sp_);
#else
  tsan_fiber_switch(task.tsan_fiber_);
  swapcontext(&sched_ctx_, &task.ctx_);
#endif
  g_current_task = nullptr;
  current_ = nullptr;
}

void Engine::switch_from(TaskState& from, TaskState& to) {
  // Fiber-to-fiber handoff: the bookkeeping for `to` runs here, on `from`'s
  // stack, because control resumes inside `to`'s own suspended frame.
  to.state_ = TaskState::Run::kRunning;
  current_ = &to;
  g_current_task = &to;
#ifdef SION_FAST_FIBERS
  prefetch_likely_next();
  sion_fiber_swap(&from.fiber_sp_, to.fiber_sp_);
#else
  tsan_fiber_switch(to.tsan_fiber_);
  swapcontext(&from.ctx_, &to.ctx_);
#endif
  // Back alive: whoever dispatched into `from` already set current to us.
}

void Engine::dispatch_next(TaskState& from) {
  TaskState* next = next_task();
  SION_CHECK(next != nullptr)
      << "deadlock: " << (total_tasks_ - done_count_)
      << " tasks blocked with empty ready queue (collective mismatch?)";
  switch_from(from, *next);
}

void Engine::retire_and_dispatch(TaskState& task) {
  ++done_count_;
  if (task.vtime_ > epoch_) epoch_ = task.vtime_;
  std::uint64_t canary;
  std::memcpy(&canary, task.stack_, sizeof(canary));
  SION_CHECK(canary == kCanary)
      << "fiber stack overflow detected for rank " << task.rank_
      << " (increase EngineConfig::stack_bytes)";
  if (done_count_ < total_tasks_) {
    dispatch_next(task);
    SION_CHECK(false) << "finished fiber resumed";
  }
  // The last task hands control back to the scheduler context in run().
#ifdef SION_FAST_FIBERS
  sion_fiber_swap(&task.fiber_sp_, sched_sp_);
#else
  tsan_fiber_switch(sched_tsan_fiber_);
  swapcontext(&task.ctx_, &sched_ctx_);
#endif
  SION_CHECK(false) << "finished fiber resumed";
  std::abort();  // unreachable; satisfies [[noreturn]]
}

void Engine::yield_current() {
  TaskState& task = *current_;
  // Still the earliest (vtime, rank) key? Then the dispatcher would hand
  // control straight back — skip the heap round-trip and the context switch
  // and just keep running.
  const ReadyEntry self{task.vtime_, task.rank_};
  if ((ready_.empty() || self < ready_.top()) &&
      (runs_.empty() || self < run_front_key(runs_.front()))) {
    return;
  }
  task.state_ = TaskState::Run::kReady;
  ready_.emplace(task.vtime_, task.rank_);
  TaskState* next = next_task();  // never null: `task` itself is queued
  if (next == &task) {
    // Defensive: we popped ourselves back (no earlier task existed).
    task.state_ = TaskState::Run::kRunning;
    return;
  }
  switch_from(task, *next);
}

void Engine::block_current() {
  TaskState& task = *current_;
  task.state_ = TaskState::Run::kBlocked;
  dispatch_next(task);
}

void Engine::wake(TaskState& task, double t) {
  SION_CHECK(task.state_ == TaskState::Run::kBlocked)
      << "wake of non-blocked task " << task.rank_;
  if (t > task.vtime_) task.vtime_ = t;
  task.state_ = TaskState::Run::kReady;
  ready_.emplace(task.vtime_, task.rank_);
}

void Engine::wake_members(const std::vector<TaskState*>& members,
                          std::size_t skip, double t) {
  const std::size_t n = members.size();
  ReleaseRun run;
  run.members = &members;
  run.t = t;
  run.end = static_cast<std::uint32_t>(n);
  run.skip = static_cast<std::uint32_t>(skip);
  std::size_t first = skip == 0 ? 1 : 0;
  if (first >= n) return;
  run.next = static_cast<std::uint32_t>(first);
  for (std::size_t i = first; i < n; ++i) {
    if (i == skip) continue;
    TaskState& task = *members[i];
    SION_CHECK(task.state_ == TaskState::Run::kBlocked)
        << "wake of non-blocked task " << task.rank_;
    if (t > task.vtime_) task.vtime_ = t;
    task.state_ = TaskState::Run::kReady;
  }
  runs_.push_back(run);
  std::push_heap(runs_.begin(), runs_.end(), RunAfter{this});
}

TaskState* Engine::pop_run_front() {
  ReleaseRun& run = runs_.front();
  TaskState* task = (*run.members)[run.next];
  std::size_t next = run.next + 1;
  if (next == run.skip) ++next;
  if (next < run.end) {
    run.next = static_cast<std::uint32_t>(next);
    sift_front_run();
  } else {
    std::pop_heap(runs_.begin(), runs_.end(), RunAfter{this});
    runs_.pop_back();
  }
  return task;
}

void Engine::sift_front_run() {
  // The front run's key only grew (same t, later rank). While it still
  // precedes both children the heap is valid as it stands, which is the
  // common case -- one run draining, or contiguous runs queued together --
  // so a pop costs O(1); only interleaved runs sift down.
  const std::size_t n = runs_.size();
  std::size_t i = 0;
  for (std::size_t child = 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n &&
        run_front_key(runs_[child + 1]) < run_front_key(runs_[child])) {
      ++child;
    }
    if (!(run_front_key(runs_[child]) < run_front_key(runs_[i]))) return;
    std::swap(runs_[i], runs_[child]);
    i = child;
  }
}

#ifdef SION_FAST_FIBERS
void Engine::prefetch_likely_next() const {
  // With 16Ki fibers whose stacks sit 128 KiB apart, every resume misses
  // both TLB and cache on its swap frame and on the engine/Comm frames right
  // above it. Prefetching the first kResumeFrameBytes above the saved stack
  // pointer of the two likeliest successors -- the next member of the front
  // release run and the top of the ready heap -- overlaps those misses with
  // the work of the fiber being entered now. A stale heap entry or a retired
  // fiber only costs a wasted prefetch. Measured on a 4-vCPU Xeon VM with a
  // stand-alone copy of the perfbench open_close step (16Ki tasks, 32
  // files), median step: 370 ms without prefetch, 240 ms with 1 KiB; 768 B
  // did as well, 2 KiB fell back to 310 ms (more lines in flight than fill
  // buffers), and prefetching 2 or 4 members ahead was no better.
  constexpr std::size_t kResumeFrameBytes = 1024;
  constexpr std::size_t kCacheLine = 64;
  const auto prefetch = [](const TaskState& task) {
    const auto sp = reinterpret_cast<std::uintptr_t>(task.fiber_sp_);
    for (std::size_t off = 0; off < kResumeFrameBytes; off += kCacheLine) {
      // Not __builtin_prefetch: GCC's pure/const analysis deletes calls to
      // a helper whose only effect is that builtin. A prefetch never
      // faults, so running past the top of the stack is harmless.
      asm volatile("prefetcht0 (%0)" : : "r"(sp + off));
    }
  };
  if (!runs_.empty()) {
    const ReleaseRun& run = runs_.front();
    prefetch(*(*run.members)[run.next]);
  }
  if (!ready_.empty()) {
    prefetch(tasks_[static_cast<std::size_t>(ready_.top().second)]);
  }
}
#endif

void Engine::run(int ntasks, const TaskFn& body) {
  SION_CHECK(ntasks > 0) << "Engine::run needs at least one task";
  ScopedRunBinding binding(this);

  body_ = &body;
  total_tasks_ = ntasks;
  done_count_ = 0;
  current_ = nullptr;
  error_ = nullptr;

  tasks_.clear();
  tasks_.resize(static_cast<std::size_t>(ntasks));
  comms_.clear();
  init_members_.clear();
  init_members_.reserve(tasks_.size());
  for (auto& t : tasks_) init_members_.push_back(&t);

  // One anonymous mapping for all stacks: at 64Ki fibers, per-fiber mmap
  // would need 2 VMAs each (stack + guard) and blow past vm.max_map_count.
  // The slab is kept across run() calls — re-faulting ~2 pages per fiber on
  // every phase of a multi-phase benchmark costs more host time than the
  // dirty pages cost memory.
  const std::size_t needed = tasks_.size() * config_.stack_bytes;
  if (slab_ == nullptr || slab_bytes_ < needed) {
    if (slab_ != nullptr) slab_pool().release(slab_, slab_bytes_);
    slab_ = slab_pool().acquire(needed, &slab_bytes_);
    if (slab_ == nullptr) {
      slab_bytes_ = needed;
      void* slab = ::mmap(nullptr, slab_bytes_, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
      SION_CHECK(slab != MAP_FAILED) << "mmap of fiber stack slab failed";
      slab_ = static_cast<std::byte*>(slab);
    }
  }

  ready_.clear();
  ready_.reserve(tasks_.size() + 64);
  runs_.clear();
  runs_.reserve(64);

  for (int r = 0; r < ntasks; ++r) {
    TaskState& task = tasks_[static_cast<std::size_t>(r)];
    task.engine_ = this;
    task.rank_ = r;
    task.vtime_ = epoch_;
    task.stack_ = slab_ + static_cast<std::size_t>(r) * config_.stack_bytes;
    // Re-armed on EVERY acquisition: pooled slabs are MADV_FREE, so the
    // kernel may have zero-reclaimed the page holding a previous canary
    // (testing::scribble_cached_stack_slabs simulates exactly that).
    std::memcpy(task.stack_, &kCanary, sizeof(kCanary));
#ifdef SION_FAST_FIBERS
    task.fiber_sp_ =
        fiber_make(task.stack_, config_.stack_bytes, &fiber_entry, &task);
#else
    getcontext(&task.ctx_);
    task.ctx_.uc_stack.ss_sp = task.stack_;
    task.ctx_.uc_stack.ss_size = config_.stack_bytes;
    task.ctx_.uc_link = &sched_ctx_;
    const std::uintptr_t task_bits = reinterpret_cast<std::uintptr_t>(&task);
    makecontext(&task.ctx_, reinterpret_cast<void (*)()>(&trampoline), 2,
                static_cast<unsigned int>(task_bits >> 32),
                static_cast<unsigned int>(task_bits & 0xFFFFFFFFu));
    // TSan must know which of its fibers the scheduler runs on, and every
    // suspending fiber announces a switch back to that handle.
    task.tsan_fiber_ = tsan_fiber_create();
#endif
  }
#ifndef SION_FAST_FIBERS
  sched_tsan_fiber_ = tsan_fiber_current();
#endif

  // The initial schedule — every task runnable at the epoch, in rank order
  // — is one release run, not `ntasks` individual heap entries.
  ReleaseRun init;
  init.members = &init_members_;
  init.t = epoch_;
  init.end = static_cast<std::uint32_t>(ntasks);
  runs_.push_back(init);

  // World communicator (rank i == task i).
  world_ = &adopt_comm(Comm::create(*this, init_members_, config_.network));

  // Fibers dispatch each other directly; control returns here only after
  // the last task has retired.
  for (TaskState* task = next_task(); task != nullptr; task = next_task()) {
    switch_to(*task);
  }

#ifndef SION_FAST_FIBERS
  // All fibers have retired; release TSan's per-fiber shadow state before
  // the stacks are recycled for the next run() (stale handles on a reused
  // stack would alias old synchronization history onto new fibers).
  for (TaskState& task : tasks_) tsan_fiber_destroy(task.tsan_fiber_);
#endif

  std::exception_ptr error = std::move(error_);
  error_ = nullptr;
  ready_.clear();
  runs_.clear();
  tasks_.clear();
  comms_.clear();
  world_ = nullptr;
  body_ = nullptr;

  if (error) std::rethrow_exception(error);
}

}  // namespace sion::par
