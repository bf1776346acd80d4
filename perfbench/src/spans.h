// Host-time spans recorded from the benchmark's own files, around calls into
// the library's public functions, and the self-time attribution over them.
//
// Under the cooperative fiber engine an inclusive span around a blocking call
// also covers whatever other tasks ran in the meantime, so inclusive spans
// overlap and their sum exceeds the wall time. Self time is attributed per
// host-thread interval instead: the interval between two consecutive span
// events is charged to the innermost open span of the task that emitted the
// earlier event. A task with no open span falls back to the innermost open
// span of rank -1 (the host thread outside Engine::run), and with none of
// those either, to kHarness. Consequences:
//   * the fiber switches inside a blocking call, and the work another task
//     does until its own next event, land on the calling layer;
//   * par.self_s is what is left in Engine::run: the scheduler, rendezvous
//     outside any library call, and the harness code inside task bodies;
//   * the self times of one window partition its wall time exactly (integer
//     nanoseconds), which Spans::window_ns and the self-test check.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind : std::uint8_t {
  kHarness,  // no span open: the harness itself, outside every call
  kParRun,
  kCoreOpen,
  kCoreClose,
  kCoreWrite,
  kCoreRead,
  kFsMeta,
  kFsWrite,
  kFsRead,
  kWorkloadsWrite,
  kWorkloadsRestore,
  kCount,
};
inline constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);

// One closed span of a sampled rank, kept for the raw trace file.
struct RawSpan {
  int rank = -1;
  Kind kind = Kind::kHarness;
  std::uint8_t depth = 0;  // nesting depth within the task, 0 = outermost
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

class Spans {
 public:
  // `max_tasks` bounds the ranks that may emit events; ranks in
  // `sampled_ranks` (and rank -1) also keep raw spans.
  Spans(int max_tasks, std::vector<int> sampled_ranks);

  // Attribution runs only inside a window; self times of the window
  // partition [begin, end] of it. Events outside a window are ignored.
  void begin_window(std::int64_t at_ns = now_ns());
  void end_window(std::int64_t at_ns = now_ns());

  // Span events, emitted by the calling task (par::this_task(), rank -1
  // outside Engine::run). Timestamps come from steady_clock unless given.
  void begin(Kind kind);
  void end(Kind kind);
  void begin_at(Kind kind, int rank, std::int64_t now_ns);
  void end_at(Kind kind, int rank, std::int64_t now_ns);

  [[nodiscard]] const std::array<std::int64_t, kKinds>& self_ns() const {
    return self_ns_;
  }
  [[nodiscard]] const std::array<std::int64_t, kKinds>& inclusive_ns() const {
    return inclusive_ns_;
  }
  [[nodiscard]] const std::array<std::uint64_t, kKinds>& calls() const {
    return calls_;
  }
  // Summed wall time of all closed windows.
  [[nodiscard]] std::int64_t window_ns() const { return window_ns_; }
  [[nodiscard]] const std::vector<RawSpan>& raw() const { return raw_; }

  // Forget everything recorded so far; call between windows.
  void reset();

  // Chrome trace-event JSON ("X" events, one track per sampled rank).
  [[nodiscard]] std::string chrome_trace_json() const;

  static std::int64_t now_ns();

 private:
  struct Open {
    Kind kind;
    std::int64_t begin_ns;
  };
  struct Stack {
    std::uint8_t depth = 0;
    std::array<Open, 6> open{};
  };

  Stack& stack_of(int rank) { return stacks_[static_cast<std::size_t>(rank + 1)]; }
  Kind owner_of(int rank);
  void charge(std::int64_t now_ns);
  void event(Kind kind, bool is_begin, int rank, std::int64_t now_ns);

  std::vector<Stack> stacks_;      // index rank + 1
  std::vector<bool> sampled_;      // index rank + 1
  bool in_window_ = false;
  std::int64_t window_begin_ns_ = 0;
  std::int64_t last_ns_ = 0;
  int last_rank_ = -1;
  std::int64_t window_ns_ = 0;
  std::array<std::int64_t, kKinds> self_ns_{};
  std::array<std::int64_t, kKinds> inclusive_ns_{};
  std::array<std::uint64_t, kKinds> calls_{};
  std::vector<RawSpan> raw_;
};

// RAII span; a null Spans* records nothing, so untraced runs pay one branch.
class Span {
 public:
  Span(Spans* spans, Kind kind) : spans_(spans), kind_(kind) {
    if (spans_ != nullptr) spans_->begin(kind_);
  }
  ~Span() {
    if (spans_ != nullptr) spans_->end(kind_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans* spans_;
  Kind kind_;
};

}  // namespace perfbench
