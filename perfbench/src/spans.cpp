#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/log.h"
#include "par/engine.h"

namespace perfbench {
namespace {

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kHarness: return "harness";
    case Kind::kParRun: return "par.run";
    case Kind::kCoreOpen: return "core.open";
    case Kind::kCoreClose: return "core.close";
    case Kind::kCoreWrite: return "core.write";
    case Kind::kCoreRead: return "core.read";
    case Kind::kFsMeta: return "fs.meta";
    case Kind::kFsWrite: return "fs.write";
    case Kind::kFsRead: return "fs.read";
    case Kind::kWorkloadsWrite: return "workloads.write";
    case Kind::kWorkloadsRestore: return "workloads.restore";
    case Kind::kCount: break;
  }
  return "?";
}

int current_rank() {
  const sion::par::TaskState* task = sion::par::this_task();
  return task == nullptr ? -1 : task->rank();
}

}  // namespace

Spans::Spans(int max_tasks, std::vector<int> sampled_ranks)
    : stacks_(static_cast<std::size_t>(max_tasks) + 1),
      sampled_(static_cast<std::size_t>(max_tasks) + 1, false) {
  sampled_[0] = true;
  for (const int r : sampled_ranks) {
    if (r >= -1 && r < max_tasks) sampled_[static_cast<std::size_t>(r + 1)] = true;
  }
}

std::int64_t Spans::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Spans::begin_window(std::int64_t at_ns) {
  SION_CHECK(!in_window_) << "nested trace window";
  in_window_ = true;
  window_begin_ns_ = last_ns_ = at_ns;
  last_rank_ = -1;
}

void Spans::end_window(std::int64_t at_ns) {
  SION_CHECK(in_window_) << "end_window without begin_window";
  charge(at_ns);
  window_ns_ += at_ns - window_begin_ns_;
  in_window_ = false;
}

void Spans::reset() {
  SION_CHECK(!in_window_) << "reset inside a trace window";
  window_ns_ = 0;
  self_ns_.fill(0);
  inclusive_ns_.fill(0);
  calls_.fill(0);
  raw_.clear();
}

Kind Spans::owner_of(int rank) {
  const Stack& own = stack_of(rank);
  if (own.depth > 0) return own.open[own.depth - 1].kind;
  const Stack& host = stack_of(-1);
  if (host.depth > 0) return host.open[host.depth - 1].kind;
  return Kind::kHarness;
}

void Spans::charge(std::int64_t now_ns) {
  self_ns_[static_cast<std::size_t>(owner_of(last_rank_))] += now_ns - last_ns_;
  last_ns_ = now_ns;
}

void Spans::event(Kind kind, bool is_begin, int rank, std::int64_t now_ns) {
  SION_CHECK(rank >= -1 && rank + 1 < static_cast<int>(stacks_.size()))
      << "span from rank " << rank << " beyond the traced task count";
  if (in_window_) {
    charge(now_ns);
    last_rank_ = rank;
  }
  Stack& st = stack_of(rank);
  const auto k = static_cast<std::size_t>(kind);
  if (is_begin) {
    SION_CHECK(st.depth < st.open.size()) << "span nesting too deep";
    st.open[st.depth++] = Open{kind, now_ns};
    if (in_window_) ++calls_[k];
    return;
  }
  SION_CHECK(st.depth > 0 && st.open[st.depth - 1].kind == kind)
      << "unbalanced span " << kind_name(kind) << " on rank " << rank;
  const Open open = st.open[--st.depth];
  if (!in_window_) return;
  inclusive_ns_[k] += now_ns - open.begin_ns;
  if (sampled_[static_cast<std::size_t>(rank + 1)]) {
    raw_.push_back(RawSpan{rank, kind, st.depth, open.begin_ns, now_ns});
  }
}

void Spans::begin_at(Kind kind, int rank, std::int64_t now_ns) {
  event(kind, true, rank, now_ns);
}
void Spans::end_at(Kind kind, int rank, std::int64_t now_ns) {
  event(kind, false, rank, now_ns);
}

void Spans::begin(Kind kind) { event(kind, true, current_rank(), now_ns()); }
void Spans::end(Kind kind) { event(kind, false, current_rank(), now_ns()); }

std::string Spans::chrome_trace_json() const {
  std::string out = "{\"traceEvents\":[";
  std::int64_t first = raw_.empty() ? 0 : raw_.front().begin_ns;
  for (const RawSpan& s : raw_) first = std::min(first, s.begin_ns);
  char buf[256];
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const RawSpan& s = raw_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d}}",
                  i == 0 ? "" : ",", kind_name(s.kind), s.rank,
                  static_cast<double>(s.begin_ns - first) / 1e3,
                  static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                  static_cast<int>(s.depth));
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
