#include "par/comm.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <tuple>

#include "common/log.h"

namespace sion::par {

std::unique_ptr<Comm> Comm::create(Engine& engine,
                                   std::vector<TaskState*> members,
                                   NetworkModel net) {
  return std::unique_ptr<Comm>(new Comm(engine, std::move(members), net));
}

Comm::Comm(Engine& engine, std::vector<TaskState*> members, NetworkModel net)
    : engine_(&engine), members_(std::move(members)), net_(net) {
  granks_.reserve(members_.size());
  contiguous_ranks_ = true;
  ascending_ranks_ = true;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const int g = members_[i]->rank();
    if (!granks_.empty() && g != granks_.front() + static_cast<int>(i)) {
      contiguous_ranks_ = false;
    }
    if (!granks_.empty() && g <= granks_.back()) ascending_ranks_ = false;
    granks_.push_back(g);
  }
  next_op_.assign(members_.size(), 0);
}

TaskState& Comm::calling_task() const {
  TaskState* task = this_task();
  SION_CHECK(task != nullptr) << "Comm used outside Engine::run";
  return *task;
}

int Comm::rank() const {
  const int grank = calling_task().rank();
  if (contiguous_ranks_) {
    const int r = grank - granks_.front();
    SION_CHECK(r >= 0 && r < size())
        << "calling task is not a member of this communicator";
    return r;
  }
  if (ascending_ranks_) {
    const auto it = std::lower_bound(granks_.begin(), granks_.end(), grank);
    SION_CHECK(it != granks_.end() && *it == grank)
        << "calling task is not a member of this communicator";
    return static_cast<int>(it - granks_.begin());
  }
  const auto it = std::find(granks_.begin(), granks_.end(), grank);
  SION_CHECK(it != granks_.end())
      << "calling task is not a member of this communicator";
  return static_cast<int>(it - granks_.begin());
}

const char* Comm::kind_name(Kind kind) {
  static constexpr const char* kNames[] = {
      "barrier",   "bcast",     "gather",   "gatherv", "scatter",
      "allgather", "allreduce", "scatterv", "split",   "exchange"};
  return kNames[static_cast<std::size_t>(kind)];
}

bool Comm::arrive(Kind kind, void* slot, int my_rank) {
  TaskState& task = calling_task();
  const std::uint64_t opidx = next_op_[static_cast<std::size_t>(my_rank)]++;

  if (size() == 1) {
    site_slots_.assign(1, slot);
    site_tmax_ = task.now();
    engine_->count_rendezvous(1);
    return true;
  }

  if (site_arrived_ == 0) {
    // First arrival of a fresh collective claims the site. Slot entries are
    // not cleared between ops: every member overwrites its own entry before
    // the last arrival runs finalize.
    site_op_ = opidx;
    site_kind_ = kind;
    site_tmax_ = task.now();
    if (site_slots_.size() != members_.size()) {
      site_slots_.assign(members_.size(), nullptr);
    }
  } else {
    SION_CHECK(site_op_ == opidx)
        << "collective operation order mismatch on comm rank " << my_rank;
    SION_CHECK(site_kind_ == kind)
        << "collective kind mismatch on comm rank " << my_rank << ": it "
        << "entered " << kind_name(kind) << " while the others are in "
        << kind_name(site_kind_);
    if (task.now() > site_tmax_) site_tmax_ = task.now();
  }
  site_slots_[static_cast<std::size_t>(my_rank)] = slot;
  ++site_arrived_;

  if (site_arrived_ < size()) {
    engine_->block_current();
    // Woken by the last arrival; our slot already holds the results and our
    // clock was advanced by the release.
    return false;
  }
  // Retire the site before waking anyone so a released task entering the
  // next collective starts a fresh operation.
  site_arrived_ = 0;
  engine_->count_rendezvous(members_.size());
  return true;
}

void Comm::release_all(int my_rank, double release) {
  if (ascending_ranks_) {
    engine_->wake_members(members_, static_cast<std::size_t>(my_rank),
                          release);
  } else {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (static_cast<int>(i) != my_rank) engine_->wake(*members_[i], release);
    }
  }
  calling_task().advance_to(release);
}

template <typename F>
void Comm::rendezvous(void* slot, F&& finalize, Kind kind) {
  const int my_rank = rank();
  if (!arrive(kind, slot, my_rank)) return;
  release_all(my_rank, finalize(site_slots_, site_tmax_));
}

void Comm::barrier() {
  const double cost = net_.sync_cost(size());
  rendezvous(nullptr, [cost](std::vector<void*>&, double tmax) {
    return tmax + cost;
  }, Kind::kBarrier);
}

void Comm::bcast_bytes(std::span<std::byte> buf, int root) {
  SION_CHECK(root >= 0 && root < size()) << "bcast root out of range";
  struct Slot {
    std::span<std::byte> buf;
  };
  Slot slot{buf};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [root, nranks, net](std::vector<void*>& slots,
                                        double tmax) {
    auto& src = *static_cast<Slot*>(slots[static_cast<std::size_t>(root)]);
    for (int i = 0; i < nranks; ++i) {
      if (i == root) continue;
      auto& dst = *static_cast<Slot*>(slots[static_cast<std::size_t>(i)]);
      SION_CHECK(dst.buf.size() == src.buf.size())
          << "bcast buffer size mismatch";
      std::memcpy(dst.buf.data(), src.buf.data(), src.buf.size());
    }
    return tmax + net.bcast_cost(nranks, src.buf.size());
  }, Kind::kBcast);
}

std::uint64_t Comm::bcast_u64(std::uint64_t value, int root) {
  std::uint64_t v = value;
  bcast_bytes(std::as_writable_bytes(std::span<std::uint64_t>(&v, 1)), root);
  return v;
}

std::vector<std::uint64_t> Comm::gather_u64(std::uint64_t value, int root) {
  SION_CHECK(root >= 0 && root < size()) << "gather root out of range";
  struct Slot {
    std::uint64_t in;
    std::vector<std::uint64_t>* out;
  };
  std::vector<std::uint64_t> result;
  Slot slot{value, &result};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [root, nranks, net](std::vector<void*>& slots,
                                        double tmax) {
    auto& root_slot = *static_cast<Slot*>(slots[static_cast<std::size_t>(root)]);
    root_slot.out->resize(static_cast<std::size_t>(nranks));
    for (int i = 0; i < nranks; ++i) {
      (*root_slot.out)[static_cast<std::size_t>(i)] =
          static_cast<Slot*>(slots[static_cast<std::size_t>(i)])->in;
    }
    return tmax + net.rooted_cost(nranks,
                                  8ULL * static_cast<std::uint64_t>(nranks));
  }, Kind::kGather);
  return result;
}

Comm::FlatGatherU64 Comm::gatherv_u64_flat(
    std::span<const std::uint64_t> values, int root) {
  SION_CHECK(root >= 0 && root < size()) << "gatherv root out of range";
  struct Slot {
    std::span<const std::uint64_t> in;
    FlatGatherU64* out;
  };
  FlatGatherU64 result;
  Slot slot{values, &result};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [root, nranks, net](std::vector<void*>& slots,
                                        double tmax) {
    auto& root_slot = *static_cast<Slot*>(slots[static_cast<std::size_t>(root)]);
    auto& out = *root_slot.out;
    out.offsets.resize(static_cast<std::size_t>(nranks) + 1);
    std::uint64_t total = 0;
    std::uint64_t elems = 0;
    for (int i = 0; i < nranks; ++i) {
      auto& s = *static_cast<Slot*>(slots[static_cast<std::size_t>(i)]);
      out.offsets[static_cast<std::size_t>(i)] = elems;
      elems += s.in.size();
      total += s.in.size() * 8;
    }
    out.offsets[static_cast<std::size_t>(nranks)] = elems;
    out.data.resize(elems);
    for (int i = 0; i < nranks; ++i) {
      auto& s = *static_cast<Slot*>(slots[static_cast<std::size_t>(i)]);
      std::copy(s.in.begin(), s.in.end(),
                out.data.begin() +
                    static_cast<std::ptrdiff_t>(
                        out.offsets[static_cast<std::size_t>(i)]));
    }
    return tmax + net.rooted_cost(nranks, total);
  }, Kind::kGatherv);
  return result;
}

std::uint64_t Comm::scatter_u64(std::span<const std::uint64_t> values,
                                int root) {
  SION_CHECK(root >= 0 && root < size()) << "scatter root out of range";
  struct Slot {
    std::span<const std::uint64_t> in;  // root only
    std::uint64_t out = 0;
  };
  Slot slot{values, 0};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [root, nranks, net](std::vector<void*>& slots,
                                        double tmax) {
    auto& root_slot = *static_cast<Slot*>(slots[static_cast<std::size_t>(root)]);
    SION_CHECK(root_slot.in.size() == static_cast<std::size_t>(nranks))
        << "scatter_u64 root must supply size() values";
    for (int i = 0; i < nranks; ++i) {
      static_cast<Slot*>(slots[static_cast<std::size_t>(i)])->out =
          root_slot.in[static_cast<std::size_t>(i)];
    }
    return tmax + net.rooted_cost(nranks,
                                  8ULL * static_cast<std::uint64_t>(nranks));
  }, Kind::kScatter);
  return slot.out;
}

std::vector<std::uint64_t> Comm::allgather_u64(std::uint64_t value) {
  struct Slot {
    std::uint64_t in;
    std::vector<std::uint64_t>* out;
  };
  std::vector<std::uint64_t> result;
  Slot slot{value, &result};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [nranks, net](std::vector<void*>& slots, double tmax) {
    std::vector<std::uint64_t> all(static_cast<std::size_t>(nranks));
    for (int i = 0; i < nranks; ++i) {
      all[static_cast<std::size_t>(i)] =
          static_cast<Slot*>(slots[static_cast<std::size_t>(i)])->in;
    }
    for (int i = 0; i < nranks; ++i) {
      *static_cast<Slot*>(slots[static_cast<std::size_t>(i)])->out = all;
    }
    // Gather up the tree plus broadcast down: twice the rooted volume.
    return tmax + net.rooted_cost(nranks,
                                  16ULL * static_cast<std::uint64_t>(nranks));
  }, Kind::kAllgather);
  return result;
}

std::uint64_t Comm::allreduce_u64(std::uint64_t value, ReduceOp op) {
  struct Slot {
    std::uint64_t in;
    std::uint64_t out = 0;
  };
  Slot slot{value, 0};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [op, nranks, net](std::vector<void*>& slots,
                                      double tmax) {
    std::uint64_t acc = static_cast<Slot*>(slots[0])->in;
    for (int i = 1; i < nranks; ++i) {
      const std::uint64_t v =
          static_cast<Slot*>(slots[static_cast<std::size_t>(i)])->in;
      switch (op) {
        case ReduceOp::kSum: acc += v; break;
        case ReduceOp::kMax: acc = std::max(acc, v); break;
        case ReduceOp::kMin: acc = std::min(acc, v); break;
      }
    }
    for (int i = 0; i < nranks; ++i) {
      static_cast<Slot*>(slots[static_cast<std::size_t>(i)])->out = acc;
    }
    return tmax + net.sync_cost(nranks);
  }, Kind::kAllreduce);
  return slot.out;
}

std::vector<std::byte> Comm::scatterv_bytes_flat(
    std::span<const std::byte> data, std::span<const std::uint64_t> sizes,
    int root) {
  SION_CHECK(root >= 0 && root < size()) << "scatterv root out of range";
  struct Slot {
    std::span<const std::byte> data;          // root only
    std::span<const std::uint64_t> sizes;     // root only
    std::vector<std::byte> out;
  };
  Slot slot{data, sizes, {}};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [root, nranks, net](std::vector<void*>& slots,
                                        double tmax) {
    auto& root_slot = *static_cast<Slot*>(slots[static_cast<std::size_t>(root)]);
    SION_CHECK(root_slot.sizes.size() == static_cast<std::size_t>(nranks))
        << "scatterv_bytes_flat root must supply size() sizes";
    std::uint64_t total = 0;
    std::uint64_t pos = 0;
    for (int i = 0; i < nranks; ++i) {
      const std::uint64_t n = root_slot.sizes[static_cast<std::size_t>(i)];
      SION_CHECK(pos + n <= root_slot.data.size())
          << "scatterv_bytes_flat sizes overrun the flat buffer";
      const auto piece = root_slot.data.subspan(pos, n);
      auto& s = *static_cast<Slot*>(slots[static_cast<std::size_t>(i)]);
      s.out.assign(piece.begin(), piece.end());
      pos += n;
      total += n;
    }
    return tmax + net.rooted_cost(nranks, total);
  }, Kind::kScatterv);
  return std::move(slot.out);
}

Comm* Comm::split(int color, int key) {
  struct Slot {
    int color;
    int key;
    Comm* out = nullptr;
  };
  Slot slot{color, key, nullptr};
  const int nranks = size();
  const NetworkModel net = net_;
  Engine* engine = engine_;
  std::vector<TaskState*>* members = &members_;
  rendezvous(&slot, [nranks, net, engine, members](std::vector<void*>& slots,
                                                   double tmax) {
    // Group by color, order each group by (key, parent rank). The keys are
    // copied into one flat array first: comparing through the slots would
    // touch a different fiber stack on every comparison. A split whose keys
    // already follow the parent ranks (every contiguous file split) skips
    // the sort.
    struct Entry {
      int color;
      int key;
      int parent_rank;
    };
    std::vector<Entry> order(static_cast<std::size_t>(nranks));
    for (int i = 0; i < nranks; ++i) {
      const auto& s = *static_cast<Slot*>(slots[static_cast<std::size_t>(i)]);
      order[static_cast<std::size_t>(i)] = Entry{s.color, s.key, i};
    }
    const auto before = [](const Entry& a, const Entry& b) {
      return std::tie(a.color, a.key, a.parent_rank) <
             std::tie(b.color, b.key, b.parent_rank);
    };
    if (!std::is_sorted(order.begin(), order.end(), before)) {
      std::sort(order.begin(), order.end(), before);
    }
    std::size_t i = 0;
    while (i < order.size()) {
      const int group_color = order[i].color;
      std::size_t j = i;
      while (j < order.size() && order[j].color == group_color) ++j;
      if (group_color >= 0) {
        std::vector<TaskState*> group;
        group.reserve(j - i);
        for (std::size_t k = i; k < j; ++k) {
          group.push_back(
              (*members)[static_cast<std::size_t>(order[k].parent_rank)]);
        }
        Comm& child = engine->adopt_comm(
            Comm::create(*engine, std::move(group), net));
        for (std::size_t k = i; k < j; ++k) {
          static_cast<Slot*>(
              slots[static_cast<std::size_t>(order[k].parent_rank)])
              ->out = &child;
        }
      }
      i = j;
    }
    return tmax + net.sync_cost(nranks);
  }, Kind::kSplit);
  return slot.out;
}

Comm* Comm::split_groups(int group_size) {
  const int me = rank();
  if (group_size <= 0 || group_size >= size()) return split(0, me);
  return split(me / group_size, me);
}

// ---------------------------------------------------------------------------
// point-to-point
// ---------------------------------------------------------------------------

void Comm::deliver_or_enqueue(Message msg, int dst, int tag) {
  TaskState& task = calling_task();
  const int src = rank();
  SION_CHECK(src != dst) << "send to self would deadlock";
  const double t_avail = msg.t_avail;
  const auto key = std::make_tuple(src, dst, tag);

  const auto waiting = waiting_recv_.find(key);
  if (waiting != waiting_recv_.end()) {
    WaitingReceiver receiver = waiting->second;
    waiting_recv_.erase(waiting);
    if (receiver.view_sink != nullptr) {
      SION_CHECK(msg.is_view)
          << "recv_view must be paired with send_view (the span would "
             "dangle once a copying sender returns)";
      *receiver.view_sink = msg.view;
    } else {
      receiver.sink->assign(msg.view.begin(), msg.view.end());
    }
    engine_->wake(*receiver.task, std::max(receiver.t_blocked, msg.t_avail));
  } else {
    mailbox_[key].q.push_back(std::move(msg));
  }
  // Eager send: the sender only occupies its link, it does not wait for the
  // receiver (MPI small/eager protocol).
  task.advance_to(t_avail);
}

void Comm::send_bytes(std::span<const std::byte> data, int dst, int tag) {
  SION_CHECK(dst >= 0 && dst < size()) << "send destination out of range";
  Message msg;
  msg.t_avail = calling_task().now() + net_.p2p_cost(data.size());
  msg.owned.assign(data.begin(), data.end());
  msg.view = msg.owned;
  msg.is_view = false;
  deliver_or_enqueue(std::move(msg), dst, tag);
}

void Comm::send_view(std::span<const std::byte> data, int dst, int tag) {
  SION_CHECK(dst >= 0 && dst < size()) << "send destination out of range";
  Message msg;
  msg.t_avail = calling_task().now() + net_.p2p_cost(data.size());
  msg.view = data;
  msg.is_view = true;
  deliver_or_enqueue(std::move(msg), dst, tag);
}

Comm::Message Comm::take_or_block(int src, int tag,
                                  std::vector<std::byte>* sink,
                                  std::span<const std::byte>* view_sink,
                                  bool* blocked) {
  SION_CHECK(src >= 0 && src < size()) << "recv source out of range";
  TaskState& task = calling_task();
  const int dst = rank();
  SION_CHECK(src != dst) << "recv from self would deadlock";
  const auto key = std::make_tuple(src, dst, tag);

  const auto queued = mailbox_.find(key);
  if (queued != mailbox_.end() && !queued->second.empty()) {
    Message msg = queued->second.take();
    task.advance_to(std::max(task.now(), msg.t_avail));
    *blocked = false;
    return msg;
  }

  SION_CHECK(waiting_recv_.find(key) == waiting_recv_.end())
      << "two receivers blocked on the same (src, tag)";
  waiting_recv_[key] = WaitingReceiver{&task, task.now(), sink, view_sink};
  engine_->block_current();
  *blocked = true;
  return {};
}

std::vector<std::byte> Comm::recv_bytes(int src, int tag) {
  std::vector<std::byte> out;
  bool blocked = false;
  Message msg = take_or_block(src, tag, &out, nullptr, &blocked);
  if (blocked) return out;  // the sender filled the sink before waking us
  if (msg.is_view) {
    out.assign(msg.view.begin(), msg.view.end());
  } else {
    out = std::move(msg.owned);
  }
  return out;
}

std::span<const std::byte> Comm::recv_view(int src, int tag) {
  std::span<const std::byte> out;
  bool blocked = false;
  Message msg = take_or_block(src, tag, nullptr, &out, &blocked);
  if (blocked) return out;  // the sender stored the span before waking us
  SION_CHECK(msg.is_view)
      << "recv_view must be paired with send_view (the span would dangle "
         "once the mailbox copy is dropped)";
  return msg.view;
}

// ---------------------------------------------------------------------------
// group-to-group rotation
// ---------------------------------------------------------------------------

namespace {
// Reserved tag for the rotation collectives: rotation is collective, so no
// user point-to-point traffic is ever in flight on the comm at the same
// time, but a distinct tag keeps a mis-ordered program failing loudly
// instead of cross-matching application messages.
constexpr int kRotateTag = 0x707A7E;
}  // namespace

std::vector<std::byte> Comm::rotate_bytes(std::span<const std::byte> data,
                                          int shift) {
  const int n = size();
  const int s = ((shift % n) + n) % n;
  if (s == 0) return {data.begin(), data.end()};
  const int me = rank();
  // Eager send first, then receive: every task's send completes without
  // waiting for its receiver, so the ring never deadlocks.
  send_bytes(data, (me + s) % n, kRotateTag);
  return recv_bytes((me - s + n) % n, kRotateTag);
}

// ---------------------------------------------------------------------------
// fused two-level exchange
// ---------------------------------------------------------------------------

Status Comm::exchange(Comm& lcom, int group, int ngroups,
                      std::span<const Step> steps, Exchange& x,
                      const Status& mine, const char* what) {
  SION_CHECK(x.words.size() <= ExchangeSlot::kMaxWords)
      << "exchange carries at most " << ExchangeSlot::kMaxWords << " words";
  const int my_rank = rank();
  // Sized once, by the first task of the first exchange: the slots never
  // move while a task waits.
  if (xslots_.size() != members_.size()) xslots_.resize(members_.size());
  ExchangeSlot& slot = xslots_[static_cast<std::size_t>(my_rank)];
  slot.x = &x;
  slot.lcom = &lcom;
  slot.steps = steps;
  slot.nwords = x.words.size();
  std::copy(x.words.begin(), x.words.end(), slot.words.begin());
  slot.argument = x.argument;
  slot.arrival = calling_task().now();
  slot.group = group;
  slot.ngroups = ngroups;
  slot.lrank = lcom.rank();
  slot.code = static_cast<std::uint32_t>(mine.code());
  slot.shared = 0;
  slot.failed = false;
  slot.differs = false;
  if (arrive(Kind::kExchange, &slot, my_rank)) {
    calling_task().advance_to(finish_exchange(ngroups, steps, my_rank));
  }
  // Released: this task's results wait in its slot.
  std::copy(slot.words.begin(),
            slot.words.begin() + static_cast<std::ptrdiff_t>(slot.nwords),
            x.words.begin());
  x.piece = slot.piece;
  if (slot.differs) {
    return InvalidArgument(
        "tasks passed different arguments to one collective exchange (e.g. "
        "a file-system block size on some tasks only, or two different "
        "sizes)");
  }
  if (!slot.failed) return Status::Ok();
  if (slot.shared != 0) {
    if (slot.lrank == 0) return mine;
    return Status(static_cast<ErrorCode>(slot.shared), what);
  }
  if (!mine.ok()) return mine;
  return Internal(what);
}

// Out of line: its locals sit only on the last arrival's stack, never in
// the frame every task keeps while it waits. Two passes over the comm's
// slot array (no task's stack but the file masters'): the first reads the
// groups, clocks and statuses, then the steps are charged per group, and
// the second moves the data of the steps that ran.
__attribute__((noinline)) double Comm::finish_exchange(
    int ngroups, std::span<const Step> steps, int my_rank) {
  const auto n = static_cast<std::size_t>(size());
  const auto ng = static_cast<std::size_t>(ngroups);
  std::size_t nwords = 0;
  for (const Step step : steps) {
    if (step == Step::kBcast || step == Step::kGather ||
        step == Step::kScatter) {
      ++nwords;
    }
  }

  // Pass 1: the file groups, their clocks (latest arrival), their masters
  // and the masters' words. A group's slots come in lcom rank order. Every
  // task must bring the same steps, file count, words and argument word;
  // otherwise nothing runs, and every task is released at the latest
  // arrival.
  const auto same_steps = [steps](std::span<const Step> other) {
    return (other.data() == steps.data() && other.size() == steps.size()) ||
           std::equal(other.begin(), other.end(), steps.begin(), steps.end());
  };
  ExchangeScratch& xs = xs_;
  xs.lcom.assign(ng, nullptr);
  xs.root.assign(ng, nullptr);
  xs.clock.assign(ng, 0.0);
  xs.count.assign(ng, 0);
  xs.shared.assign(ng, 0);
  xs.root_words.resize(ng * nwords);
  bool any_failed = false;
  const std::uint64_t argument = xslots_.front().argument;
  for (std::size_t i = 0; i < n; ++i) {
    const ExchangeSlot& s = xslots_[i];
    if (s.ngroups != ngroups || s.nwords != nwords ||
        s.argument != argument || !same_steps(s.steps)) {
      for (ExchangeSlot& k : xslots_) k.differs = true;
      release_all(my_rank, site_tmax_);
      return site_tmax_;
    }
    SION_CHECK(s.group >= 0 && s.group < ngroups)
        << "exchange group " << s.group << " out of range";
    const auto g = static_cast<std::size_t>(s.group);
    SION_CHECK(s.lrank == xs.count[g]++)
        << "exchange: lcom ranks must follow the comm's rank order";
    if (s.lrank == 0) {
      xs.lcom[g] = s.lcom;
      xs.root[g] = s.x;
      xs.clock[g] = s.arrival;
      xs.shared[g] = s.code;
      std::copy(s.words.begin(),
                s.words.begin() + static_cast<std::ptrdiff_t>(nwords),
                xs.root_words.begin() + static_cast<std::ptrdiff_t>(g * nwords));
    } else {
      SION_CHECK(xs.lcom[g] == s.lcom) << "exchange group spans two comms";
      if (s.arrival > xs.clock[g]) xs.clock[g] = s.arrival;
    }
    if (s.code != 0) any_failed = true;
  }
  for (std::size_t g = 0; g < ng; ++g) {
    SION_CHECK(xs.count[g] == 0 || xs.count[g] == xs.lcom[g]->size())
        << "exchange group " << g << " does not cover its communicator";
  }
  const auto lsize = [&xs](std::size_t g) { return xs.lcom[g]->size(); };
  // A gcom step: every file waits for the latest one.
  const auto sync_all = [&] {
    double latest = -std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < ng; ++g) {
      if (xs.count[g] != 0 && xs.clock[g] > latest) latest = xs.clock[g];
    }
    latest = latest + net_.sync_cost(size());
    for (std::size_t g = 0; g < ng; ++g) xs.clock[g] = latest;
  };
  // An lcom step: each file adds its own cost.
  const auto charge = [&](auto cost_of) {
    for (std::size_t g = 0; g < ng; ++g) {
      if (xs.count[g] != 0) xs.clock[g] = xs.clock[g] + cost_of(g);
    }
  };
  const auto rooted = [&](std::size_t g) {
    return net_.rooted_cost(lsize(g),
                            8ULL * static_cast<std::uint64_t>(lsize(g)));
  };
  const auto bcast = [&](std::size_t g) {
    return net_.bcast_cost(lsize(g), sizeof(std::uint64_t));
  };

  // The costs, in step order, up to a failed vote.
  bool failed = false;
  std::size_t ran = 0;
  std::size_t ngathers = 0;
  while (ran < steps.size() && !failed) {
    switch (steps[ran++]) {
      case Step::kVote:
        charge(bcast);
        for (std::size_t g = 0; g < ng; ++g) {
          if (xs.count[g] != 0 && xs.shared[g] != 0) failed = true;
        }
        if (!(ng == 1 && xs.lcom[0] == this)) {  // two levels: gcom agrees
          failed = failed || any_failed;
          sync_all();
        }
        break;
      case Step::kBcast:
        charge(bcast);
        break;
      case Step::kGather:
        ++ngathers;
        charge(rooted);
        break;
      case Step::kScatter:
        charge(rooted);
        break;
      case Step::kScatterv:
        charge([&](std::size_t g) {
          std::uint64_t bytes = 0;
          for (const std::uint64_t b : xs.root[g]->piece_sizes) bytes += b;
          SION_CHECK(xs.root[g]->piece_sizes.size() ==
                         static_cast<std::size_t>(lsize(g)) &&
                     bytes <= xs.root[g]->pieces.size())
              << "exchange scatterv needs lcom.size() pieces";
          return net_.rooted_cost(lsize(g), bytes);
        });
        break;
      case Step::kSync:
        sync_all();
        break;
    }
  }
  for (std::size_t g = 0; g < ng; ++g) {
    if (xs.count[g] == 0 || ngathers == 0) continue;
    SION_CHECK(xs.root[g]->gathered != nullptr)
        << "exchange gather without a destination";
    xs.root[g]->gathered->resize(ngathers *
                                 static_cast<std::size_t>(lsize(g)));
  }

  // Pass 2: every task's data for the steps that ran.
  xs.piece_at.assign(ng, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ExchangeSlot& s = xslots_[i];
    const auto g = static_cast<std::size_t>(s.group);
    const auto r = static_cast<std::size_t>(s.lrank);
    const auto ls = static_cast<std::size_t>(lsize(g));
    const Exchange& root = *xs.root[g];
    std::array<std::uint64_t, ExchangeSlot::kMaxWords>& words = s.words;
    std::size_t w = 0;
    std::size_t gathered = 0;
    std::size_t scattered = 0;
    for (std::size_t k = 0; k < ran; ++k) {
      switch (steps[k]) {
        case Step::kBcast:
          words[w] = xs.root_words[g * nwords + w];
          ++w;
          break;
        case Step::kGather:
          (*root.gathered)[gathered++ * ls + r] = words[w++];
          break;
        case Step::kScatter: {
          const std::size_t at = scattered++ * ls + r;
          SION_CHECK(at < root.scatter.size())
              << "exchange scatter needs lcom.size() words per step";
          words[w++] = root.scatter[at];
          break;
        }
        case Step::kScatterv: {
          const std::uint64_t bytes = root.piece_sizes[r];
          s.piece = root.pieces.subspan(xs.piece_at[g], bytes);
          xs.piece_at[g] += bytes;
          break;
        }
        case Step::kVote:
        case Step::kSync:
          break;
      }
    }
    if (failed) {
      s.failed = true;
      s.shared = xs.shared[g];
    }
  }

  // Release each file at its clock.
  const ExchangeSlot& me = xslots_[static_cast<std::size_t>(my_rank)];
  for (std::size_t g = 0; g < ng; ++g) {
    if (xs.count[g] == 0) continue;
    Comm& l = *xs.lcom[g];
    const auto skip = static_cast<std::size_t>(
        static_cast<int>(g) == me.group ? me.lrank : l.size());
    if (l.ascending_ranks_) {
      engine_->wake_members(l.members_, skip, xs.clock[g]);
    } else {
      for (std::size_t k = 0; k < l.members_.size(); ++k) {
        if (k != skip) engine_->wake(*l.members_[k], xs.clock[g]);
      }
    }
  }
  return xs.clock[static_cast<std::size_t>(me.group)];
}

// ---------------------------------------------------------------------------
// status agreement
// ---------------------------------------------------------------------------

Status share_status(Comm& comm, const Status& mine, int root,
                    const char* what) {
  const std::uint64_t code =
      comm.bcast_u64(static_cast<std::uint64_t>(mine.code()), root);
  if (code == 0) return Status::Ok();
  if (comm.rank() == root) return mine;
  return Status(static_cast<ErrorCode>(code), what);
}

Status agree_status(Comm& comm, const Status& mine, const char* what) {
  const std::uint64_t failed =
      comm.allreduce_u64(mine.ok() ? 0 : 1, ReduceOp::kMax);
  if (failed == 0) return Status::Ok();
  if (!mine.ok()) return mine;
  return Internal(what);
}

}  // namespace sion::par
