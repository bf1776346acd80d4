// MPI-flavoured communicator for the fiber runtime.
//
// SIONlib is written against MPI communicators: a *global* communicator of
// all tasks writing one multifile and a *local* communicator per physical
// file (paper section 3.2). `Comm` provides exactly the collective surface
// SIONlib and the baselines need — barrier, bcast, gather(v), scatter(v),
// allgather, allreduce, split, and blocking point-to-point — with virtual-
// time costs from the alpha/beta tree model in `NetworkModel`.
//
// Semantics mirror MPI: collectives must be called by every member of the
// communicator, in the same order. Data moves through shared memory (all
// fibers live in one address space); blocked callers keep their buffers
// alive, so the implementation exchanges spans without copies until the
// final placement — the view-based point-to-point calls (`send_view`/
// `recv_view`) extend that contract to the aggregation ship protocol.
//
// Host-performance notes (the collective surface is the hottest code in a
// 64Ki-task sweep):
//   * collectives rendezvous on ONE reusable per-comm site — a comm never
//     has two collectives in flight, so there is no per-operation map or
//     slot-vector allocation;
//   * the gather/scatter results are flat single buffers plus offsets
//     (`FlatGatherU64`, `scatterv_bytes_flat`), never vector-of-vectors;
//   * rank() is O(1) for a comm of consecutive global ranks (the world comm
//     and every contiguous split) and a binary search for other sorted
//     comms, never a hash table;
//   * exchange() fuses a run of collectives over a file comm and its
//     parent into one rendezvous (see below): a SION open plus close
//     suspends each task 7 times when writing and 5 when reading, instead
//     of 17 and 13.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "par/engine.h"

namespace sion::par {

enum class ReduceOp : std::uint8_t { kSum, kMax, kMin };

class Comm {
 public:
  // Engine-internal factory; user code obtains the world comm from
  // Engine::run and sub-comms from split().
  static std::unique_ptr<Comm> create(Engine& engine,
                                      std::vector<TaskState*> members,
                                      NetworkModel net);

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  // Rank of the calling task within this communicator.
  [[nodiscard]] int rank() const;
  [[nodiscard]] int size() const { return static_cast<int>(members_.size()); }
  [[nodiscard]] Engine& engine() const { return *engine_; }
  [[nodiscard]] const NetworkModel& network() const { return net_; }

  void barrier();

  // Root's buffer contents are visible in every task's `buf` on return.
  void bcast_bytes(std::span<std::byte> buf, int root);
  std::uint64_t bcast_u64(std::uint64_t value, int root);

  // Returns the full vector on root, empty elsewhere.
  std::vector<std::uint64_t> gather_u64(std::uint64_t value, int root);

  // Variable-length u64 arrays, gathered into ONE flat buffer on root.
  // offsets has size()+1 entries: rank r's contribution is
  // data[offsets[r] .. offsets[r+1]). Empty on non-root ranks.
  struct FlatGatherU64 {
    std::vector<std::uint64_t> data;
    std::vector<std::uint64_t> offsets;

    [[nodiscard]] std::span<const std::uint64_t> of(int r) const {
      return std::span<const std::uint64_t>(data).subspan(
          offsets[static_cast<std::size_t>(r)],
          offsets[static_cast<std::size_t>(r) + 1] -
              offsets[static_cast<std::size_t>(r)]);
    }
  };
  FlatGatherU64 gatherv_u64_flat(std::span<const std::uint64_t> values,
                                 int root);

  // Root supplies size() values; every task receives its own.
  std::uint64_t scatter_u64(std::span<const std::uint64_t> values, int root);

  std::vector<std::uint64_t> allgather_u64(std::uint64_t value);
  std::uint64_t allreduce_u64(std::uint64_t value, ReduceOp op);

  // Root supplies one flat buffer sliced by `sizes` (size() entries, rank
  // order); each task receives its own piece.
  std::vector<std::byte> scatterv_bytes_flat(std::span<const std::byte> data,
                                             std::span<const std::uint64_t>
                                                 sizes,
                                             int root);

  // MPI_Comm_split. Tasks passing the same color land in the same child
  // communicator, ordered by (key, parent rank). color < 0 means "not in any
  // child" (MPI_UNDEFINED) and yields nullptr. Child comms are owned by the
  // engine and stay valid for the rest of the run.
  Comm* split(int color, int key);

  // Split into consecutive-rank groups of `group_size` tasks (the last group
  // may be smaller). The aggregation helper used by ext::Collective: rank 0
  // of every child is the group's collector. group_size <= 0 or >= size()
  // yields one group spanning the whole communicator.
  Comm* split_groups(int group_size);

  // Point-to-point with MPI-like eager semantics: send buffers the message
  // and returns after charging link time; recv blocks until a matching
  // message (same src and tag, FIFO within the pair) is available.
  void send_bytes(std::span<const std::byte> data, int dst, int tag);
  std::vector<std::byte> recv_bytes(int src, int tag);

  // Zero-copy variants: send_view ships only the span — the sender must
  // keep the buffer alive and unmodified until the receiver's matching recv
  // completes (the blocking collective protocols in ext:: guarantee this);
  // recv_view returns that span directly and must only be paired with
  // send_view. Identical virtual-time cost to send_bytes/recv_bytes.
  void send_view(std::span<const std::byte> data, int dst, int tag);
  std::span<const std::byte> recv_view(int src, int tag);

  // Group-to-group copy collective (MPI_Sendrecv around the ring): every
  // task ships `data` to the task `shift` comm ranks ahead (mod size) and
  // receives the matching buffer from the task `shift` ranks behind. With
  // shift = k * group_size this moves every group's payloads to its k-th
  // neighbour group in one step — the buddy-replication ship pattern
  // (ext::Buddy mirrors checkpoint chunks to another failure domain with
  // it). Collective: every member must call it with the same shift. A
  // shift that is a multiple of size() degenerates to a local copy with no
  // network cost.
  std::vector<std::byte> rotate_bytes(std::span<const std::byte> data,
                                      int shift);

  // ---- Fused two-level exchange --------------------------------------------
  //
  // A SION open or close runs short chains of collectives over a file's
  // communicator `lcom` and over the multifile's comm `gcom` with nothing
  // between them that advances a clock: a status vote (rank 0 of lcom shares
  // its status over lcom, then gcom agrees), geometry broadcasts, gathers to
  // the file master and scatters from it. exchange(), called on gcom, runs
  // such a chain as ONE rendezvous: every task suspends once, and the last
  // arrival moves each file's data and charges the NetworkModel cost of
  // every original step, in the original order.
  //
  // Exact-cost contract. Each file f keeps its own clock, starting at the
  // latest arrival among its tasks. An lcom step adds its cost at lcom's size
  // to the file's clock (kBcast: bcast_cost(lsize, 8); kGather and kScatter:
  // rooted_cost(lsize, 8 * lsize); kScatterv: rooted_cost(lsize, bytes)). A
  // gcom step (the agreement half of kVote, kSync) takes the latest file
  // clock and adds sync_cost(gsize), and every file continues from there.
  // The tasks of each file are released at that file's final clock, so
  // files of unequal size release at different times. A failed vote ends the
  // chain: the rest is neither performed nor charged, exactly as if every
  // task had returned from the unfused chain at the failed agreement. The
  // release times, and hence the schedule, are bit-identical to the unfused
  // calls; the golden determinism suite pins them.
  //
  // When `lcom` is this comm itself (one group), a vote is the share alone:
  // a broadcast of rank 0's status, as share_status does.
  enum class Step : std::uint8_t {
    kVote,      // share lcom rank 0's status over lcom, agree over gcom
    kBcast,     // next word: lcom rank 0's value to every task of lcom
    kGather,    // next word: every task's value to lcom rank 0 (`gathered`)
    kScatter,   // next word: from lcom rank 0's `scatter`, one per lcom rank
    kScatterv,  // lcom rank 0's `pieces`, sliced by `piece_sizes` (`piece`)
    kSync,      // a barrier (or an allreduce) over gcom
  };

  // One task's data for exchange(). The fields below `piece` are read on
  // lcom rank 0 only.
  struct Exchange {
    // One word per kBcast, kGather and kScatter step, in step order: the
    // value this task sends (kGather, and lcom rank 0's for kBcast) or
    // receives (kBcast, kScatter). At most ExchangeSlot::kMaxWords.
    std::span<std::uint64_t> words;
    // An argument every task must pass equal (say, a given file-system
    // block size); tasks that pass different ones all get InvalidArgument.
    std::uint64_t argument = 0;
    // kScatterv: this task's piece, a view into lcom rank 0's `pieces` (no
    // copy). It stays valid while the master keeps `pieces` alive, which a
    // caller guarantees up to its next collective.
    std::span<const std::byte> piece;
    // kGather: lcom.size() words per gather step, step after step, in lcom
    // rank order.
    std::vector<std::uint64_t>* gathered = nullptr;
    // kScatter: lcom.size() words per scatter step, step after step.
    std::span<const std::uint64_t> scatter;
    // kScatterv: lcom.size() pieces, back to back.
    std::span<const std::byte> pieces;
    std::span<const std::uint64_t> piece_sizes;
  };

  // Runs `steps` as one rendezvous of this comm (gcom). Every task passes
  // the same steps and `ngroups`, and its own file comm `lcom` (a split of
  // this comm whose ranks follow this comm's order) with that file's index
  // `group` in [0, ngroups). `mine` is this task's status for the votes.
  // Returns Ok unless a vote failed; then lcom rank 0 of a failed file gets
  // `mine`, its other tasks the master's code with `what` as message, and
  // every other task `mine` if it failed itself, else Internal(`what`).
  // Tasks that pass different steps, `ngroups`, word counts (say, a block
  // size given on some tasks only) or argument words all get
  // InvalidArgument instead.
  Status exchange(Comm& lcom, int group, int ngroups,
                  std::span<const Step> steps, Exchange& x,
                  const Status& mine, const char* what);

 private:
  Comm(Engine& engine, std::vector<TaskState*> members, NetworkModel net);

  // The collective a rendezvous runs. Each kind reads its own slot type, so
  // the site checks that every member arrives for the same kind.
  enum class Kind : std::uint8_t {
    kBarrier,
    kBcast,
    kGather,
    kGatherv,
    kScatter,
    kAllgather,
    kAllreduce,
    kScatterv,
    kSplit,
    kExchange,
  };
  static const char* kind_name(Kind kind);

  // Generic collective rendezvous: every member registers its `slot`; the
  // last arrival runs `finalize(slots, tmax)` (which performs the data
  // movement and returns the release time) and wakes everyone. At most one
  // collective is ever in flight per comm (members cannot reach op k+1
  // before op k released them), so the site is a single reusable arena.
  template <typename F>
  void rendezvous(void* slot, F&& finalize, Kind kind);

  // The two halves of a rendezvous. arrive() registers `slot`; it returns
  // false once the task was blocked and then released by the last arrival,
  // and true on the last arrival, which must release everyone. site_tmax_
  // then holds the latest arrival time. A member that arrives for another
  // kind than the first arrival's fails a CHECK naming both: its slot would
  // be read as the wrong type.
  bool arrive(Kind kind, void* slot, int my_rank);
  // Wakes every member but `my_rank` at `release`, then advances the
  // caller's clock to it.
  void release_all(int my_rank, double release);
  // exchange()'s finalize: performs and charges the steps, wakes each
  // file's tasks at the file's release time, and returns the caller's. When
  // the tasks passed different steps, group counts or word counts, nothing
  // runs: every task is released at the latest arrival and fails.
  double finish_exchange(int ngroups, std::span<const Step> steps,
                         int my_rank);

  [[nodiscard]] TaskState& calling_task() const;

  struct Message {
    double t_avail = 0.0;  // earliest virtual time the receiver can have it
    std::span<const std::byte> view;  // always set; into `owned` or remote
    std::vector<std::byte> owned;     // empty for send_view messages
    bool is_view = false;
  };
  // FIFO mailbox for one (src, dst, tag) stream; a vector with a head
  // cursor, reset when drained, so steady-state token traffic allocates
  // nothing.
  struct Box {
    std::vector<Message> q;
    std::size_t head = 0;

    [[nodiscard]] bool empty() const { return head == q.size(); }
    Message take() {
      Message m = std::move(q[head++]);
      if (head == q.size()) {
        q.clear();
        head = 0;
      }
      return m;
    }
  };
  struct WaitingReceiver {
    TaskState* task = nullptr;
    double t_blocked = 0.0;
    std::vector<std::byte>* sink = nullptr;       // recv_bytes
    std::span<const std::byte>* view_sink = nullptr;  // recv_view
  };

  void deliver_or_enqueue(Message msg, int dst, int tag);
  Message take_or_block(int src, int tag, std::vector<std::byte>* sink,
                        std::span<const std::byte>* view_sink, bool* blocked);

  Engine* engine_;
  std::vector<TaskState*> members_;
  std::vector<int> granks_;  // global rank per comm rank (member order)
  bool contiguous_ranks_ = false;  // granks_[i] == granks_[0] + i
  bool ascending_ranks_ = false;   // strictly increasing granks_
  NetworkModel net_;

  std::vector<std::uint64_t> next_op_;  // per comm rank op counter

  // The single reusable rendezvous site.
  std::uint64_t site_op_ = 0;
  Kind site_kind_ = Kind::kBarrier;
  int site_arrived_ = 0;
  double site_tmax_ = 0.0;
  std::vector<void*> site_slots_;

  // exchange()'s rendezvous slots, one per comm rank in one comm-owned
  // array: a task fills its slot before it arrives and copies its results
  // out after its release, so finish_exchange() reads and writes this array
  // and never the waiting tasks' stacks (16Ki of them on a large open).
  struct ExchangeSlot {
    static constexpr std::size_t kMaxWords = 8;
    Exchange* x = nullptr;  // read for lcom rank 0's root-only fields
    Comm* lcom = nullptr;
    std::span<const Step> steps;
    std::array<std::uint64_t, kMaxWords> words{};
    std::size_t nwords = 0;
    std::span<const std::byte> piece;  // out: kScatterv
    std::uint64_t argument = 0;
    double arrival = 0.0;
    int group = 0;
    int ngroups = 0;
    int lrank = 0;
    std::uint32_t code = 0;    // this task's status code
    std::uint32_t shared = 0;  // out: lcom rank 0's code, when a vote failed
    bool failed = false;       // out: a vote failed
    bool differs = false;      // out: the tasks passed different arguments
  };
  std::vector<ExchangeSlot> xslots_;

  // finish_exchange() scratch, reused across calls: one entry per file
  // group (the masters' words: nwords per group).
  struct ExchangeScratch {
    std::vector<Comm*> lcom;
    std::vector<Exchange*> root;        // lcom rank 0's data
    std::vector<double> clock;
    std::vector<int> count;
    std::vector<std::uint32_t> shared;  // lcom rank 0's status code
    std::vector<std::uint64_t> root_words;
    std::vector<std::uint64_t> piece_at;  // kScatterv: next piece offset
  };
  ExchangeScratch xs_;

  // Keyed by (src, dst, tag).
  std::map<std::tuple<int, int, int>, Box> mailbox_;
  std::map<std::tuple<int, int, int>, WaitingReceiver> waiting_recv_;
};

// ---------------------------------------------------------------------------
// Collective status agreement. The protocol is subtle and deadlock-sensitive
// (every member must reach the same agreement points in the same order), so
// SIONlib's collective layers share these helpers instead of re-rolling them.
// A share over a file comm followed by an agreement over its parent is one
// kVote step of Comm::exchange.
// ---------------------------------------------------------------------------

// Share the root's status with every task of `comm`: a failure on the rank
// doing the I/O becomes an error everywhere instead of a hang or a half-open
// file. Non-root tasks receive the root's error code with `what` as message.
Status share_status(Comm& comm, const Status& mine, int root,
                    const char* what);

// share_status, then — when the root's status is Ok — the root's `data` in
// every task's `data`: the element count and the elements, broadcast in two
// more collectives. The root's plan or probe result reaches every task this
// way.
template <typename T>
Status share_data(Comm& comm, const Status& mine, std::vector<T>& data,
                  int root, const char* what) {
  SION_RETURN_IF_ERROR(share_status(comm, mine, root, what));
  data.resize(comm.bcast_u64(data.size(), root));
  comm.bcast_bytes(std::as_writable_bytes(std::span<T>(data)), root);
  return Status::Ok();
}

// Agree on the outcome across `comm` (allreduce-max of failure): any task's
// error fails every task. Tasks that were locally fine report
// Internal(`what`).
Status agree_status(Comm& comm, const Status& mine, const char* what);

}  // namespace sion::par
