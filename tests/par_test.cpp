// Tests for the fiber task runtime: scheduling determinism, virtual time
// semantics, every collective, communicator splits, and point-to-point.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"

namespace sion::par {
namespace {

TEST(EngineTest, RunsAllTasksToCompletion) {
  Engine engine;
  std::vector<int> seen(17, 0);
  engine.run(17, [&](Comm& world) {
    seen[static_cast<std::size_t>(world.rank())] += 1;
    EXPECT_EQ(world.size(), 17);
  });
  for (int v : seen) EXPECT_EQ(v, 1);
}

TEST(EngineTest, SingleTaskWorks) {
  Engine engine;
  int calls = 0;
  engine.run(1, [&](Comm& world) {
    EXPECT_EQ(world.rank(), 0);
    EXPECT_EQ(world.size(), 1);
    world.barrier();  // must not deadlock at P=1
    EXPECT_EQ(world.allreduce_u64(9, ReduceOp::kSum), 9u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(EngineTest, VirtualTimeStartsAtEpochAndAdvances) {
  Engine engine;
  engine.run(4, [&](Comm&) {
    TaskState& t = *this_task();
    EXPECT_DOUBLE_EQ(t.now(), 0.0);
    t.compute(1.5);
    EXPECT_DOUBLE_EQ(t.now(), 1.5);
  });
  EXPECT_DOUBLE_EQ(engine.epoch(), 1.5);
}

TEST(EngineTest, EpochIsMonotonicAcrossRuns) {
  Engine engine;
  engine.run(2, [&](Comm&) { this_task()->compute(2.0); });
  EXPECT_DOUBLE_EQ(engine.epoch(), 2.0);
  engine.run(2, [&](Comm&) {
    EXPECT_DOUBLE_EQ(this_task()->now(), 2.0);
    this_task()->compute(1.0);
  });
  EXPECT_DOUBLE_EQ(engine.epoch(), 3.0);
}

TEST(EngineTest, SchedulerRunsSmallestClockFirst) {
  // Task 0 computes far into the future; others should complete first, and
  // execution order across yields must follow virtual time.
  Engine engine;
  std::vector<int> completion_order;
  engine.run(3, [&](Comm& world) {
    const int r = world.rank();
    this_task()->compute(r == 0 ? 100.0 : 1.0 * (r + 1));
    completion_order.push_back(r);
  });
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[0], 1);
  EXPECT_EQ(completion_order[1], 2);
  EXPECT_EQ(completion_order[2], 0);
}

TEST(EngineTest, DeterministicAcrossRepetition) {
  auto trace_of = []() {
    Engine engine;
    std::vector<std::pair<int, double>> trace;
    engine.run(8, [&](Comm& world) {
      this_task()->compute(0.001 * ((world.rank() * 7) % 5 + 1));
      world.barrier();
      this_task()->compute(0.002);
      trace.emplace_back(world.rank(), this_task()->now());
    });
    return trace;
  };
  EXPECT_EQ(trace_of(), trace_of());
}

TEST(EngineTest, ExceptionInTaskPropagates) {
  Engine engine;
  EXPECT_THROW(
      engine.run(3,
                 [&](Comm& world) {
                   if (world.rank() == 1) throw std::runtime_error("boom");
                 }),
      std::runtime_error);
  // Engine is reusable after a failed run.
  int ok = 0;
  engine.run(2, [&](Comm&) { ++ok; });
  EXPECT_EQ(ok, 2);
}

// The suite name predates the single-scheduler engine and is kept so the
// test keeps its identity in result logs.
TEST(ShardedEngine, ExceptionPropagatesAndEngineStaysUsable) {
  Engine engine;
  EXPECT_THROW(engine.run(32,
                          [](Comm& world) {
                            if (world.rank() == 13) {
                              throw std::runtime_error("boom on 13");
                            }
                          }),
               std::runtime_error);
  // The failed run must not poison the engine or the thread (RAII reset of
  // the run bindings): a fresh run on the same engine, collectives
  // included, completes.
  int completions = 0;
  engine.run(32, [&completions](Comm& world) {
    world.allreduce_u64(1, ReduceOp::kSum);
    if (world.rank() == 0) ++completions;
  });
  EXPECT_EQ(completions, 1);
}

TEST(EngineTest, ErrorChoiceIsSmallestVirtualTimeThrow) {
  // Several ranks throw at distinct virtual times; the engine surfaces the
  // throw with the smallest (vtime, rank) key — rank 60, which throws
  // earliest — not the lowest rank or the last throw.
  Engine engine;
  try {
    engine.run(64, [](Comm& world) {
      const int rank = world.rank();
      if (rank >= 5 && rank % 5 == 0) {
        this_task()->compute(1.0e-6 * static_cast<double>(64 - rank));
        throw std::runtime_error("rank " + std::to_string(rank));
      }
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 60");
  }
}

TEST(EngineTest, SimFsServesSerialCallersOutsideRun) {
  // Serial tools drive SimFs with no engine running (this_task() is null);
  // the same file system then serves tasks of a later run.
  EXPECT_EQ(this_task(), nullptr);
  fs::SimFs fs(fs::TestbedConfig());
  auto serial = fs.create("serial.dat");
  ASSERT_TRUE(serial.ok()) << serial.status().to_string();
  serial.value().reset();
  Engine engine;
  engine.run(4, [&fs](Comm& world) {
    auto f = fs.create("task." + std::to_string(world.rank()));
    ASSERT_TRUE(f.ok()) << f.status().to_string();
    world.barrier();
  });
  EXPECT_TRUE(fs.exists("serial.dat"));
  EXPECT_TRUE(fs.exists("task.3"));
}

// Regression for the MADV_FREE canary false positive: the kernel may reclaim
// (zero) a pooled slab's pages at any moment, which used to trip the stack
// overflow check on the next engine that reused the slab. The canary is
// re-armed on every acquisition, so a scribbled pool must be harmless.
TEST(EngineTest, CanarySurvivesScribbledSlabPool) {
  {
    Engine engine;
    engine.run(64, [](Comm& world) { world.barrier(); });
  }  // the slab returns to the pool here
  testing::scribble_cached_stack_slabs();
  Engine engine;
  engine.run(64, [](Comm& world) { world.barrier(); });
  SUCCEED();
}

TEST(EngineTest, ManyTasksLowStack) {
  EngineConfig config;
  config.stack_bytes = 32 * 1024;
  Engine engine(config);
  std::atomic<int> count{0};
  engine.run(4096, [&](Comm& world) {
    world.barrier();
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 4096);
}

// Tasks released by a collective drain as release runs from a heap of runs.
// Dispatch must follow (vtime, rank) exactly whether the runs interleave by
// rank (every pop re-sifts the heap) or lie side by side (pops leave the
// heap as it is). Every task records (now, rank) whenever it resumes; the
// sequence must be strictly increasing. The last arrival at a barrier is
// the waker, the member its run skips: the delays make it the first member
// of its sub-communicator on even steps and the last on odd ones, and every
// third step staggers the sub-communicators so that their runs are released
// one after another instead of together.
TEST(EngineTest, InterleavedReleaseRunsDispatchInKeyOrder) {
  constexpr int kTasks = 48;
  constexpr int kSteps = 12;
  for (const bool interleaved : {true, false}) {
    SCOPED_TRACE(interleaved ? "split by rank % 3" : "split by rank / 16");
    Engine engine;
    std::vector<std::pair<double, int>> resumes;
    engine.run(kTasks, [&](Comm& world) {
      TaskState& me = *this_task();
      const int r = world.rank();
      const int color = interleaved ? r % 3 : r / 16;
      Comm* sub = world.split(color, r);
      for (int step = 0; step < kSteps; ++step) {
        world.barrier();
        resumes.emplace_back(me.now(), r);
        const int waker = step % 2 == 0 ? 0 : sub->size() - 1;
        double delay =
            sub->rank() == waker ? 2.0 : 1.0 + 0.01 * ((r + step) % 5);
        if (step % 3 == 2) delay += 0.25 * color;
        me.compute(delay);
        resumes.emplace_back(me.now(), r);
        sub->barrier();
        resumes.emplace_back(me.now(), r);
      }
    });
    ASSERT_EQ(resumes.size(), std::size_t{kTasks} * kSteps * 3);
    for (std::size_t i = 1; i < resumes.size(); ++i) {
      ASSERT_LT(resumes[i - 1], resumes[i]) << "resume " << i;
    }
  }
}

TEST(BarrierTest, ReleasesAllAtMaxTime) {
  Engine engine;
  engine.run(5, [&](Comm& world) {
    this_task()->compute(static_cast<double>(world.rank()));  // rank r at t=r
    world.barrier();
    // Everyone must be released at >= the slowest arrival (t=4).
    EXPECT_GE(this_task()->now(), 4.0);
  });
}

TEST(BarrierTest, CostScalesWithLogP) {
  NetworkModel net;
  EXPECT_EQ(net.tree_depth(1), 0);
  EXPECT_EQ(net.tree_depth(2), 1);
  EXPECT_EQ(net.tree_depth(1024), 10);
  EXPECT_EQ(net.tree_depth(65536), 16);
  EXPECT_EQ(net.tree_depth(65537), 17);
  EXPECT_LT(net.sync_cost(16), net.sync_cost(1024));
}

TEST(BcastTest, RootValueReachesEveryone) {
  Engine engine;
  engine.run(9, [&](Comm& world) {
    const std::uint64_t v =
        world.bcast_u64(world.rank() == 3 ? 777u : 0u, /*root=*/3);
    EXPECT_EQ(v, 777u);
  });
}

TEST(BcastTest, BytesBuffer) {
  Engine engine;
  engine.run(4, [&](Comm& world) {
    std::vector<std::byte> buf(64);
    if (world.rank() == 0) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<std::byte>(i);
      }
    }
    world.bcast_bytes(buf, 0);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      EXPECT_EQ(std::to_integer<std::size_t>(buf[i]), i);
    }
  });
}

TEST(GatherTest, RootCollectsInRankOrder) {
  Engine engine;
  engine.run(6, [&](Comm& world) {
    auto all = world.gather_u64(
        static_cast<std::uint64_t>(world.rank() * 10), /*root=*/2);
    if (world.rank() == 2) {
      ASSERT_EQ(all.size(), 6u);
      for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(all[static_cast<std::size_t>(i)],
                  static_cast<std::uint64_t>(i * 10));
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(GathervTest, VariableLengthArrays) {
  Engine engine;
  engine.run(4, [&](Comm& world) {
    // Rank r contributes r values [r, r, ...].
    std::vector<std::uint64_t> mine(static_cast<std::size_t>(world.rank()),
                                    static_cast<std::uint64_t>(world.rank()));
    auto all = world.gatherv_u64_flat(mine, 0);
    if (world.rank() == 0) {
      ASSERT_EQ(all.offsets.size(), 5u);
      ASSERT_EQ(all.data.size(), 6u);  // 0 + 1 + 2 + 3
      for (int r = 0; r < 4; ++r) {
        const auto piece = all.of(r);
        EXPECT_EQ(piece.size(), static_cast<std::size_t>(r));
        for (auto v : piece) EXPECT_EQ(v, static_cast<std::uint64_t>(r));
      }
    } else {
      EXPECT_TRUE(all.data.empty());
      EXPECT_TRUE(all.offsets.empty());
    }
  });
}

TEST(ScatterTest, EachTaskGetsItsValue) {
  Engine engine;
  engine.run(5, [&](Comm& world) {
    std::vector<std::uint64_t> values;
    if (world.rank() == 0) {
      values = {100, 101, 102, 103, 104};
    }
    const std::uint64_t v = world.scatter_u64(values, 0);
    EXPECT_EQ(v, 100u + static_cast<std::uint64_t>(world.rank()));
  });
}

TEST(AllgatherTest, EveryoneSeesEverything) {
  Engine engine;
  engine.run(7, [&](Comm& world) {
    auto all = world.allgather_u64(static_cast<std::uint64_t>(world.rank()));
    ASSERT_EQ(all.size(), 7u);
    for (int i = 0; i < 7; ++i) {
      EXPECT_EQ(all[static_cast<std::size_t>(i)],
                static_cast<std::uint64_t>(i));
    }
  });
}

TEST(AllreduceTest, SumMaxMin) {
  Engine engine;
  engine.run(8, [&](Comm& world) {
    const auto r = static_cast<std::uint64_t>(world.rank());
    EXPECT_EQ(world.allreduce_u64(r, ReduceOp::kSum), 28u);
    EXPECT_EQ(world.allreduce_u64(r, ReduceOp::kMax), 7u);
    EXPECT_EQ(world.allreduce_u64(r + 3, ReduceOp::kMin), 3u);
  });
}

TEST(ScattervBytesTest, PiecesReachTheirRanks) {
  Engine engine;
  engine.run(3, [&](Comm& world) {
    std::vector<std::byte> flat;
    std::vector<std::uint64_t> sizes;
    if (world.rank() == 0) {
      for (int r = 0; r < 3; ++r) {
        flat.insert(flat.end(), static_cast<std::size_t>(r + 2),
                    static_cast<std::byte>('A' + r));
        sizes.push_back(static_cast<std::uint64_t>(r + 2));
      }
    }
    auto mine = world.scatterv_bytes_flat(flat, sizes, 0);
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(world.rank() + 2));
    EXPECT_EQ(std::to_integer<char>(mine[0]),
              static_cast<char>('A' + world.rank()));
  });
}

TEST(SplitTest, GroupsByColorOrderedByKey) {
  Engine engine;
  engine.run(8, [&](Comm& world) {
    const int color = world.rank() % 2;
    const int key = -world.rank();  // reverse order within each child
    Comm* child = world.split(color, key);
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(child->size(), 4);
    // Reverse key order: global rank 6 (largest even key=-6... smallest) is
    // child rank 0 of color 0.
    const int expected_rank = (7 - world.rank()) / 2;
    EXPECT_EQ(child->rank(), expected_rank);
    // The child comm must be usable for collectives.
    const auto sum = child->allreduce_u64(
        static_cast<std::uint64_t>(world.rank()), ReduceOp::kSum);
    EXPECT_EQ(sum, color == 0 ? 12u : 16u);
  });
}

TEST(SplitTest, UndefinedColorYieldsNull) {
  Engine engine;
  engine.run(4, [&](Comm& world) {
    Comm* child = world.split(world.rank() == 0 ? -1 : 5, 0);
    if (world.rank() == 0) {
      EXPECT_EQ(child, nullptr);
    } else {
      ASSERT_NE(child, nullptr);
      EXPECT_EQ(child->size(), 3);
    }
  });
}

TEST(SplitTest, NestedSplits) {
  Engine engine;
  engine.run(8, [&](Comm& world) {
    Comm* half = world.split(world.rank() / 4, world.rank());
    ASSERT_NE(half, nullptr);
    Comm* quarter = half->split(half->rank() / 2, half->rank());
    ASSERT_NE(quarter, nullptr);
    EXPECT_EQ(quarter->size(), 2);
    quarter->barrier();
  });
}

TEST(SplitTest, DescendingKeysInterleavedColorsWithTies) {
  // Three interleaved colors, keys descending in pairs (ties fall back to
  // the parent rank), and one rank outside every child: the flat-array sort
  // must order each child exactly like MPI_Comm_split.
  Engine engine;
  constexpr int kTasks = 14;
  engine.run(kTasks, [&](Comm& world) {
    const int r = world.rank();
    const int color = r == 5 ? -1 : r % 3;
    Comm* child = world.split(color, -(r / 2));
    if (color < 0) {
      EXPECT_EQ(child, nullptr);
      return;
    }
    ASSERT_NE(child, nullptr);
    std::vector<int> expected;
    for (int key = -(kTasks - 1) / 2; key <= 0; ++key) {
      for (int g = 0; g < kTasks; ++g) {
        if (g != 5 && g % 3 == color && -(g / 2) == key) expected.push_back(g);
      }
    }
    ASSERT_EQ(child->size(), static_cast<int>(expected.size()));
    const auto order = child->allgather_u64(static_cast<std::uint64_t>(r));
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(order[i], static_cast<std::uint64_t>(expected[i]));
    }
    EXPECT_EQ(expected[static_cast<std::size_t>(child->rank())], r);
  });
}

TEST(SplitTest, ContiguousChildRanksStartAtZero) {
  // A contiguous split of a contiguous comm that does not start at global
  // rank 0 (rank() takes the O(1) offset path on both levels).
  Engine engine;
  engine.run(12, [&](Comm& world) {
    const int r = world.rank();
    Comm* third = world.split(r / 4, r);
    ASSERT_NE(third, nullptr);
    EXPECT_EQ(third->rank(), r % 4);
    Comm* pair = third->split(third->rank() / 2, third->rank());
    ASSERT_NE(pair, nullptr);
    EXPECT_EQ(pair->rank(), r % 2);
    EXPECT_EQ(pair->allreduce_u64(static_cast<std::uint64_t>(r),
                                  ReduceOp::kMin),
              static_cast<std::uint64_t>(r - r % 2));
  });
}

// --- fused two-level exchange ------------------------------------------------

// Files of unequal size over 11 tasks: file f holds the ranks with
// r * 7 % 3 == f (sizes 4, 4, 3, interleaved), entered at staggered times.
int exchange_file_of(int r) { return r * 7 % 3; }

struct ExchangeRun {
  std::vector<double> released;  // per rank, after the chain
  std::vector<std::uint64_t> got;  // per rank: bcast, scatter results
  std::vector<std::vector<std::uint64_t>> gathered;  // per file master
  std::vector<ErrorCode> codes;
  std::vector<std::vector<std::byte>> pieces;  // per rank
};

// Runs the chain vote, bcast, gather, scatter, scatterv either fused or as
// the unfused collectives; `fail_rank` (if >= 0) fails its own status.
ExchangeRun run_chain(bool fused, int fail_rank) {
  constexpr int kTasks = 11;
  Engine engine;
  ExchangeRun out;
  out.released.resize(kTasks);
  out.got.resize(2 * kTasks);
  out.gathered.resize(3);
  out.codes.resize(kTasks);
  out.pieces.resize(kTasks);
  engine.run(kTasks, [&](Comm& world) {
    const int r = world.rank();
    const int f = exchange_file_of(r);
    Comm* lcom = world.split(f, r);
    ASSERT_NE(lcom, nullptr);
    this_task()->compute(1.0e-6 * ((r * 37) % 11));
    const Status mine =
        r == fail_rank ? IoError("local failure") : Status::Ok();
    const bool master = lcom->rank() == 0;
    std::vector<std::uint64_t> to_scatter;
    std::vector<std::byte> pieces;  // lcom rank i's piece: i + 1 bytes
    std::vector<std::uint64_t> piece_sizes;
    if (master) {
      for (int i = 0; i < lcom->size(); ++i) {
        to_scatter.push_back(static_cast<std::uint64_t>(100 * f + i));
        piece_sizes.push_back(static_cast<std::uint64_t>(i + 1));
        pieces.insert(pieces.end(), static_cast<std::size_t>(i + 1),
                      static_cast<std::byte>(16 * f + i));
      }
    }
    std::vector<std::byte> piece;
    std::uint64_t words[3] = {master ? 1000u + static_cast<unsigned>(f) : 0u,
                              static_cast<std::uint64_t>(r), 0};
    std::vector<std::uint64_t> gathered;
    Status st;
    if (fused) {
      static constexpr Comm::Step kSteps[] = {
          Comm::Step::kVote, Comm::Step::kBcast, Comm::Step::kGather,
          Comm::Step::kScatter, Comm::Step::kScatterv};
      Comm::Exchange x;
      x.words = words;
      x.gathered = &gathered;
      x.scatter = to_scatter;
      x.pieces = pieces;
      x.piece_sizes = piece_sizes;
      st = world.exchange(*lcom, f, 3, kSteps, x, mine, "chain failed");
      piece.assign(x.piece.begin(), x.piece.end());
    } else {
      st = share_status(*lcom, mine, 0, "chain failed");
      if (st.ok()) st = mine;
      st = agree_status(world, st, "chain failed");
      if (st.ok()) {
        words[0] = lcom->bcast_u64(words[0], 0);
        gathered = lcom->gather_u64(words[1], 0);
        words[2] = lcom->scatter_u64(to_scatter, 0);
        piece = lcom->scatterv_bytes_flat(pieces, piece_sizes, 0);
      }
    }
    out.codes[static_cast<std::size_t>(r)] = st.code();
    out.released[static_cast<std::size_t>(r)] = this_task()->now();
    out.got[static_cast<std::size_t>(2 * r)] = words[0];
    out.got[static_cast<std::size_t>(2 * r + 1)] = words[2];
    if (master) out.gathered[static_cast<std::size_t>(f)] = gathered;
    out.pieces[static_cast<std::size_t>(r)] = piece;
    // A fused piece is a view into the master's buffer: the master keeps it
    // until the next collective.
    world.barrier();
  });
  return out;
}

TEST(ExchangeTest, MatchesTheUnfusedChainBitForBit) {
  const ExchangeRun fused = run_chain(true, -1);
  const ExchangeRun plain = run_chain(false, -1);
  EXPECT_EQ(fused.released, plain.released);
  EXPECT_EQ(fused.got, plain.got);
  EXPECT_EQ(fused.gathered, plain.gathered);
  EXPECT_EQ(fused.pieces, plain.pieces);
  // The files released at their own times (the 3-task file first), every
  // task got its file master's word, and each master its file's global
  // ranks in lcom order.
  EXPECT_LT(fused.released[2], fused.released[0]);
  EXPECT_EQ(fused.released[2], fused.released[8]);
  for (int r = 0; r < 11; ++r) {
    EXPECT_EQ(fused.codes[static_cast<std::size_t>(r)], ErrorCode::kOk);
    EXPECT_EQ(fused.got[static_cast<std::size_t>(2 * r)],
              1000u + static_cast<unsigned>(exchange_file_of(r)));
  }
  EXPECT_EQ(fused.pieces[8], std::vector<std::byte>(3, std::byte{16 * 2 + 2}));
  ASSERT_EQ(fused.gathered[2].size(), 3u);
  EXPECT_EQ(fused.gathered[2], (std::vector<std::uint64_t>{2, 5, 8}));
}

TEST(ExchangeTest, FailedVoteStopsTheChainWhereTheUnfusedOneReturns) {
  // Rank 3 is file 0's second task (0, 3, 6, 9); rank 1 masters file 1.
  for (const int fail_rank : {3, 1}) {
    const ExchangeRun fused = run_chain(true, fail_rank);
    const ExchangeRun plain = run_chain(false, fail_rank);
    EXPECT_EQ(fused.released, plain.released) << "failing rank " << fail_rank;
    EXPECT_EQ(fused.codes, plain.codes) << "failing rank " << fail_rank;
    for (int r = 0; r < 11; ++r) {
      const ErrorCode want =
          r == fail_rank || (fail_rank == 1 && exchange_file_of(r) == 1)
              ? ErrorCode::kIoError
              : ErrorCode::kInternal;
      EXPECT_EQ(fused.codes[static_cast<std::size_t>(r)], want)
          << "rank " << r << ", failing rank " << fail_rank;
    }
  }
}

TEST(ExchangeTest, OneLevelVoteIsTheShareAlone) {
  // With lcom == gcom the vote is share_status: a broadcast, no agreement.
  for (const int fail_rank : {-1, 0}) {
    std::vector<double> times[2];
    std::vector<ErrorCode> codes[2];
    for (const bool fused : {true, false}) {
      Engine engine;
      auto& t = times[fused ? 0 : 1];
      auto& c = codes[fused ? 0 : 1];
      t.resize(6);
      c.resize(6);
      engine.run(6, [&](Comm& world) {
        const int r = world.rank();
        this_task()->compute(1.0e-6 * r);
        const Status mine = r == fail_rank ? NotFound("gone") : Status::Ok();
        std::uint64_t v = r == 0 ? 42 : 0;
        Status st;
        if (fused) {
          static constexpr Comm::Step kSteps[] = {Comm::Step::kVote,
                                                  Comm::Step::kBcast};
          Comm::Exchange x;
          x.words = std::span(&v, 1);
          st = world.exchange(world, 0, 1, kSteps, x, mine, "share");
        } else {
          st = share_status(world, mine, 0, "share");
          if (st.ok()) v = world.bcast_u64(v, 0);
        }
        if (st.ok()) {
          EXPECT_EQ(v, 42u);
        }
        t[static_cast<std::size_t>(r)] = this_task()->now();
        c[static_cast<std::size_t>(r)] = st.code();
      });
    }
    EXPECT_EQ(times[0], times[1]) << "failing rank " << fail_rank;
    EXPECT_EQ(codes[0], codes[1]) << "failing rank " << fail_rank;
  }
}

TEST(ExchangeTest, CountsOneRendezvousForTheWholeChain) {
  Engine engine;
  engine.run(8, [&](Comm& world) {
    Comm* half = world.split(world.rank() / 4, world.rank());
    ASSERT_NE(half, nullptr);
    const std::uint64_t before = world.engine().rendezvous_count();
    static constexpr Comm::Step kSteps[] = {
        Comm::Step::kVote, Comm::Step::kBcast, Comm::Step::kSync};
    std::uint64_t v = 7;
    Comm::Exchange x;
    x.words = std::span(&v, 1);
    ASSERT_TRUE(world.exchange(*half, world.rank() / 4, 2, kSteps, x,
                               Status::Ok(), "x")
                    .ok());
    EXPECT_EQ(v, 7u);
    EXPECT_EQ(world.engine().rendezvous_count(), before + 1);
  });
  EXPECT_EQ(engine.rendezvous_slots(), 8u + 8u);  // the split, the exchange
}

TEST(ExchangeTest, DifferentStepsFailEveryTaskWithoutRunningAny) {
  // Rank 2 skips the leading vote and broadcast (as a task that was given a
  // block size does while the others detect it): the steps and the word
  // counts differ, so nothing runs and every task gets InvalidArgument.
  Engine engine;
  std::vector<ErrorCode> codes(6);
  std::vector<std::uint64_t> words_after(6);
  engine.run(6, [&](Comm& world) {
    const int r = world.rank();
    Comm* half = world.split(r / 3, r);
    ASSERT_NE(half, nullptr);
    static constexpr Comm::Step kSteps[] = {
        Comm::Step::kVote, Comm::Step::kBcast, Comm::Step::kGather};
    std::uint64_t words[2] = {100u + static_cast<unsigned>(r),
                              static_cast<std::uint64_t>(r)};
    std::vector<std::uint64_t> gathered;
    Comm::Exchange x;
    x.gathered = &gathered;
    const bool odd_one = r == 2;
    x.words = std::span(words).subspan(odd_one ? 1 : 0);
    const Status st = world.exchange(
        *half, r / 3, 2, std::span(kSteps).subspan(odd_one ? 2 : 0), x,
        Status::Ok(), "x");
    codes[static_cast<std::size_t>(r)] = st.code();
    words_after[static_cast<std::size_t>(r)] = words[0];
    world.barrier();  // the engine still runs: no task is stuck
  });
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(codes[static_cast<std::size_t>(r)], ErrorCode::kInvalidArgument)
        << "rank " << r;
    // No broadcast ran.
    EXPECT_EQ(words_after[static_cast<std::size_t>(r)],
              100u + static_cast<unsigned>(r));
  }
}

TEST(CollectiveKindTest, DifferentKindsAtOneRendezvousAbortNamingBoth) {
  // Rank 0 enters an exchange where the others enter a split: each kind
  // reads its own slot type, so the site stops the run with a CHECK that
  // names both instead of reading one task's slot as the other's.
  EXPECT_DEATH(
      {
        Engine engine;
        engine.run(4, [&](Comm& world) {
          if (world.rank() == 0) {
            static constexpr Comm::Step kSteps[] = {Comm::Step::kSync};
            Comm::Exchange x;
            (void)world.exchange(world, 0, 1, kSteps, x, Status::Ok(), "x");
          } else {
            (void)world.split(0, world.rank());
          }
        });
      },
      "collective kind mismatch .*(exchange.*split|split.*exchange)");
}

TEST(P2pTest, SendThenRecv) {
  Engine engine;
  engine.run(2, [&](Comm& world) {
    if (world.rank() == 0) {
      std::vector<std::byte> msg{std::byte{1}, std::byte{2}, std::byte{3}};
      world.send_bytes(msg, 1, /*tag=*/7);
    } else {
      auto got = world.recv_bytes(0, 7);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_EQ(std::to_integer<int>(got[2]), 3);
    }
  });
}

TEST(P2pTest, RecvBeforeSendAlsoWorks) {
  // Receiver at an earlier virtual time than the sender; the DES must order
  // the rendezvous correctly either way.
  Engine engine;
  engine.run(2, [&](Comm& world) {
    if (world.rank() == 0) {
      this_task()->compute(5.0);  // sender arrives late
      std::vector<std::byte> msg(10, std::byte{9});
      world.send_bytes(msg, 1, 0);
      EXPECT_GE(this_task()->now(), 5.0);
    } else {
      auto got = world.recv_bytes(0, 0);
      EXPECT_EQ(got.size(), 10u);
      EXPECT_GE(this_task()->now(), 5.0);  // could not complete before send
    }
  });
}

TEST(P2pTest, TagsKeepStreamsSeparate) {
  Engine engine;
  engine.run(2, [&](Comm& world) {
    if (world.rank() == 0) {
      std::vector<std::byte> a(1, std::byte{1});
      std::vector<std::byte> b(1, std::byte{2});
      world.send_bytes(a, 1, /*tag=*/1);
      world.send_bytes(b, 1, /*tag=*/2);
    } else {
      // Receive in the opposite order of the sends.
      auto b = world.recv_bytes(0, 2);
      auto a = world.recv_bytes(0, 1);
      EXPECT_EQ(std::to_integer<int>(a[0]), 1);
      EXPECT_EQ(std::to_integer<int>(b[0]), 2);
    }
  });
}

TEST(P2pTest, ManyPairsExchange) {
  Engine engine;
  engine.run(16, [&](Comm& world) {
    const int partner = world.rank() ^ 1;
    std::vector<std::byte> msg(4, static_cast<std::byte>(world.rank()));
    if (world.rank() < partner) {
      world.send_bytes(msg, partner, 0);
      auto got = world.recv_bytes(partner, 0);
      EXPECT_EQ(std::to_integer<int>(got[0]), partner);
    } else {
      auto got = world.recv_bytes(partner, 0);
      EXPECT_EQ(std::to_integer<int>(got[0]), partner);
      world.send_bytes(msg, partner, 0);
    }
  });
}

TEST(P2pTest, ViewShipsWithoutCopy) {
  Engine engine;
  engine.run(2, [&](Comm& world) {
    std::vector<std::byte> buf(64, static_cast<std::byte>(0xAB));
    if (world.rank() == 0) {
      // The blocking token keeps `buf` alive until the receiver is done,
      // mirroring the aggregation ship protocol.
      world.send_view(buf, 1, /*tag=*/3);
      (void)world.recv_bytes(1, /*tag=*/4);
    } else {
      const auto view = world.recv_view(0, 3);
      ASSERT_EQ(view.size(), 64u);
      EXPECT_EQ(std::to_integer<int>(view[63]), 0xAB);
      world.send_bytes({}, 0, 4);
    }
  });
}

TEST(P2pTest, ViewRecvBeforeSendBlocksAndDelivers) {
  Engine engine;
  engine.run(2, [&](Comm& world) {
    std::vector<std::byte> buf(8, static_cast<std::byte>(7));
    if (world.rank() == 0) {
      this_task()->compute(1.0);  // receiver blocks first
      world.send_view(buf, 1, 0);
      (void)world.recv_bytes(1, 1);
    } else {
      const auto view = world.recv_view(0, 0);
      ASSERT_EQ(view.size(), 8u);
      EXPECT_EQ(std::to_integer<int>(view[0]), 7);
      EXPECT_GE(this_task()->now(), 1.0);
      world.send_bytes({}, 0, 1);
    }
  });
}

TEST(P2pTest, ViewMessageReadableThroughRecvBytes) {
  // A copying receiver may consume a view message (it copies); only the
  // reverse pairing is a protocol error.
  Engine engine;
  engine.run(2, [&](Comm& world) {
    std::vector<std::byte> buf(5, static_cast<std::byte>(3));
    if (world.rank() == 0) {
      world.send_view(buf, 1, 0);
      (void)world.recv_bytes(1, 1);
    } else {
      const auto got = world.recv_bytes(0, 0);
      ASSERT_EQ(got.size(), 5u);
      EXPECT_EQ(std::to_integer<int>(got[4]), 3);
      world.send_bytes({}, 0, 1);
    }
  });
}

// ---------------------------------------------------------------------------
// group-to-group rotation (the buddy-replication ship primitive)
// ---------------------------------------------------------------------------

TEST(RotateTest, PayloadsMoveToTheBuddyGroup) {
  Engine engine;
  engine.run(8, [&](Comm& world) {
    // Two domains of four ranks: shift 4 ships every rank's payload to the
    // same-positioned rank of the buddy domain. Sizes vary per rank so a
    // mis-routed buffer is detected by length alone.
    std::vector<std::byte> mine(3 + static_cast<std::size_t>(world.rank()),
                                static_cast<std::byte>(world.rank()));
    const auto got = world.rotate_bytes(mine, 4);
    const int src = (world.rank() - 4 + 8) % 8;
    ASSERT_EQ(got.size(), 3 + static_cast<std::size_t>(src));
    for (const std::byte b : got) {
      EXPECT_EQ(std::to_integer<int>(b), src);
    }
  });
}

TEST(RotateTest, NegativeAndWrappedShiftsNormalize) {
  Engine engine;
  engine.run(6, [&](Comm& world) {
    std::vector<std::byte> mine(1, static_cast<std::byte>(world.rank()));
    // shift -1 receives from the rank ahead; shift size+1 from one behind.
    auto back = world.rotate_bytes(mine, -1);
    EXPECT_EQ(std::to_integer<int>(back[0]), (world.rank() + 1) % 6);
    auto fwd = world.rotate_bytes(mine, 7);
    EXPECT_EQ(std::to_integer<int>(fwd[0]), (world.rank() + 5) % 6);
  });
}

TEST(RotateTest, ShiftMultipleOfSizeIsALocalCopy) {
  Engine engine;
  engine.run(4, [&](Comm& world) {
    const double t0 = this_task()->now();
    std::vector<std::byte> mine(5, static_cast<std::byte>(world.rank()));
    const auto copy = world.rotate_bytes(mine, 8);
    EXPECT_EQ(copy, mine);
    EXPECT_DOUBLE_EQ(this_task()->now(), t0);  // no network charged
  });
}

TEST(RotateTest, RotationChargesLinkTime) {
  Engine engine;
  engine.run(4, [&](Comm& world) {
    const double t0 = this_task()->now();
    std::vector<std::byte> mine(1 << 20);
    (void)world.rotate_bytes(mine, 1);
    EXPECT_GT(this_task()->now(), t0);
  });
}

TEST(CollectiveTimeTest, GatherChargesTime) {
  Engine engine;
  double release = 0;
  engine.run(16, [&](Comm& world) {
    world.gather_u64(1, 0);
    if (world.rank() == 0) release = this_task()->now();
  });
  EXPECT_GT(release, 0.0);
  EXPECT_LT(release, 1e-2);  // microseconds-scale, not seconds
}

TEST(CollectiveTimeTest, LargePayloadCostsMore) {
  NetworkModel net;
  EXPECT_GT(net.rooted_cost(64, 64ULL * 1024 * 1024),
            net.rooted_cost(64, 64ULL * 8));
}

TEST(CollectiveStressTest, RepeatedMixedCollectives) {
  Engine engine;
  engine.run(32, [&](Comm& world) {
    for (int iter = 0; iter < 20; ++iter) {
      const auto sum = world.allreduce_u64(1, ReduceOp::kSum);
      EXPECT_EQ(sum, 32u);
      world.barrier();
      const auto v = world.bcast_u64(
          static_cast<std::uint64_t>(iter), iter % world.size());
      EXPECT_EQ(v, static_cast<std::uint64_t>(iter));
    }
  });
}

class TaskCountParamTest : public ::testing::TestWithParam<int> {};

TEST_P(TaskCountParamTest, BarrierAndReduceAtScale) {
  const int n = GetParam();
  Engine engine;
  engine.run(n, [&](Comm& world) {
    world.barrier();
    const auto sum = world.allreduce_u64(1, ReduceOp::kSum);
    EXPECT_EQ(sum, static_cast<std::uint64_t>(n));
    const auto all = world.allgather_u64(
        static_cast<std::uint64_t>(world.rank()));
    EXPECT_EQ(all.size(), static_cast<std::size_t>(n));
  });
}

INSTANTIATE_TEST_SUITE_P(TaskCounts, TaskCountParamTest,
                         ::testing::Values(1, 2, 3, 7, 64, 255, 1024));

}  // namespace
}  // namespace sion::par
