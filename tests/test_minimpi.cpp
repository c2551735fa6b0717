/// \file test_minimpi.cpp
/// Tests for the thread-backed MPI-3-like runtime: point-to-point matching
/// rules, request lifecycle, collectives against serial references,
/// communicator management and RMA windows (shared allocation, passive-
/// target locks, atomic accumulates under contention).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <optional>
#include <span>
#include <thread>

#include "minimpi/minimpi.hpp"

namespace {

using namespace minimpi;

/// Runs `fn` over `world` ranks on a single simulated node.
void run(int world, const std::function<void(Context&)>& fn) { Runtime::run(world, fn); }

/// Runs `fn` over `nodes * rpn` ranks with `rpn` ranks per simulated node.
void run_cluster(int nodes, int rpn, const std::function<void(Context&)>& fn) {
    Runtime::run(nodes * rpn, Topology{rpn, {}}, fn);
}

// ------------------------------------------------------------------ runtime

TEST(RuntimeTest, EveryRankRunsExactlyOnce) {
    std::atomic<int> count{0};
    std::array<std::atomic<int>, 8> per_rank{};
    run(8, [&](Context& ctx) {
        count.fetch_add(1);
        per_rank[static_cast<std::size_t>(ctx.rank())].fetch_add(1);
        EXPECT_EQ(ctx.size(), 8);
    });
    EXPECT_EQ(count.load(), 8);
    for (const auto& c : per_rank) {
        EXPECT_EQ(c.load(), 1);
    }
}

TEST(RuntimeTest, TopologyAssignsNodesBlockwise) {
    run_cluster(3, 4, [&](Context& ctx) {
        EXPECT_EQ(ctx.node(), ctx.rank() / 4);
        EXPECT_EQ(ctx.nodes(), 3);
        EXPECT_EQ(ctx.topology().ranks_per_node, 4);
    });
}

TEST(RuntimeTest, InvalidLaunchArgsThrow) {
    EXPECT_THROW(run(0, [](Context&) {}), Error);
    EXPECT_THROW(Runtime::run(2, Topology{0, {}}, [](Context&) {}), std::invalid_argument);
    EXPECT_THROW(Runtime::run(2, std::function<void(Context&)>{}), Error);
}

TEST(RuntimeTest, ExceptionInOneRankAbortsTheTeam) {
    // Rank 1 throws while rank 0 blocks in recv; the runtime must unwind
    // both and rethrow rank 1's primary exception, not the Aborted echo.
    try {
        run(2, [](Context& ctx) {
            if (ctx.rank() == 1) {
                throw std::logic_error("rank 1 exploded");
            }
            int v = 0;
            (void)ctx.world().recv(v, 1, 7);  // never satisfied
        });
        FAIL() << "expected an exception";
    } catch (const std::logic_error& e) {
        EXPECT_STREQ(e.what(), "rank 1 exploded");
    }
}

TEST(RuntimeTest, SingleRankWorldWorks) {
    run(1, [](Context& ctx) {
        EXPECT_EQ(ctx.rank(), 0);
        ctx.world().barrier();
        int v = 41;
        ctx.world().bcast(v, 0);
        EXPECT_EQ(ctx.world().allreduce(v, ReduceOp::Sum), 41);
    });
}

// -------------------------------------------------------------------- p2p

TEST(P2PTest, BlockingSendRecvScalar) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        if (ctx.rank() == 0) {
            w.send(1234, 1, 9);
        } else {
            int v = 0;
            const Status st = w.recv(v, 0, 9);
            EXPECT_EQ(v, 1234);
            EXPECT_EQ(st.source, 0);
            EXPECT_EQ(st.tag, 9);
            EXPECT_EQ(st.bytes, sizeof(int));
        }
    });
}

TEST(P2PTest, SpanPayloadRoundTrip) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        std::vector<double> data(1000);
        if (ctx.rank() == 0) {
            std::iota(data.begin(), data.end(), 0.0);
            w.send(std::span<const double>(data), 1, 0);
        } else {
            std::vector<double> got(1000, -1.0);
            const Status st = w.recv(std::span<double>(got), 0, 0);
            EXPECT_EQ(st.count<double>(), 1000u);
            EXPECT_EQ(got[0], 0.0);
            EXPECT_EQ(got[999], 999.0);
        }
    });
}

TEST(P2PTest, NonOvertakingSameSourceSameTag) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        if (ctx.rank() == 0) {
            for (int i = 0; i < 100; ++i) {
                w.send(i, 1, 5);
            }
        } else {
            for (int i = 0; i < 100; ++i) {
                int v = -1;
                (void)w.recv(v, 0, 5);
                EXPECT_EQ(v, i);  // send order preserved
            }
        }
    });
}

TEST(P2PTest, TagSelectsAmongPendingMessages) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        if (ctx.rank() == 0) {
            w.send(111, 1, 1);
            w.send(222, 1, 2);
            w.send(333, 1, 3);
        } else {
            int v = 0;
            (void)w.recv(v, 0, 2);
            EXPECT_EQ(v, 222);
            (void)w.recv(v, 0, 3);
            EXPECT_EQ(v, 333);
            (void)w.recv(v, 0, 1);
            EXPECT_EQ(v, 111);
        }
    });
}

TEST(P2PTest, AnySourceAndAnyTagWildcards) {
    run(4, [](Context& ctx) {
        const Comm& w = ctx.world();
        if (ctx.rank() != 0) {
            w.send(ctx.rank() * 10, 0, ctx.rank());
        } else {
            int sum = 0;
            for (int i = 0; i < 3; ++i) {
                int v = 0;
                const Status st = w.recv(v, kAnySource, kAnyTag);
                EXPECT_EQ(v, st.source * 10);
                EXPECT_EQ(st.tag, st.source);
                sum += v;
            }
            EXPECT_EQ(sum, 10 + 20 + 30);
        }
    });
}

TEST(P2PTest, SendToSelf) {
    run(1, [](Context& ctx) {
        ctx.world().send(7, 0, 0);
        int v = 0;
        (void)ctx.world().recv(v, 0, 0);
        EXPECT_EQ(v, 7);
    });
}

TEST(P2PTest, EmptyMessage) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        if (ctx.rank() == 0) {
            w.send_bytes(nullptr, 0, 1, 0);
        } else {
            const Status st = w.recv_bytes(nullptr, 0, 0, 0);
            EXPECT_EQ(st.bytes, 0u);
        }
    });
}

TEST(P2PTest, TruncationThrows) {
    EXPECT_THROW(run(2,
                     [](Context& ctx) {
                         const Comm& w = ctx.world();
                         if (ctx.rank() == 0) {
                             const std::array<int, 4> big{1, 2, 3, 4};
                             w.send(std::span<const int>(big), 1, 0);
                         } else {
                             int small = 0;
                             (void)w.recv(small, 0, 0);  // 4-byte buffer, 16-byte message
                         }
                     }),
                 Error);
}

TEST(P2PTest, InvalidRankAndTagThrow) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        int v = 0;
        EXPECT_THROW(w.send(v, 2, 0), Error);
        EXPECT_THROW(w.send(v, -1, 0), Error);
        EXPECT_THROW(w.send(v, 1, -3), Error);  // negative tag on send
        EXPECT_THROW((void)w.recv(v, 5, 0), Error);
        w.barrier();
    });
}

TEST(P2PTest, ProbeReportsPendingMessage) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        if (ctx.rank() == 0) {
            w.send(77, 1, 3);
            w.barrier();
        } else {
            const Status st = w.probe(kAnySource, kAnyTag);
            EXPECT_EQ(st.source, 0);
            EXPECT_EQ(st.tag, 3);
            EXPECT_EQ(st.bytes, sizeof(int));
            int v = 0;
            (void)w.recv(v, st.source, st.tag);
            EXPECT_EQ(v, 77);
            EXPECT_EQ(w.iprobe(), std::nullopt);  // queue drained
            w.barrier();
        }
    });
}

// ---------------------------------------------------------------- requests

TEST(RequestTest, IrecvCompletesViaWait) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        if (ctx.rank() == 1) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            w.send(55, 0, 0);
        } else {
            int v = 0;
            Request r = w.irecv(std::span<int>(&v, 1), 1, 0);
            EXPECT_FALSE(r.done());
            r.wait();
            EXPECT_TRUE(r.done());
            EXPECT_EQ(v, 55);
            EXPECT_EQ(r.status().source, 1);
        }
    });
}

TEST(RequestTest, TestPollsWithoutBlocking) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        if (ctx.rank() == 1) {
            int go = 0;
            (void)w.recv(go, 0, 1);  // wait for the probe phase to finish
            w.send(66, 0, 0);
        } else {
            int v = 0;
            Request r = w.irecv(std::span<int>(&v, 1), 1, 0);
            EXPECT_FALSE(r.test());  // nothing sent yet
            w.send(1, 1, 1);         // release the sender
            while (!r.test()) {
                std::this_thread::yield();
            }
            EXPECT_EQ(v, 66);
        }
    });
}

TEST(RequestTest, IsendIsImmediatelyComplete) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        if (ctx.rank() == 0) {
            const int v = 9;
            Request r = w.isend(std::span<const int>(&v, 1), 1, 0);
            EXPECT_TRUE(r.done());
            r.wait();  // idempotent
        } else {
            int v = 0;
            (void)w.recv(v, 0, 0);
            EXPECT_EQ(v, 9);
        }
    });
}

TEST(RequestTest, WaitAllCompletesMixedBatch) {
    run(4, [](Context& ctx) {
        const Comm& w = ctx.world();
        if (ctx.rank() != 0) {
            w.send(ctx.rank(), 0, 0);
        } else {
            std::array<int, 3> vals{};
            std::vector<Request> reqs;
            for (int i = 1; i <= 3; ++i) {
                reqs.push_back(w.irecv(std::span<int>(&vals[static_cast<std::size_t>(i - 1)], 1),
                                       i, 0));
            }
            Request::wait_all(reqs);
            EXPECT_EQ(vals[0] + vals[1] + vals[2], 6);
        }
    });
}

// -------------------------------------------------------------- collectives

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, BarrierCompletes) {
    run(GetParam(), [](Context& ctx) {
        for (int i = 0; i < 5; ++i) {
            ctx.world().barrier();
        }
    });
}

TEST_P(CollectiveSizes, BcastFromEveryRoot) {
    const int p = GetParam();
    run(p, [p](Context& ctx) {
        for (int root = 0; root < p; ++root) {
            std::int64_t v = ctx.rank() == root ? 1000 + root : -1;
            ctx.world().bcast(v, root);
            EXPECT_EQ(v, 1000 + root);
        }
    });
}

TEST_P(CollectiveSizes, BcastSpanPayload) {
    run(GetParam(), [](Context& ctx) {
        std::vector<int> data(257, ctx.rank() == 0 ? 42 : 0);
        ctx.world().bcast(std::span<int>(data), 0);
        for (const int v : data) {
            EXPECT_EQ(v, 42);
        }
    });
}

TEST_P(CollectiveSizes, ReduceSumToEveryRoot) {
    const int p = GetParam();
    run(p, [p](Context& ctx) {
        const std::int64_t expected = static_cast<std::int64_t>(p) * (p - 1) / 2;
        for (int root = 0; root < p; ++root) {
            const auto r =
                ctx.world().reduce(static_cast<std::int64_t>(ctx.rank()), ReduceOp::Sum, root);
            if (ctx.rank() == root) {
                EXPECT_EQ(r, expected);
            }
        }
    });
}

TEST_P(CollectiveSizes, AllreduceMinMaxProd) {
    const int p = GetParam();
    run(p, [p](Context& ctx) {
        const int me = ctx.rank() + 1;  // 1..P
        EXPECT_EQ(ctx.world().allreduce(me, ReduceOp::Min), 1);
        EXPECT_EQ(ctx.world().allreduce(me, ReduceOp::Max), p);
        if (p <= 8) {  // factorial fits easily
            std::int64_t fact = 1;
            for (int i = 1; i <= p; ++i) {
                fact *= i;
            }
            EXPECT_EQ(ctx.world().allreduce(static_cast<std::int64_t>(me), ReduceOp::Prod), fact);
        }
    });
}

TEST_P(CollectiveSizes, ReduceElementwiseVectors) {
    const int p = GetParam();
    run(p, [p](Context& ctx) {
        std::vector<int> mine(16);
        for (std::size_t i = 0; i < mine.size(); ++i) {
            mine[i] = ctx.rank() + static_cast<int>(i);
        }
        std::vector<int> out(16, -1);
        ctx.world().reduce(std::span<const int>(mine), std::span<int>(out), ReduceOp::Sum, 0);
        if (ctx.rank() == 0) {
            const int ranksum = p * (p - 1) / 2;
            for (std::size_t i = 0; i < out.size(); ++i) {
                EXPECT_EQ(out[i], ranksum + static_cast<int>(i) * p);
            }
        }
    });
}

TEST_P(CollectiveSizes, GatherCollectsInRankOrder) {
    const int p = GetParam();
    run(p, [p](Context& ctx) {
        const auto all = ctx.world().gather(ctx.rank() * 2, 0);
        if (ctx.rank() == 0) {
            ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
            for (int r = 0; r < p; ++r) {
                EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 2);
            }
        } else {
            EXPECT_TRUE(all.empty());
        }
    });
}

TEST_P(CollectiveSizes, AllgatherGivesEveryoneEverything) {
    const int p = GetParam();
    run(p, [p](Context& ctx) {
        const auto all = ctx.world().allgather(100 + ctx.rank());
        ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
            EXPECT_EQ(all[static_cast<std::size_t>(r)], 100 + r);
        }
    });
}

TEST_P(CollectiveSizes, ScatterDistributesSlices) {
    const int p = GetParam();
    run(p, [p](Context& ctx) {
        std::vector<int> src;
        if (ctx.rank() == 0) {
            src.resize(static_cast<std::size_t>(p));
            for (int r = 0; r < p; ++r) {
                src[static_cast<std::size_t>(r)] = r * r;
            }
        }
        const int mine = ctx.world().scatter(std::span<const int>(src), 0);
        EXPECT_EQ(mine, ctx.rank() * ctx.rank());
    });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes, ::testing::Values(1, 2, 3, 5, 8, 16, 17));

TEST(CollectiveTest, ConcurrentCollectivesOnDistinctCommsDoNotCross) {
    // Split world into two halves; each half does its own reductions while
    // the other is mid-flight. Sequence numbers must keep them apart.
    run(8, [](Context& ctx) {
        const Comm& w = ctx.world();
        const Comm half = w.split(ctx.rank() % 2, ctx.rank());
        for (int i = 0; i < 20; ++i) {
            const int sum = half.allreduce(1, ReduceOp::Sum);
            EXPECT_EQ(sum, 4);
        }
        w.barrier();
    });
}

TEST(CollectiveTest, FloatingPointAllreduceSum) {
    run(7, [](Context& ctx) {
        const double r = ctx.world().allreduce(0.5, ReduceOp::Sum);
        EXPECT_NEAR(r, 3.5, 1e-12);
    });
}

// ------------------------------------------------------- comm management

TEST(CommTest, SplitGroupsByColorOrderedByKey) {
    run(6, [](Context& ctx) {
        const Comm& w = ctx.world();
        // colors: even ranks -> 0, odd -> 1; key reverses the order.
        const Comm sub = w.split(ctx.rank() % 2, -ctx.rank());
        EXPECT_TRUE(sub.valid());
        EXPECT_EQ(sub.size(), 3);
        // Reversed key: highest old rank becomes rank 0 of the child.
        const int expected_rank = (5 - ctx.rank()) / 2;
        EXPECT_EQ(sub.rank(), expected_rank);
        // The new comm must be functional.
        const int sum = sub.allreduce(ctx.rank(), ReduceOp::Sum);
        EXPECT_EQ(sum, ctx.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
    });
}

TEST(CommTest, SplitWithNegativeColorYieldsNullComm) {
    run(4, [](Context& ctx) {
        const Comm sub = ctx.world().split(ctx.rank() == 0 ? -1 : 7, 0);
        if (ctx.rank() == 0) {
            EXPECT_FALSE(sub.valid());
        } else {
            EXPECT_TRUE(sub.valid());
            EXPECT_EQ(sub.size(), 3);
        }
    });
}

TEST(CommTest, SplitTypeSharedGroupsByNode) {
    run_cluster(3, 4, [](Context& ctx) {
        const Comm node = ctx.world().split_type(SplitType::Shared, ctx.world().rank());
        EXPECT_EQ(node.size(), 4);
        EXPECT_EQ(node.rank(), ctx.rank() % 4);
        // All members must really share my node.
        for (int r = 0; r < node.size(); ++r) {
            EXPECT_EQ(node.node_of(r), ctx.node());
        }
        const int sum = node.allreduce(1, ReduceOp::Sum);
        EXPECT_EQ(sum, 4);
    });
}

TEST(CommTest, DupIsIndependentMatchingContext) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        const Comm d = w.dup();
        EXPECT_NE(d.id(), w.id());
        EXPECT_EQ(d.size(), w.size());
        if (ctx.rank() == 0) {
            w.send(1, 1, 0);
            d.send(2, 1, 0);
        } else {
            // Receive from the dup first: tags/sources equal, only the
            // communicator distinguishes them.
            int v = 0;
            (void)d.recv(v, 0, 0);
            EXPECT_EQ(v, 2);
            (void)w.recv(v, 0, 0);
            EXPECT_EQ(v, 1);
        }
    });
}

TEST(CommTest, WorldRankMapping) {
    run(4, [](Context& ctx) {
        const Comm sub = ctx.world().split(ctx.rank() / 2, ctx.rank());
        EXPECT_EQ(sub.world_rank_of(sub.rank()), ctx.rank());
        EXPECT_THROW((void)sub.world_rank_of(99), Error);
    });
}

TEST(CommTest, OperationsOnInvalidCommThrow) {
    const Comm invalid;
    EXPECT_FALSE(invalid.valid());
    int v = 0;
    EXPECT_THROW(invalid.send(v, 0, 0), Error);
    EXPECT_THROW(invalid.barrier(), Error);
    EXPECT_THROW((void)invalid.dup(), Error);
}

// ------------------------------------------------------------------ windows

TEST(WindowTest, AllocateSharedLayoutAndQuery) {
    run(4, [](Context& ctx) {
        const Comm& w = ctx.world();
        // Heterogeneous segment sizes, like MPI allows.
        const std::size_t mine = sizeof(std::int64_t) * static_cast<std::size_t>(ctx.rank() + 1);
        Window win = Window::allocate_shared(w, mine);
        EXPECT_EQ(win.size(), 4);
        EXPECT_EQ(win.rank(), ctx.rank());
        EXPECT_EQ(win.local_span().size(), mine);
        for (int r = 0; r < 4; ++r) {
            const auto [ptr, bytes] = win.shared_query(r);
            EXPECT_NE(ptr, nullptr);
            EXPECT_EQ(bytes, sizeof(std::int64_t) * static_cast<std::size_t>(r + 1));
        }
        win.free();
        EXPECT_FALSE(win.valid());
    });
}

TEST(WindowTest, DirectStoresVisibleAfterBarrier) {
    run(4, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, sizeof(std::int64_t));
        auto mine = win.shared_span<std::int64_t>(ctx.rank());
        mine[0] = 100 + ctx.rank();
        win.sync();
        w.barrier();
        for (int r = 0; r < 4; ++r) {
            EXPECT_EQ(win.shared_span<std::int64_t>(r)[0], 100 + r);
        }
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, PutGetRoundTrip) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, 8 * sizeof(double));
        if (ctx.rank() == 0) {
            const std::array<double, 8> vals{1, 2, 3, 4, 5, 6, 7, 8};
            win.lock(LockType::Exclusive, 1);
            win.put(std::span<const double>(vals), 1, 0);
            win.unlock(1);
            win.flush(1);
        }
        w.barrier();
        std::array<double, 8> got{};
        win.lock(LockType::Shared, 1);
        win.get(std::span<double>(got), 1, 0);
        win.unlock(1);
        EXPECT_EQ(got[0], 1.0);
        EXPECT_EQ(got[7], 8.0);
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, FetchAndOpSumIsAtomicUnderContention) {
    constexpr int kRanks = 8;
    constexpr int kIncrements = 2000;
    run(kRanks, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, ctx.rank() == 0 ? sizeof(std::int64_t) : 0);
        if (ctx.rank() == 0) {
            win.shared_span<std::int64_t>(0)[0] = 0;
        }
        w.barrier();
        std::int64_t sum_of_previous = 0;
        for (int i = 0; i < kIncrements; ++i) {
            sum_of_previous +=
                win.fetch_and_op<std::int64_t>(1, 0, 0, AccumulateOp::Sum);
        }
        w.barrier();
        if (ctx.rank() == 0) {
            // Every increment observed a unique previous value: the final
            // count is exact iff no update was lost.
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 0),
                      static_cast<std::int64_t>(kRanks) * kIncrements);
        }
        w.barrier();
        win.free();
        (void)sum_of_previous;
    });
}

TEST(WindowTest, FetchAndOpVariants) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, ctx.rank() == 0 ? 4 * sizeof(std::int64_t) : 0);
        if (ctx.rank() == 0) {
            auto s = win.shared_span<std::int64_t>(0);
            s[0] = 10;
            s[1] = 10;
            s[2] = 10;
            s[3] = 10;
        }
        w.barrier();
        if (ctx.rank() == 1) {
            EXPECT_EQ(win.fetch_and_op<std::int64_t>(5, 0, 0, AccumulateOp::Sum), 10);
            EXPECT_EQ(win.fetch_and_op<std::int64_t>(77, 0, 1, AccumulateOp::Replace), 10);
            EXPECT_EQ(win.fetch_and_op<std::int64_t>(3, 0, 2, AccumulateOp::Min), 10);
            EXPECT_EQ(win.fetch_and_op<std::int64_t>(99, 0, 3, AccumulateOp::Max), 10);
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 0), 15);
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 1), 77);
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 2), 3);
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 3), 99);
        }
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, FetchAndOpOnDoubles) {
    run(4, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, ctx.rank() == 0 ? sizeof(double) : 0);
        if (ctx.rank() == 0) {
            win.shared_span<double>(0)[0] = 0.0;
        }
        w.barrier();
        for (int i = 0; i < 500; ++i) {
            (void)win.fetch_and_op<double>(0.5, 0, 0, AccumulateOp::Sum);
        }
        w.barrier();
        if (ctx.rank() == 0) {
            EXPECT_DOUBLE_EQ(win.atomic_read<double>(0, 0), 4 * 500 * 0.5);
        }
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, CompareAndSwap) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, ctx.rank() == 0 ? sizeof(std::int64_t) : 0);
        if (ctx.rank() == 0) {
            win.shared_span<std::int64_t>(0)[0] = 5;
        }
        w.barrier();
        if (ctx.rank() == 1) {
            // Successful swap returns the old value and stores the new one.
            EXPECT_EQ(win.compare_and_swap<std::int64_t>(5, 9, 0, 0), 5);
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 0), 9);
            // Failed swap leaves the value alone.
            EXPECT_EQ(win.compare_and_swap<std::int64_t>(5, 1, 0, 0), 9);
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 0), 9);
        }
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, ExclusiveLockProvidesMutualExclusion) {
    // Classic read-modify-write race: without the lock the final counter
    // would (with overwhelming probability) be smaller than the target.
    constexpr int kRanks = 8;
    constexpr int kRounds = 500;
    run(kRanks, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, ctx.rank() == 0 ? sizeof(std::int64_t) : 0);
        auto cell = win.shared_span<std::int64_t>(0);
        if (ctx.rank() == 0) {
            cell[0] = 0;
        }
        w.barrier();
        for (int i = 0; i < kRounds; ++i) {
            win.lock(LockType::Exclusive, 0);
            const std::int64_t v = cell[0];  // non-atomic RMW under the lock
            cell[0] = v + 1;
            win.unlock(0);
        }
        w.barrier();
        if (ctx.rank() == 0) {
            EXPECT_EQ(cell[0], static_cast<std::int64_t>(kRanks) * kRounds);
        }
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, LockDisciplineViolationsThrow) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, sizeof(std::int64_t));
        EXPECT_THROW(win.unlock(0), Error);  // unlock without lock
        win.lock(LockType::Shared, 0);
        EXPECT_THROW(win.lock(LockType::Shared, 0), Error);  // overlapping epoch
        win.unlock(0);
        EXPECT_THROW(win.lock(LockType::Exclusive, 9), Error);  // bad target
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, LockAllUnlockAll) {
    run(4, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, sizeof(std::int64_t));
        win.lock_all();
        for (int r = 0; r < 4; ++r) {
            std::int64_t v = 0;
            win.get(std::span<std::int64_t>(&v, 1), r, 0);
        }
        win.unlock_all();
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, OutOfRangeAndMisalignedAccessThrow) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, 3 * sizeof(std::int64_t));
        EXPECT_THROW((void)win.atomic_read<std::int64_t>(0, 3), Error);   // past the end
        EXPECT_THROW((void)win.atomic_read<std::int64_t>(0, 100), Error);
        std::array<std::int64_t, 4> buf{};
        EXPECT_THROW(win.put(std::span<const std::int64_t>(buf), 0, 0), Error);  // 4 > 3
        w.barrier();
        win.free();
    });
}

/// The window ops validate inline (one test on the fast path); every
/// misuse still throws its own ErrorCode, on both transports.
TEST(WindowTest, MisuseKeepsItsErrorCodesOnBothTransports) {
    const auto code_of = [](const auto& op) {
        try {
            op();
        } catch (const Error& e) {
            return std::optional<ErrorCode>(e.code());
        }
        return std::optional<ErrorCode>();
    };
    for (const TransportKind kind : {TransportKind::Threads, TransportKind::Shm}) {
        SCOPED_TRACE(transport_name(kind));
        Runtime::run(2, kind, [&](Context& ctx) {
            const Comm& w = ctx.world();
            const auto expect_all = [&](const Window& win, int target, std::size_t offset,
                                        ErrorCode want) {
                EXPECT_EQ(code_of([&] { (void)win.atomic_read<std::int64_t>(target, offset); }),
                          want);
                EXPECT_EQ(code_of([&] {
                              (void)win.fetch_and_op<std::int64_t>(1, target, offset,
                                                                   AccumulateOp::Sum);
                          }),
                          want);
                EXPECT_EQ(code_of([&] {
                              (void)win.compare_and_swap<std::int64_t>(0, 1, target, offset);
                          }),
                          want);
            };
            expect_all(Window(), 0, 0, ErrorCode::WindowUsage);  // never allocated

            Window win = Window::allocate_shared(w, 4 * sizeof(std::int64_t));
            expect_all(win, -1, 0, ErrorCode::InvalidRank);
            expect_all(win, w.size(), 0, ErrorCode::InvalidRank);
            expect_all(win, 0, 4, ErrorCode::WindowUsage);  // past the end
            w.barrier();
            win.free();
            expect_all(win, 0, 0, ErrorCode::WindowUsage);  // freed handle

            // Misaligned: segments are 64-byte aligned, so for a 128-byte
            // aligned element exactly one of two segments 192 bytes apart
            // starts misaligned.
            struct alignas(128) Wide {
                std::byte bytes[128];
            };
            Window wide = Window::allocate_shared(w, w.rank() == 0 ? 192 : 128);
            std::array<Wide, 1> buf{};
            const auto get_code = [&](int target) {
                return code_of([&] { wide.get(std::span<Wide>(buf), target, 0); });
            };
            const auto c0 = get_code(0);
            const auto c1 = get_code(1);
            EXPECT_NE(c0.has_value(), c1.has_value());
            EXPECT_EQ(c0.value_or(ErrorCode::WindowUsage), ErrorCode::WindowUsage);
            EXPECT_EQ(c1.value_or(ErrorCode::WindowUsage), ErrorCode::WindowUsage);
            w.barrier();
            wide.free();
        });
    }
}

TEST(WindowTest, FreeWithOpenEpochThrows) {
    run(2, [](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, sizeof(std::int64_t));
        win.lock(LockType::Shared, 0);
        EXPECT_THROW(win.free(), Error);
        win.unlock(0);
        w.barrier();
        win.free();
    });
}

TEST(WindowTest, WindowsOnSubCommunicators) {
    // The paper's layout: one global window on world, one shared window per
    // node communicator.
    run_cluster(2, 4, [](Context& ctx) {
        const Comm& world = ctx.world();
        const Comm node = world.split_type(SplitType::Shared, world.rank());
        Window global = Window::allocate_shared(world, world.rank() == 0 ? 16 : 0);
        Window local = Window::allocate_shared(node, node.rank() == 0 ? 16 : 0);
        // Node-local counter increments stay within the node.
        (void)local.fetch_and_op<std::int64_t>(1, 0, 0, AccumulateOp::Sum);
        world.barrier();
        if (node.rank() == 0) {
            EXPECT_EQ(local.atomic_read<std::int64_t>(0, 0), 4);
        }
        // Global counter sees everyone.
        (void)global.fetch_and_op<std::int64_t>(1, 0, 0, AccumulateOp::Sum);
        world.barrier();
        if (world.rank() == 0) {
            EXPECT_EQ(global.atomic_read<std::int64_t>(0, 0), 8);
        }
        world.barrier();
        local.free();
        global.free();
    });
}

// ----------------------------------------------------------- stress tests

TEST(StressTest, ManyToOneTraffic) {
    run(16, [](Context& ctx) {
        const Comm& w = ctx.world();
        constexpr int kMsgs = 50;
        if (ctx.rank() == 0) {
            std::int64_t total = 0;
            for (int i = 0; i < kMsgs * 15; ++i) {
                std::int64_t v = 0;
                (void)w.recv(v, kAnySource, 0);
                total += v;
            }
            EXPECT_EQ(total, 15LL * 16 / 2 * kMsgs);  // sum of ranks 1..15, kMsgs each
        } else {
            for (int i = 0; i < kMsgs; ++i) {
                w.send(static_cast<std::int64_t>(ctx.rank()), 0, 0);
            }
        }
    });
}

TEST(StressTest, StepCounterProtocolMatchesSsSemantics) {
    // The distributed chunk-calculation idiom end-to-end on minimpi: every
    // rank fetch-adds the step counter until N is exhausted; the union of
    // claimed steps must be exactly [0, N).
    constexpr std::int64_t kN = 5000;
    constexpr int kRanks = 8;
    std::array<std::atomic<int>, kN> claimed{};
    run(kRanks, [&](Context& ctx) {
        const Comm& w = ctx.world();
        Window win = Window::allocate_shared(w, ctx.rank() == 0 ? sizeof(std::int64_t) : 0);
        if (ctx.rank() == 0) {
            win.shared_span<std::int64_t>(0)[0] = 0;
        }
        w.barrier();
        for (;;) {
            const std::int64_t step =
                win.fetch_and_op<std::int64_t>(1, 0, 0, AccumulateOp::Sum);
            if (step >= kN) {
                break;
            }
            claimed[static_cast<std::size_t>(step)].fetch_add(1);
        }
        w.barrier();
        win.free();
    });
    for (std::int64_t i = 0; i < kN; ++i) {
        EXPECT_EQ(claimed[static_cast<std::size_t>(i)].load(), 1) << "step " << i;
    }
}

}  // namespace
