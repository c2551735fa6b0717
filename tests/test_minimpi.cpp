/// \file test_minimpi.cpp
/// Tests for the thread-backed MPI-3-like runtime: collectives against
/// serial references, exact communicator matching on both transports,
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
#include <vector>

#include "metrics/metrics.hpp"
#include "minimpi/minimpi.hpp"

namespace {

using namespace minimpi;

/// Runs `fn` over `world` ranks on a single simulated node.
void run(int world, const std::function<void(Context&)>& fn) { Runtime::run(world, fn); }

/// Runs `fn` over `nodes * rpn` ranks with `rpn` ranks per simulated node.
void run_cluster(int nodes, int rpn, const std::function<void(Context&)>& fn) {
    Runtime::run(nodes * rpn, Topology{rpn, {}}, fn);
}

/// Sum of every member's `value`: allgather plus std::accumulate.
template <typename T>
[[nodiscard]] T sum_over(const Comm& comm, T value) {
    const std::vector<T> all = comm.allgather(value);
    return std::accumulate(all.begin(), all.end(), T{});
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
    // Rank 1 throws while rank 0 blocks in a broadcast rooted at rank 1;
    // the runtime must unwind both and rethrow rank 1's primary exception,
    // not the Aborted echo.
    try {
        run(2, [](Context& ctx) {
            if (ctx.rank() == 1) {
                throw std::logic_error("rank 1 exploded");
            }
            int v = 0;
            ctx.world().bcast(v, 1);  // never satisfied
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
        EXPECT_EQ(ctx.world().allgather(v), std::vector<int>{41});
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

TEST_P(CollectiveSizes, GatherCollectsInRankOrder) {
    const int p = GetParam();
    run(p, [p](Context& ctx) {
        const std::array<int, 2> mine{ctx.rank() * 2, -ctx.rank()};
        std::vector<int> all(ctx.rank() == 0 ? 2 * static_cast<std::size_t>(p) : 0);
        ctx.world().gather(std::span<const int>(mine), std::span<int>(all), 0);
        if (ctx.rank() == 0) {
            for (int r = 0; r < p; ++r) {
                EXPECT_EQ(all[2 * static_cast<std::size_t>(r)], r * 2);
                EXPECT_EQ(all[2 * static_cast<std::size_t>(r) + 1], -r);
            }
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

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes, ::testing::Values(1, 2, 3, 5, 8, 16, 17));

TEST(CollectiveTest, ConcurrentCollectivesOnDistinctCommsDoNotCross) {
    // Split world into two halves; each half runs its own collectives while
    // the other is mid-flight, and both share every rank's mailbox.
    for (const TransportKind kind : {TransportKind::Threads, TransportKind::Shm}) {
        SCOPED_TRACE(transport_name(kind));
        Runtime::run(8, kind, [](Context& ctx) {
            const Comm& w = ctx.world();
            const Comm half = w.split(ctx.rank() % 2, ctx.rank());
            for (int i = 0; i < 20; ++i) {
                EXPECT_EQ(sum_over(half, ctx.rank()), ctx.rank() % 2 == 0 ? 12 : 16);
            }
            w.barrier();
        });
    }
}

TEST(CollectiveTest, MessagesMatchOnlyTheirOwnCommunicator) {
    // Two communicators over the same group agree on every other match
    // field: the same source, phase and sequence number. The root's
    // broadcasts return once enqueued, so it can finish `a` before the
    // other rank enters `b`; the receiver takes `b` first and must skip
    // the earlier `a` message queued from the same sender.
    for (const TransportKind kind : {TransportKind::Threads, TransportKind::Shm}) {
        SCOPED_TRACE(transport_name(kind));
        Runtime::run(2, kind, [](Context& ctx) {
            const Comm a = ctx.world().split(0, ctx.rank());
            const Comm b = ctx.world().split(0, ctx.rank());
            int va = ctx.rank() == 0 ? 111 : 0;
            int vb = ctx.rank() == 0 ? 222 : 0;
            if (ctx.rank() == 0) {
                a.bcast(va, 0);
                b.bcast(vb, 0);
            } else {
                b.bcast(vb, 0);
                a.bcast(va, 0);
            }
            EXPECT_EQ(va, 111);
            EXPECT_EQ(vb, 222);
        });
    }
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
        EXPECT_EQ(sum_over(sub, ctx.rank()), ctx.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
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
        EXPECT_EQ(sum_over(node, 1), 4);
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
    EXPECT_THROW(invalid.barrier(), Error);
    EXPECT_THROW(invalid.bcast(v, 0), Error);
    EXPECT_THROW((void)invalid.allgather(v), Error);
    EXPECT_THROW((void)invalid.split(0, 0), Error);
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
        Window win = Window::allocate_shared(w, ctx.rank() == 0 ? 3 * sizeof(std::int64_t) : 0);
        if (ctx.rank() == 0) {
            auto s = win.shared_span<std::int64_t>(0);
            s[0] = 10;
            s[1] = 10;
            s[2] = 10;
        }
        w.barrier();
        if (ctx.rank() == 1) {
            EXPECT_EQ(win.fetch_and_op<std::int64_t>(5, 0, 0, AccumulateOp::Sum), 10);
            EXPECT_EQ(win.fetch_and_op<std::int64_t>(77, 0, 1, AccumulateOp::Replace), 10);
            EXPECT_EQ(win.fetch_and_op<std::int64_t>(3, 0, 2, AccumulateOp::NoOp), 10);
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 0), 15);
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 1), 77);
            EXPECT_EQ(win.atomic_read<std::int64_t>(0, 2), 10);
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

/// The one lock-wait loop under contention: rank 1 waits on an exclusive
/// epoch rank 0 holds, and rank 0 releases only once the waiter's failed
/// attempts and the Backoff ladder's sleeps have shown up in the window
/// counters. Each epoch counts one hdls_window_locks_total.
TEST(WindowTest, ContendedLockWalksTheBackoffLadderOnBothTransports) {
    const hdls::metrics::RuntimeMetrics& m = hdls::metrics::rt();
    for (const TransportKind kind : {TransportKind::Threads, TransportKind::Shm}) {
        SCOPED_TRACE(transport_name(kind));
        std::atomic<bool> held{false};
        std::atomic<bool> waiting{false};
        std::atomic<bool> released{false};
        std::uint64_t locks0 = 0;
        std::uint64_t retries0 = 0;
        Runtime::run(2, kind, [&](Context& ctx) {
            const Comm& w = ctx.world();
            Window win = Window::allocate_shared(w, sizeof(std::int64_t));
            if (ctx.rank() == 0) {
                locks0 = m.window_locks->value();
                retries0 = m.window_lock_retries->value();
                win.lock(LockType::Exclusive, 0);
                held.store(true, std::memory_order_release);
                // Baselines once rank 1 is past its last collective, so
                // only its lock loop can move the ladder's counters.
                while (!waiting.load(std::memory_order_acquire)) {
                    std::this_thread::yield();
                }
                const std::uint64_t retries = m.window_lock_retries->value();
                const std::uint64_t sleeps = m.window_backoff_sleeps->value();
                const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
                while (m.window_lock_retries->value() <= retries ||
                       m.window_backoff_sleeps->value() <= sleeps) {
                    if (std::chrono::steady_clock::now() >= deadline) {
                        ADD_FAILURE() << "the waiter never retried into a backoff sleep";
                        break;
                    }
                    std::this_thread::sleep_for(std::chrono::microseconds(100));
                }
                released.store(true, std::memory_order_release);
                win.unlock(0);
            } else {
                while (!held.load(std::memory_order_acquire)) {
                    std::this_thread::yield();
                }
                waiting.store(true, std::memory_order_release);
                win.lock(LockType::Exclusive, 0);
                EXPECT_TRUE(released.load(std::memory_order_acquire))
                    << "acquired an epoch another rank still held";
                win.unlock(0);
            }
            w.barrier();
            if (ctx.rank() == 0) {
                EXPECT_EQ(m.window_locks->value() - locks0, 2U);
                EXPECT_GE(m.window_lock_retries->value() - retries0, 1U);
            }
            w.barrier();
            win.free();
        });
    }
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
