/// \file test_mpi_compat.cpp
/// Tests for the MPI C-API compatibility layer: classic MPI code shapes
/// running unchanged on the thread-backed runtime, ending with the paper's
/// full two-level protocol written in pure MPI style.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "minimpi/mpi_compat.hpp"

namespace {

using namespace minimpi::compat;

TEST(CompatBasicsTest, RankSizeAndInitialized) {
    run(4, [] {
        int flag = 0;
        ASSERT_EQ(MPI_Initialized(&flag), MPI_SUCCESS);
        EXPECT_EQ(flag, 1);
        int rank = -1;
        int size = -1;
        ASSERT_EQ(MPI_Comm_rank(MPI_COMM_WORLD, &rank), MPI_SUCCESS);
        ASSERT_EQ(MPI_Comm_size(MPI_COMM_WORLD, &size), MPI_SUCCESS);
        EXPECT_GE(rank, 0);
        EXPECT_LT(rank, 4);
        EXPECT_EQ(size, 4);
    });
}

TEST(CompatBasicsTest, CallsOutsideRunFail) {
    int rank = 0;
    EXPECT_EQ(MPI_Comm_rank(MPI_COMM_WORLD, &rank), MPI_ERR_OTHER);
    int flag = -1;
    EXPECT_EQ(MPI_Initialized(&flag), MPI_SUCCESS);
    EXPECT_EQ(flag, 0);
}

TEST(CompatP2PTest, SendRecvWithStatusAndGetCount) {
    run(2, [] {
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        if (rank == 0) {
            const std::array<double, 3> data{1.5, 2.5, 3.5};
            ASSERT_EQ(MPI_Send(data.data(), 3, MPI_DOUBLE, 1, 42, MPI_COMM_WORLD),
                      MPI_SUCCESS);
        } else {
            std::array<double, 3> got{};
            MPI_Status status;
            ASSERT_EQ(MPI_Recv(got.data(), 3, MPI_DOUBLE, 0, 42, MPI_COMM_WORLD, &status),
                      MPI_SUCCESS);
            EXPECT_EQ(status.MPI_SOURCE, 0);
            EXPECT_EQ(status.MPI_TAG, 42);
            int count = 0;
            ASSERT_EQ(MPI_Get_count(&status, MPI_DOUBLE, &count), MPI_SUCCESS);
            EXPECT_EQ(count, 3);
            EXPECT_EQ(got[2], 3.5);
        }
    });
}

TEST(CompatP2PTest, WildcardsAndStatusIgnore) {
    run(3, [] {
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        if (rank != 0) {
            MPI_Send(&rank, 1, MPI_INT, 0, rank, MPI_COMM_WORLD);
        } else {
            int sum = 0;
            for (int i = 0; i < 2; ++i) {
                int v = 0;
                ASSERT_EQ(MPI_Recv(&v, 1, MPI_INT, MPI_ANY_SOURCE, MPI_ANY_TAG,
                                   MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                          MPI_SUCCESS);
                sum += v;
            }
            EXPECT_EQ(sum, 3);
        }
    });
}

TEST(CompatP2PTest, ErrorCodesMatchMpiConventions) {
    run(2, [] {
        int v = 0;
        EXPECT_EQ(MPI_Send(&v, 1, MPI_INT, 7, 0, MPI_COMM_WORLD), MPI_ERR_RANK);
        EXPECT_EQ(MPI_Send(&v, 1, MPI_INT, 1, -5, MPI_COMM_WORLD), MPI_ERR_TAG);
        EXPECT_EQ(MPI_Send(&v, 1, MPI_INT, 1, 0, MPI_COMM_NULL), MPI_ERR_COMM);
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        if (rank == 0) {
            const std::array<int, 4> big{1, 2, 3, 4};
            MPI_Send(big.data(), 4, MPI_INT, 1, 1, MPI_COMM_WORLD);
        } else {
            int small = 0;
            EXPECT_EQ(MPI_Recv(&small, 1, MPI_INT, 0, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                      MPI_ERR_TRUNCATE);
        }
        MPI_Barrier(MPI_COMM_WORLD);
    });
}

TEST(CompatP2PTest, NonblockingLifecycle) {
    run(2, [] {
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        if (rank == 0) {
            std::array<std::int64_t, 2> data{7, 9};
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Isend(data.data(), 2, MPI_INT64_T, 1, 0, MPI_COMM_WORLD, &req),
                      MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            EXPECT_EQ(req, MPI_REQUEST_NULL);
        } else {
            std::array<std::int64_t, 2> got{};
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Irecv(got.data(), 2, MPI_INT64_T, 0, 0, MPI_COMM_WORLD, &req),
                      MPI_SUCCESS);
            MPI_Status status;
            ASSERT_EQ(MPI_Wait(&req, &status), MPI_SUCCESS);
            EXPECT_EQ(got[0] + got[1], 16);
            EXPECT_EQ(status.MPI_SOURCE, 0);
        }
    });
}

TEST(CompatP2PTest, WaitallAndTest) {
    run(4, [] {
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        if (rank != 0) {
            MPI_Send(&rank, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
        } else {
            std::array<int, 3> vals{};
            std::array<MPI_Request, 3> reqs{};
            for (int i = 0; i < 3; ++i) {
                MPI_Irecv(&vals[static_cast<std::size_t>(i)], 1, MPI_INT, i + 1, 0,
                          MPI_COMM_WORLD, &reqs[static_cast<std::size_t>(i)]);
            }
            ASSERT_EQ(MPI_Waitall(3, reqs.data(), MPI_STATUSES_IGNORE), MPI_SUCCESS);
            EXPECT_EQ(vals[0] + vals[1] + vals[2], 6);
            // Test on a null request completes immediately.
            MPI_Request null_req = MPI_REQUEST_NULL;
            int flag = 0;
            ASSERT_EQ(MPI_Test(&null_req, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
            EXPECT_EQ(flag, 1);
        }
    });
}

TEST(CompatP2PTest, SendrecvExchange) {
    run(2, [] {
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        const int mine = rank * 10 + 5;
        int theirs = -1;
        const int partner = 1 - rank;
        ASSERT_EQ(MPI_Sendrecv(&mine, 1, MPI_INT, partner, 0, &theirs, 1, MPI_INT, partner, 0,
                               MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                  MPI_SUCCESS);
        EXPECT_EQ(theirs, partner * 10 + 5);
    });
}

TEST(CompatP2PTest, ProbeAndIprobe) {
    run(2, [] {
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        if (rank == 0) {
            const int v = 5;
            MPI_Send(&v, 1, MPI_INT, 1, 3, MPI_COMM_WORLD);
            MPI_Barrier(MPI_COMM_WORLD);
        } else {
            MPI_Status status;
            ASSERT_EQ(MPI_Probe(MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, &status),
                      MPI_SUCCESS);
            EXPECT_EQ(status.MPI_TAG, 3);
            int v = 0;
            MPI_Recv(&v, 1, MPI_INT, status.MPI_SOURCE, status.MPI_TAG, MPI_COMM_WORLD,
                     MPI_STATUS_IGNORE);
            int flag = 1;
            ASSERT_EQ(MPI_Iprobe(MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, &flag,
                                 MPI_STATUS_IGNORE),
                      MPI_SUCCESS);
            EXPECT_EQ(flag, 0);
            MPI_Barrier(MPI_COMM_WORLD);
        }
    });
}

TEST(CompatCollectiveTest, BcastReduceAllreduce) {
    run(5, [] {
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        int v = rank == 2 ? 99 : 0;
        ASSERT_EQ(MPI_Bcast(&v, 1, MPI_INT, 2, MPI_COMM_WORLD), MPI_SUCCESS);
        EXPECT_EQ(v, 99);

        const std::int64_t mine = rank + 1;
        std::int64_t total = 0;
        ASSERT_EQ(MPI_Reduce(&mine, &total, 1, MPI_INT64_T, MPI_SUM, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        if (rank == 0) {
            EXPECT_EQ(total, 15);
        }

        double maxv = 0;
        const double dmine = rank * 1.5;
        ASSERT_EQ(MPI_Allreduce(&dmine, &maxv, 1, MPI_DOUBLE, MPI_MAX, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        EXPECT_DOUBLE_EQ(maxv, 6.0);

        // Reduce on a non-arithmetic datatype must fail cleanly.
        char c = 'a';
        char out = 0;
        EXPECT_EQ(MPI_Allreduce(&c, &out, 1, MPI_CHAR, MPI_SUM, MPI_COMM_WORLD), MPI_ERR_TYPE);
        MPI_Barrier(MPI_COMM_WORLD);
    });
}

TEST(CompatCollectiveTest, GatherScatterAllgather) {
    run(4, [] {
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        const int mine = rank * rank;
        std::array<int, 4> all{};
        ASSERT_EQ(MPI_Gather(&mine, 1, MPI_INT, all.data(), 1, MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        if (rank == 0) {
            EXPECT_EQ(all, (std::array<int, 4>{0, 1, 4, 9}));
        }

        std::array<int, 4> everywhere{};
        ASSERT_EQ(MPI_Allgather(&mine, 1, MPI_INT, everywhere.data(), 1, MPI_INT,
                                MPI_COMM_WORLD),
                  MPI_SUCCESS);
        EXPECT_EQ(everywhere, (std::array<int, 4>{0, 1, 4, 9}));

        std::array<int, 4> src{10, 20, 30, 40};
        int piece = -1;
        ASSERT_EQ(MPI_Scatter(src.data(), 1, MPI_INT, &piece, 1, MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        EXPECT_EQ(piece, (rank + 1) * 10);
    });
}

TEST(CompatCommTest, SplitDupAndFree) {
    run(6, [] {
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        MPI_Comm half = MPI_COMM_NULL;
        ASSERT_EQ(MPI_Comm_split(MPI_COMM_WORLD, rank % 2, rank, &half), MPI_SUCCESS);
        int half_size = 0;
        MPI_Comm_size(half, &half_size);
        EXPECT_EQ(half_size, 3);

        MPI_Comm duped = MPI_COMM_NULL;
        ASSERT_EQ(MPI_Comm_dup(half, &duped), MPI_SUCCESS);
        int sum = 0;
        const int one = 1;
        MPI_Allreduce(&one, &sum, 1, MPI_INT, MPI_SUM, duped);
        EXPECT_EQ(sum, 3);

        ASSERT_EQ(MPI_Comm_free(&duped), MPI_SUCCESS);
        EXPECT_EQ(duped, MPI_COMM_NULL);
        ASSERT_EQ(MPI_Comm_free(&half), MPI_SUCCESS);
        // Freeing MPI_COMM_WORLD is an error.
        MPI_Comm world = MPI_COMM_WORLD;
        EXPECT_EQ(MPI_Comm_free(&world), MPI_ERR_COMM);

        // MPI_UNDEFINED color yields MPI_COMM_NULL.
        MPI_Comm none = MPI_COMM_WORLD;
        ASSERT_EQ(MPI_Comm_split(MPI_COMM_WORLD, rank == 0 ? MPI_UNDEFINED : 7, 0, &none),
                  MPI_SUCCESS);
        if (rank == 0) {
            EXPECT_EQ(none, MPI_COMM_NULL);
        } else {
            EXPECT_NE(none, MPI_COMM_NULL);
        }
        MPI_Barrier(MPI_COMM_WORLD);
    });
}

TEST(CompatCommTest, SplitTypeSharedFollowsTopology) {
    run(8, minimpi::Topology{4, {}}, [] {
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        MPI_Comm node = MPI_COMM_NULL;
        ASSERT_EQ(MPI_Comm_split_type(MPI_COMM_WORLD, MPI_COMM_TYPE_SHARED, rank,
                                      MPI_INFO_NULL, &node),
                  MPI_SUCCESS);
        int node_size = 0;
        int node_rank = -1;
        MPI_Comm_size(node, &node_size);
        MPI_Comm_rank(node, &node_rank);
        EXPECT_EQ(node_size, 4);
        EXPECT_EQ(node_rank, rank % 4);
    });
}

TEST(CompatRmaTest, SharedWindowLifecycle) {
    run(4, [] {
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        void* base = nullptr;
        MPI_Win win = MPI_WIN_NULL;
        const MPI_Aint bytes = rank == 0 ? 2 * sizeof(std::int64_t) : 0;
        ASSERT_EQ(MPI_Win_allocate_shared(bytes, sizeof(std::int64_t), MPI_INFO_NULL,
                                          MPI_COMM_WORLD, &base, &win),
                  MPI_SUCCESS);
        // Query rank 0's segment from everywhere.
        MPI_Aint qsize = 0;
        int disp = 0;
        void* qbase = nullptr;
        ASSERT_EQ(MPI_Win_shared_query(win, 0, &qsize, &disp, &qbase), MPI_SUCCESS);
        EXPECT_EQ(qsize, static_cast<MPI_Aint>(2 * sizeof(std::int64_t)));
        EXPECT_EQ(disp, static_cast<int>(sizeof(std::int64_t)));
        ASSERT_NE(qbase, nullptr);
        if (rank == 0) {
            EXPECT_EQ(qbase, base);
            static_cast<std::int64_t*>(qbase)[0] = 0;
            static_cast<std::int64_t*>(qbase)[1] = 0;
        }
        MPI_Win_sync(win);
        MPI_Barrier(MPI_COMM_WORLD);

        // Atomic increments from every rank.
        const std::int64_t one = 1;
        std::int64_t prev = -1;
        for (int i = 0; i < 100; ++i) {
            ASSERT_EQ(MPI_Fetch_and_op(&one, &prev, MPI_INT64_T, 0, 0, MPI_SUM, win),
                      MPI_SUCCESS);
        }
        MPI_Barrier(MPI_COMM_WORLD);
        std::int64_t total = 0;
        ASSERT_EQ(MPI_Fetch_and_op(nullptr, &total, MPI_INT64_T, 0, 0, MPI_NO_OP, win),
                  MPI_SUCCESS);
        EXPECT_EQ(total, 400);

        // Locked read-modify-write on the second cell.
        ASSERT_EQ(MPI_Win_lock(MPI_LOCK_EXCLUSIVE, 0, 0, win), MPI_SUCCESS);
        static_cast<std::int64_t*>(qbase)[1] += rank;
        ASSERT_EQ(MPI_Win_unlock(0, win), MPI_SUCCESS);
        MPI_Win_flush(0, win);
        MPI_Barrier(MPI_COMM_WORLD);
        if (rank == 0) {
            EXPECT_EQ(static_cast<std::int64_t*>(qbase)[1], 0 + 1 + 2 + 3);
        }

        ASSERT_EQ(MPI_Win_free(&win), MPI_SUCCESS);
        EXPECT_EQ(win, MPI_WIN_NULL);
    });
}

TEST(CompatRmaTest, CompareAndSwap) {
    run(2, [] {
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        void* base = nullptr;
        MPI_Win win = MPI_WIN_NULL;
        MPI_Win_allocate_shared(rank == 0 ? sizeof(std::int64_t) : 0, 8, MPI_INFO_NULL,
                                MPI_COMM_WORLD, &base, &win);
        if (rank == 0) {
            *static_cast<std::int64_t*>(base) = 10;
        }
        MPI_Barrier(MPI_COMM_WORLD);
        if (rank == 1) {
            const std::int64_t desired = 20;
            const std::int64_t expected = 10;
            std::int64_t prev = 0;
            ASSERT_EQ(MPI_Compare_and_swap(&desired, &expected, &prev, MPI_INT64_T, 0, 0, win),
                      MPI_SUCCESS);
            EXPECT_EQ(prev, 10);
            // Failed swap: value already changed.
            ASSERT_EQ(MPI_Compare_and_swap(&desired, &expected, &prev, MPI_INT64_T, 0, 0, win),
                      MPI_SUCCESS);
            EXPECT_EQ(prev, 20);
        }
        MPI_Barrier(MPI_COMM_WORLD);
        MPI_Win_free(&win);
    });
}

/// The paper's complete two-level protocol in pure MPI style: a global
/// window holding {step, scheduled} on world rank 0 and a node-shared
/// window holding the local queue, SS at both levels for simplicity.
/// This is (modulo syntax) the code a real-MPI port of the paper runs.
TEST(CompatIntegrationTest, PaperProtocolInPureMpiStyle) {
    constexpr std::int64_t kN = 2000;
    constexpr int kRanks = 8;
    static std::array<std::atomic<int>, kN> executed;
    for (auto& e : executed) {
        e.store(0);
    }
    run(kRanks, minimpi::Topology{4, {}}, [] {
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);

        MPI_Comm node_comm = MPI_COMM_NULL;
        MPI_Comm_split_type(MPI_COMM_WORLD, MPI_COMM_TYPE_SHARED, rank, MPI_INFO_NULL,
                            &node_comm);
        int node_rank = 0;
        MPI_Comm_rank(node_comm, &node_rank);

        // Global queue: [0] = scheduled iterations (SS: step == start).
        void* gbase = nullptr;
        MPI_Win gwin = MPI_WIN_NULL;
        MPI_Win_allocate_shared(rank == 0 ? sizeof(std::int64_t) : 0, 8, MPI_INFO_NULL,
                                MPI_COMM_WORLD, &gbase, &gwin);
        if (rank == 0) {
            *static_cast<std::int64_t*>(gbase) = 0;
        }
        MPI_Win_sync(gwin);
        MPI_Barrier(MPI_COMM_WORLD);

        // Local queue: [0] = chunk start, [1] = chunk end, [2] = cursor.
        void* lbase = nullptr;
        MPI_Win lwin = MPI_WIN_NULL;
        MPI_Win_allocate_shared(node_rank == 0 ? 3 * sizeof(std::int64_t) : 0, 8,
                                MPI_INFO_NULL, node_comm, &lbase, &lwin);
        MPI_Aint lsize = 0;
        int ldisp = 0;
        void* lq = nullptr;
        MPI_Win_shared_query(lwin, 0, &lsize, &ldisp, &lq);
        auto* queue = static_cast<std::int64_t*>(lq);
        if (node_rank == 0) {
            queue[0] = queue[1] = queue[2] = 0;
        }
        MPI_Win_sync(lwin);
        MPI_Barrier(MPI_COMM_WORLD);

        constexpr std::int64_t kGlobalChunk = 16;  // level-1 chunk size
        for (;;) {
            // Stage 2: take a sub-chunk (1 iteration, SS) from the local
            // queue under an exclusive lock epoch.
            std::int64_t i = -1;
            MPI_Win_lock(MPI_LOCK_EXCLUSIVE, 0, 0, lwin);
            if (queue[2] < queue[1]) {
                i = queue[2]++;
            }
            MPI_Win_unlock(0, lwin);
            if (i >= 0) {
                executed[static_cast<std::size_t>(i)].fetch_add(1);
                continue;
            }
            // Stage 1: the fastest rank refills from the global queue. The
            // emptiness re-check and the overwrite happen inside ONE lock
            // epoch so a peer's fresh chunk can never be clobbered (this
            // single-slot variant is the simplest correct local queue; the
            // library's NodeWorkQueue uses a FIFO instead).
            bool global_exhausted = false;
            MPI_Win_lock(MPI_LOCK_EXCLUSIVE, 0, 0, lwin);
            if (queue[2] >= queue[1]) {  // still empty: this rank refills
                const std::int64_t hint = kGlobalChunk;
                std::int64_t start = 0;
                MPI_Fetch_and_op(&hint, &start, MPI_INT64_T, 0, 0, MPI_SUM, gwin);
                if (start >= kN) {
                    global_exhausted = true;
                } else {
                    queue[0] = start;
                    queue[1] = start + hint < kN ? start + hint : kN;
                    queue[2] = start;
                }
            }
            MPI_Win_unlock(0, lwin);
            if (global_exhausted) {
                break;  // peers may still drain the queue below
            }
        }
        // Drain leftovers published by late refillers.
        for (;;) {
            std::int64_t i = -1;
            MPI_Win_lock(MPI_LOCK_EXCLUSIVE, 0, 0, lwin);
            if (queue[2] < queue[1]) {
                i = queue[2]++;
            }
            MPI_Win_unlock(0, lwin);
            if (i < 0) {
                break;
            }
            executed[static_cast<std::size_t>(i)].fetch_add(1);
        }
        MPI_Barrier(MPI_COMM_WORLD);
        MPI_Win_free(&lwin);
        MPI_Win_free(&gwin);
        MPI_Comm_free(&node_comm);
    });
    // Every iteration executed exactly once across the whole "cluster".
    for (std::int64_t i = 0; i < kN; ++i) {
        ASSERT_EQ(executed[static_cast<std::size_t>(i)].load(), 1) << "iteration " << i;
    }
}

}  // namespace
