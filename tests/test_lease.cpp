/// \file test_lease.cpp
/// Lease-based fault tolerance: the LeaseBoard CAS protocol (completion
/// fence, single-winner reclamation, prefetch-slot coverage), heartbeat
/// failure detection on both transports, and the HDLS_CHAOS fail-stop
/// drill proving every iteration commits exactly once despite a mid-loop
/// kill.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/hdls.hpp"
#include "core/lease_board.hpp"
#include "minimpi/liveness.hpp"
#include "minimpi/minimpi.hpp"

// Global operator new/delete replacements for this test binary: when armed,
// every allocation on any thread is counted. The zero-allocation test arms
// the counter around lease/complete cycles on a single-rank runtime.

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// gcc pairs its built-in operator-new knowledge with the free() below and
// warns at every inlined delete site; the replacement pair is consistent.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
    if (g_count_allocations.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(size ? size : 1)) {
        return p;
    }
    throw std::bad_alloc();
}

// The nothrow form too (std::stable_sort's temporary buffer uses it and
// frees through the plain delete below): a sanitizer's own nothrow new
// would not pair with free().
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    if (g_count_allocations.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    }
    return std::malloc(size ? size : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using hdls::core::Approach;
using hdls::core::ChaosSpec;
using hdls::core::ClusterShape;
using hdls::core::HierConfig;
using hdls::core::LeaseBoard;
using hdls::dls::Technique;
using minimpi::Context;
using minimpi::Error;
using minimpi::ErrorCode;
using minimpi::FailureDetector;
using minimpi::Runtime;
using minimpi::TransportKind;

constexpr TransportKind kBothTransports[] = {TransportKind::Threads, TransportKind::Shm};

// ------------------------------------------------------- LeaseBoard unit

TEST(LeaseBoardTest, LeaseCompleteLifecycleOnBothTransports) {
    for (const TransportKind kind : kBothTransports) {
        Runtime::run(2, kind, [](Context& ctx) {
            const minimpi::Comm& world = ctx.world();
            LeaseBoard board(world, 8.0);
            if (world.rank() == 0) {
                board.lease(0, 10);
                EXPECT_EQ(board.outstanding(), 1);
            }
            world.barrier();
            EXPECT_FALSE(board.quiescent());  // rank 0's lease is ACTIVE
            world.barrier();
            if (world.rank() == 0) {
                EXPECT_TRUE(board.complete(0));
                EXPECT_EQ(board.outstanding(), 0);
                EXPECT_GT(board.ema_seconds(), 0.0);
            }
            world.barrier();
            EXPECT_TRUE(board.quiescent());
            board.free();
        });
    }
}

TEST(LeaseBoardTest, TheSettlingCommitWakesADrainWaiterOnBothTransports) {
    // wait_quiescent returns false at its deadline while a lease is
    // outstanding, and returns as soon as the last lease commits, long
    // before a far deadline: the commit that settles the board wakes it.
    using Clock = LeaseBoard::Clock;
    for (const TransportKind kind : kBothTransports) {
        Runtime::run(2, kind, [](Context& ctx) {
            const minimpi::Comm& world = ctx.world();
            LeaseBoard board(world, 8.0);
            if (world.rank() == 1) {
                board.lease(0, 10);
            }
            world.barrier();
            if (world.rank() == 0) {
                EXPECT_FALSE(board.wait_quiescent(Clock::now() + std::chrono::milliseconds(5)));
            }
            world.barrier();
            if (world.rank() == 0) {
                const Clock::time_point t0 = Clock::now();
                const Clock::time_point deadline = t0 + std::chrono::seconds(10);
                while (!board.wait_quiescent(deadline) && Clock::now() < deadline) {
                }
                EXPECT_TRUE(board.quiescent());
                EXPECT_LT(Clock::now() - t0, std::chrono::seconds(5));
            } else {
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                EXPECT_TRUE(board.complete(0));
            }
            world.barrier();
            board.free();
        });
    }
}

TEST(LeaseBoardTest, CompletingAnUnknownStartIsANoOpCommit) {
    Runtime::run(1, [](Context& ctx) {
        LeaseBoard board(ctx.world(), 8.0);
        EXPECT_TRUE(board.complete(12345));
        EXPECT_TRUE(board.quiescent());
        board.free();
    });
}

TEST(LeaseBoardTest, LeaseThrowsResourceWhenEverySlotIsTaken) {
    Runtime::run(1, [](Context& ctx) {
        LeaseBoard board(ctx.world(), 8.0, /*slots=*/2);
        board.lease(0, 1);
        board.lease(1, 1);
        EXPECT_THROW(board.lease(2, 1), Error);
        EXPECT_TRUE(board.complete(0));
        EXPECT_TRUE(board.complete(1));
        board.free();
    });
}

TEST(LeaseBoardTest, RejectsNonPositiveKAndZeroSlots) {
    Runtime::run(1, [](Context& ctx) {
        EXPECT_THROW(LeaseBoard(ctx.world(), 0.0), Error);
        EXPECT_THROW(LeaseBoard(ctx.world(), 8.0, 0), Error);
    });
}

/// The per-chunk lease path allocates nothing: the prefetch pattern (the
/// in-flight chunk plus the prefetch-slot chunk outstanding, completed in
/// either order) runs 10k lease/complete cycles under the counting
/// operator new. The fixed record table keeps outstanding() exact, and a
/// completion for a start this handle never leased still commits.
TEST(LeaseBoardTest, LeaseCompleteCyclesDoNotAllocate) {
    for (const TransportKind kind : kBothTransports) {
        Runtime::run(1, kind, [](Context& ctx) {
            LeaseBoard board(ctx.world(), 8.0);
            // Warm up the metric counters' thread-local shards uncounted.
            board.lease(-1, 1);
            ASSERT_TRUE(board.complete(-1));

            std::int64_t held = 0;  // the older of the two outstanding leases
            board.lease(held, 1);
            bool committed = true;
            bool exact = true;
            bool unknown_commits = true;
            g_allocations.store(0);
            g_count_allocations.store(true);
            for (std::int64_t i = 0; i < 10'000; ++i) {
                const std::int64_t fresh = i + 1;
                board.lease(fresh, 1);
                exact = exact && board.outstanding() == 2;
                // Every other cycle the newer lease finishes first.
                const std::int64_t done = i % 2 == 0 ? held : fresh;
                committed = board.complete(done) && committed;
                held = done == held ? fresh : held;
                exact = exact && board.outstanding() == 1;
                unknown_commits = board.complete(-2 - i) && unknown_commits;
                exact = exact && board.outstanding() == 1;
            }
            g_count_allocations.store(false);
            EXPECT_EQ(g_allocations.load(), 0u) << "lease/complete must not allocate";
            EXPECT_TRUE(committed);
            EXPECT_TRUE(exact);
            EXPECT_TRUE(unknown_commits);
            EXPECT_TRUE(board.complete(held));
            EXPECT_EQ(board.outstanding(), 0);
            EXPECT_TRUE(board.quiescent());
            board.free();
        });
    }
}

/// A dead owner's expired lease is swept to RECLAIMED, claimed by a
/// survivor, and the late owner's completion fence then LOSES — the chunk
/// commits exactly once, on the claimer.
TEST(LeaseBoardTest, LateOwnerLosesTheFenceAfterReclamation) {
    Runtime::run(2, [](Context& ctx) {
        const minimpi::Comm& world = ctx.world();
        LeaseBoard board(world, 1.0);
        if (world.rank() == 0) {
            board.lease(0, 100);
        }
        world.barrier();
        if (world.rank() == 1) {
            world.mark_dead(0);
            // Past the 100 ms deadline floor (the EMA is still zero).
            std::this_thread::sleep_for(std::chrono::milliseconds(150));
            EXPECT_EQ(board.sweep(), 1);
            const auto rc = board.claim_one();
            ASSERT_TRUE(rc.has_value());
            EXPECT_EQ(rc->start, 0);
            EXPECT_EQ(rc->size, 100);
            EXPECT_FALSE(board.claim_one().has_value());
        }
        world.barrier();
        if (world.rank() == 0) {
            // The owner finished late: the execution must not commit.
            EXPECT_FALSE(board.complete(0));
        } else {
            // The claimer re-leases into its own board and commits.
            board.lease(0, 100);
            EXPECT_TRUE(board.complete(0));
        }
        world.barrier();
        EXPECT_TRUE(board.quiescent());
        board.free();
    });
}

/// Two survivors race to sweep and claim the two leases a dead rank left
/// behind (its in-flight chunk plus its prefetch-slot chunk): every CAS
/// has a single winner, so exactly two claims happen in total.
TEST(LeaseBoardTest, DoubleReclamationRaceHasSingleWinners) {
    Runtime::run(3, [](Context& ctx) {
        const minimpi::Comm& world = ctx.world();
        LeaseBoard board(world, 1.0);
        if (world.rank() == 0) {
            board.lease(0, 50);
            board.lease(50, 50);
            board.abandon_all();  // fail-stop: slots stay ACTIVE on the window
            EXPECT_EQ(board.outstanding(), 0);
        }
        world.barrier();
        std::int64_t swept = 0;
        std::int64_t claimed = 0;
        if (world.rank() != 0) {
            world.mark_dead(0);
            std::this_thread::sleep_for(std::chrono::milliseconds(150));
            // Both survivors sweep and claim concurrently.
            swept = board.sweep();
            while (const auto rc = board.claim_one()) {
                EXPECT_TRUE((rc->start == 0 || rc->start == 50) && rc->size == 50);
                board.lease(rc->start, rc->size);
                EXPECT_TRUE(board.complete(rc->start));
                ++claimed;
            }
        }
        const std::vector<std::int64_t> sweeps = world.allgather(swept);
        const std::vector<std::int64_t> claims = world.allgather(claimed);
        EXPECT_EQ(std::accumulate(sweeps.begin(), sweeps.end(), std::int64_t{0}), 2);
        EXPECT_EQ(std::accumulate(claims.begin(), claims.end(), std::int64_t{0}), 2);
        world.barrier();
        EXPECT_TRUE(board.quiescent());
        board.free();
    });
}

/// A live (beating, never marked dead) owner's leases are never swept, no
/// matter how stale the deadline is.
TEST(LeaseBoardTest, SweepNeverTouchesLiveOwners) {
    Runtime::run(2, [](Context& ctx) {
        const minimpi::Comm& world = ctx.world();
        LeaseBoard board(world, 1.0);
        if (world.rank() == 0) {
            board.lease(0, 10);
        }
        world.barrier();
        if (world.rank() == 1) {
            std::this_thread::sleep_for(std::chrono::milliseconds(150));
            EXPECT_EQ(board.sweep(), 0);  // deadline passed, owner alive
            EXPECT_FALSE(board.claim_one().has_value());
        }
        world.barrier();
        if (world.rank() == 0) {
            EXPECT_TRUE(board.complete(0));
        }
        world.barrier();
        EXPECT_TRUE(board.quiescent());
        board.free();
    });
}

// -------------------------------------------------- heartbeat detection

/// The detector reads a fake clock that only the polling rank advances,
/// and the two ranks alternate through barriers, so every poll sees a
/// known number of beats and a known elapsed time: no wall clock, no
/// sleep, no dependence on how the host schedules the threads.
TEST(FailureDetectorTest, SilentPeerIsDeclaredDeadOnBothTransports) {
    using FakeClock = minimpi::FailureDetector::Clock;
    constexpr int kBeats = 20;
    for (const TransportKind kind : kBothTransports) {
        std::atomic<std::int64_t> fake_ns{0};
        std::atomic<bool> done{false};
        const auto advance = [&fake_ns](std::chrono::milliseconds by) {
            fake_ns.fetch_add(std::chrono::nanoseconds(by).count(), std::memory_order_relaxed);
        };
        Runtime::run(2, kind, [&](Context& ctx) {
            const minimpi::Comm& world = ctx.world();
            if (world.rank() == 1) {
                // Beats once per round, then goes silent (fail-stop).
                for (int i = 0; i < kBeats; ++i) {
                    world.beat();
                    world.barrier();  // beat i lands before poll i
                    world.barrier();  // poll i is done
                }
                while (!done.load(std::memory_order_acquire)) {
                    std::this_thread::yield();  // silent until detection is over
                }
                return;
            }
            FailureDetector detector(world, std::chrono::milliseconds(60), [&fake_ns] {
                return FakeClock::time_point(
                    std::chrono::nanoseconds(fake_ns.load(std::memory_order_relaxed)));
            });
            // While the peer beats (one beat per 2 ms of the fake clock),
            // it must never be suspected.
            for (int i = 0; i < kBeats; ++i) {
                world.barrier();
                advance(std::chrono::milliseconds(2));
                EXPECT_EQ(detector.poll(), 0);
                world.barrier();
            }
            EXPECT_FALSE(world.is_dead(1));
            // Once it goes silent, detection must land within the timeout
            // (plus generous slack).
            const std::int64_t deadline =
                fake_ns.load(std::memory_order_relaxed) +
                std::chrono::nanoseconds(std::chrono::seconds(10)).count();
            while (!world.is_dead(1) && fake_ns.load(std::memory_order_relaxed) < deadline) {
                detector.poll();
                advance(std::chrono::milliseconds(5));
            }
            EXPECT_TRUE(world.is_dead(1));
            EXPECT_EQ(world.alive(), 1);
            done.store(true, std::memory_order_release);
        });
    }
}

// ------------------------------------------------------ chaos end-to-end

/// The PR's headline property: under HDLS_CHAOS a rank fail-stops mid-loop
/// (abandoning its in-flight and prefetched leases), survivors detect the
/// death, reclaim and re-execute the lost chunks — and every iteration of
/// the loop still executes exactly once.
void chaos_exactly_once(TransportKind kind, bool prefetch) {
    constexpr std::int64_t kN = 2000;
    auto hits = std::make_unique<std::atomic<int>[]>(static_cast<std::size_t>(kN));
    for (std::int64_t i = 0; i < kN; ++i) {
        hits[static_cast<std::size_t>(i)].store(0, std::memory_order_relaxed);
    }

    HierConfig cfg;
    cfg.inter = Technique::GSS;
    // Sharded root + one worker per node: the victim (rank 1) owns shard
    // [n/4, n/2) privately while alive, so its very first acquisition has
    // start >= at_fraction*n and the kill fires deterministically — no
    // dependence on which rank wins the scheduling race. Fine-grained leaf
    // sub-chunks (SS, 8 iterations) keep the abandoned lease small.
    cfg.inter_backend = hdls::dls::InterBackend::Sharded;
    cfg.intra = Technique::SS;
    cfg.min_chunk = 8;
    cfg.transport = kind;
    cfg.prefetch = prefetch;
    cfg.trace = true;
    cfg.lease = true;
    cfg.lease_k = 4.0;
    cfg.heartbeat_timeout = std::chrono::milliseconds(150);
    cfg.chaos = ChaosSpec{/*kill_rank=*/1, /*at_fraction=*/0.25};

    const auto report = hdls::parallel_for(
        ClusterShape{4, 1}, Approach::MpiMpi, cfg, kN,
        [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
                // Sleep, don't spin: on a single-core host a spinning body
                // monopolizes the CPU and can park the victim rank past the
                // end of the loop. Sleeping keeps the core mostly idle (the
                // victim schedules within µs of becoming runnable) while
                // survivors still need ~25 ms of wall time to drain their
                // own shards before any steal of the victim's shard begins.
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
            }
        });

    for (std::int64_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(std::memory_order_relaxed), 1)
            << "iteration " << i << " (transport "
            << minimpi::transport_name(kind) << ", prefetch " << prefetch << ")";
    }
    // Committed iterations account for the whole loop exactly once.
    EXPECT_EQ(report.executed_iterations(), kN);
    // The victim's abandoned lease(s) were reclaimed, and the run paid at
    // least one lease per executed chunk.
    EXPECT_GE(report.metrics.counter_total("hdls_lease_reclaims_total"), 1u);
    EXPECT_GE(report.metrics.counter_total("hdls_lease_acquires_total"),
              static_cast<std::uint64_t>(report.executed_chunks()));
    // Chunks the drain re-executed are timed like any other.
    EXPECT_EQ(report.metrics.histogram_count("hdls_exec_chunk_ns"),
              report.metrics.counter_total("hdls_exec_chunks_total"));
    // The trace carries the reclamation story (Reclaim events).
    ASSERT_NE(report.trace, nullptr);
    const auto analysis = hdls::trace::analyze(*report.trace);
    EXPECT_FALSE(analysis.reclaimed.empty());
    EXPECT_GE(analysis.reclaimed_iterations, 1);
    // Loop and drain share one execution step: every worker closes each
    // body it opens, and every Reclaim is followed on the same worker by
    // the re-execution of the same chunk.
    using hdls::trace::EventKind;
    for (int w = 0; w < report.trace->workers(); ++w) {
        SCOPED_TRACE("worker " + std::to_string(w));
        EXPECT_EQ(report.trace->count(EventKind::ChunkExecBegin, w),
                  report.trace->count(EventKind::ChunkExecEnd, w));
        const auto events = report.trace->worker_events(w);
        for (std::size_t i = 0; i < events.size(); ++i) {
            if (events[i].kind != EventKind::Reclaim) {
                continue;
            }
            std::size_t j = i + 1;
            while (j < events.size() && events[j].kind != EventKind::ChunkExecBegin) {
                ++j;
            }
            ASSERT_LT(j, events.size()) << "Reclaim of " << events[i].a << " never executed";
            EXPECT_EQ(events[j].a, events[i].a);
        }
    }
}

TEST(ChaosTest, EveryIterationExecutesExactlyOnceOnThreads) {
    chaos_exactly_once(TransportKind::Threads, /*prefetch=*/false);
}

TEST(ChaosTest, EveryIterationExecutesExactlyOnceOnShm) {
    chaos_exactly_once(TransportKind::Shm, /*prefetch=*/false);
}

/// A killed rank with an outstanding prefetch slot: the slot's chunk was
/// leased at fill time, so it is reclaimed like the in-flight one.
TEST(ChaosTest, ReclaimsThePrefetchSlotChunkToo) {
    chaos_exactly_once(TransportKind::Threads, /*prefetch=*/true);
}

TEST(ChaosTest, LeaseModeWithoutFailuresCommitsEverythingNormally) {
    constexpr std::int64_t kN = 2000;
    std::atomic<std::int64_t> count{0};
    HierConfig cfg;
    cfg.lease = true;
    // One iteration per leaf chunk: enough chunks that a per-chunk poll
    // would stand out against the timed ones.
    cfg.intra = Technique::SS;
    const auto report = hdls::parallel_for(
        ClusterShape{2, 2}, Approach::MpiMpi, cfg, kN,
        [&](std::int64_t b, std::int64_t e) { count.fetch_add(e - b); });
    EXPECT_EQ(count.load(), kN);
    EXPECT_EQ(report.executed_iterations(), kN);
    EXPECT_EQ(report.metrics.counter_total("hdls_lease_reclaims_total"), 0u);
    EXPECT_EQ(report.metrics.counter_total("hdls_lease_fence_losses_total"), 0u);
    EXPECT_GE(report.metrics.counter_total("hdls_lease_acquires_total"),
              static_cast<std::uint64_t>(report.executed_chunks()));
    // Failure detection runs on a timer, not per chunk.
    const std::uint64_t polls = report.metrics.counter_total("hdls_liveness_polls_total");
    EXPECT_GE(polls, 1u);
    EXPECT_LE(polls * 10, static_cast<std::uint64_t>(report.executed_chunks()))
        << polls << " polls for " << report.executed_chunks() << " chunks";
}

// --------------------------------------------------- runner validation

TEST(ChaosConfigTest, ChaosRequiresLeaseMode) {
    HierConfig cfg;
    cfg.chaos = ChaosSpec{0, 0.5};
    EXPECT_THROW((void)hdls::parallel_for(ClusterShape{2, 2}, Approach::MpiMpi, cfg, 100,
                                          [](std::int64_t, std::int64_t) {}),
                 std::invalid_argument);
}

TEST(ChaosConfigTest, ChaosRequiresMpiMpi) {
    HierConfig cfg;
    cfg.lease = true;
    cfg.chaos = ChaosSpec{0, 0.5};
    EXPECT_THROW((void)hdls::parallel_for(ClusterShape{2, 2}, Approach::MpiOpenMp, cfg, 100,
                                          [](std::int64_t, std::int64_t) {}),
                 std::invalid_argument);
}

TEST(ChaosConfigTest, KillRankMustBeInsideTheWorld) {
    HierConfig cfg;
    cfg.lease = true;
    cfg.chaos = ChaosSpec{4, 0.5};  // world is 4 ranks: 0..3
    EXPECT_THROW((void)hdls::parallel_for(ClusterShape{2, 2}, Approach::MpiMpi, cfg, 100,
                                          [](std::int64_t, std::int64_t) {}),
                 std::invalid_argument);
}

TEST(ChaosConfigTest, LeaseUnderHybridIsDisabledWithAWarningNotAnError) {
    HierConfig cfg;
    cfg.lease = true;
    std::atomic<std::int64_t> count{0};
    const auto report = hdls::parallel_for(
        ClusterShape{2, 2}, Approach::MpiOpenMp, cfg, 500,
        [&](std::int64_t b, std::int64_t e) { count.fetch_add(e - b); });
    EXPECT_EQ(count.load(), 500);
    EXPECT_EQ(report.metrics.counter_total("hdls_lease_acquires_total"), 0u);
}

// ------------------------------------------------------------ env knobs

TEST(LeaseEnvTest, ParseChaosAcceptsTheDocumentedForms) {
    const ChaosSpec a = hdls::core::parse_chaos("kill:1@50%");
    EXPECT_EQ(a.kill_rank, 1);
    EXPECT_DOUBLE_EQ(a.at_fraction, 0.5);
    const ChaosSpec b = hdls::core::parse_chaos("  KILL: 3 @ 25  ");
    EXPECT_EQ(b.kill_rank, 3);
    EXPECT_DOUBLE_EQ(b.at_fraction, 0.25);
    const ChaosSpec c = hdls::core::parse_chaos("kill:0@100%");
    EXPECT_EQ(c.kill_rank, 0);
    EXPECT_DOUBLE_EQ(c.at_fraction, 1.0);
}

TEST(LeaseEnvTest, ParseChaosRejectsMalformedSpecs) {
    EXPECT_THROW((void)hdls::core::parse_chaos(""), std::invalid_argument);
    EXPECT_THROW((void)hdls::core::parse_chaos("kill"), std::invalid_argument);
    EXPECT_THROW((void)hdls::core::parse_chaos("kill:1"), std::invalid_argument);
    EXPECT_THROW((void)hdls::core::parse_chaos("kill:@50%"), std::invalid_argument);
    EXPECT_THROW((void)hdls::core::parse_chaos("kill:x@50%"), std::invalid_argument);
    EXPECT_THROW((void)hdls::core::parse_chaos("kill:1@pct"), std::invalid_argument);
    EXPECT_THROW((void)hdls::core::parse_chaos("kill:1@150%"), std::invalid_argument);
    EXPECT_THROW((void)hdls::core::parse_chaos("kill:-1@50%"), std::invalid_argument);
    EXPECT_THROW((void)hdls::core::parse_chaos("die:1@50%"), std::invalid_argument);
}

TEST(LeaseEnvTest, StrictKnobsThrowOnGarbageAndFallBackWhenUnset) {
    ::unsetenv("HDLS_LEASE");
    EXPECT_FALSE(hdls::core::lease_from_env());
    EXPECT_TRUE(hdls::core::lease_from_env(true));
    ::setenv("HDLS_LEASE", "on", 1);
    EXPECT_TRUE(hdls::core::lease_from_env());
    ::setenv("HDLS_LEASE", "0", 1);
    EXPECT_FALSE(hdls::core::lease_from_env(true));
    ::setenv("HDLS_LEASE", "maybe", 1);
    EXPECT_THROW((void)hdls::core::lease_from_env(), std::invalid_argument);
    ::unsetenv("HDLS_LEASE");

    ::setenv("HDLS_LEASE_K", "2.5", 1);
    EXPECT_DOUBLE_EQ(hdls::core::lease_k_from_env(), 2.5);
    ::setenv("HDLS_LEASE_K", "-1", 1);
    EXPECT_THROW((void)hdls::core::lease_k_from_env(), std::invalid_argument);
    ::unsetenv("HDLS_LEASE_K");
    EXPECT_DOUBLE_EQ(hdls::core::lease_k_from_env(8.0), 8.0);

    ::setenv("HDLS_HEARTBEAT_TIMEOUT_MS", "250", 1);
    EXPECT_EQ(hdls::core::heartbeat_timeout_from_env(), std::chrono::milliseconds(250));
    ::setenv("HDLS_HEARTBEAT_TIMEOUT_MS", "0", 1);
    EXPECT_THROW((void)hdls::core::heartbeat_timeout_from_env(), std::invalid_argument);
    ::unsetenv("HDLS_HEARTBEAT_TIMEOUT_MS");

    ::setenv("HDLS_CHAOS", "kill:2@75%", 1);
    const ChaosSpec spec = hdls::core::chaos_from_env();
    EXPECT_EQ(spec.kill_rank, 2);
    EXPECT_DOUBLE_EQ(spec.at_fraction, 0.75);
    ::setenv("HDLS_CHAOS", "garbage", 1);
    EXPECT_THROW((void)hdls::core::chaos_from_env(), std::invalid_argument);
    ::unsetenv("HDLS_CHAOS");
    EXPECT_FALSE(hdls::core::chaos_from_env().enabled());
}

}  // namespace
