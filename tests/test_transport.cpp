/// \file test_transport.cpp
/// The transport seam: HDLS_TRANSPORT selection and strict env errors,
/// shm mailbox semantics under broadcasts (chained large payloads,
/// backpressure with in-order delivery, the 1 MB Resource cap), shm window
/// atomics, the absolute 64-byte segment-alignment guarantee on both
/// transports, replay parity of the hierarchical scheduler across
/// transports, and the peer-failure regressions: abort-polled epoch
/// acquisition, epoch release on local unwind, and abort-safe
/// Window::free.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/hdls.hpp"
#include "minimpi/minimpi.hpp"
#include "minimpi/transport_shm.hpp"

namespace {

using hdls::core::Approach;
using hdls::core::ClusterShape;
using hdls::core::HierConfig;
using hdls::core::LevelConfig;
using hdls::dls::InterBackend;
using hdls::dls::Technique;
using minimpi::Comm;
using minimpi::Context;
using minimpi::Error;
using minimpi::ErrorCode;
using minimpi::LockType;
using minimpi::Runtime;
using minimpi::Topology;
using minimpi::TopologyLevel;
using minimpi::TransportKind;
using minimpi::Window;

constexpr TransportKind kBothTransports[] = {TransportKind::Threads, TransportKind::Shm};

// ------------------------------------------------------------ selection ----

TEST(TransportEnvTest, ParsesBothNamesCaseInsensitively) {
    ::setenv("HDLS_TRANSPORT", "threads", 1);
    EXPECT_EQ(minimpi::transport_from_env(), TransportKind::Threads);
    ::setenv("HDLS_TRANSPORT", "SHM", 1);
    EXPECT_EQ(minimpi::transport_from_env(), TransportKind::Shm);
    ::unsetenv("HDLS_TRANSPORT");
}

TEST(TransportEnvTest, UnsetAndEmptyFallBack) {
    ::unsetenv("HDLS_TRANSPORT");
    EXPECT_EQ(minimpi::transport_from_env(), TransportKind::Threads);
    EXPECT_EQ(minimpi::transport_from_env(TransportKind::Shm), TransportKind::Shm);
    ::setenv("HDLS_TRANSPORT", "", 1);
    EXPECT_EQ(minimpi::transport_from_env(), TransportKind::Threads);
    ::unsetenv("HDLS_TRANSPORT");
}

TEST(TransportEnvTest, GarbageThrowsOneLineInvalidArgument) {
    ::setenv("HDLS_TRANSPORT", "tcp", 1);
    try {
        (void)minimpi::transport_from_env();
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("HDLS_TRANSPORT"), std::string::npos);
        EXPECT_NE(what.find("tcp"), std::string::npos);
        EXPECT_EQ(what.find('\n'), std::string::npos) << "error must be one line";
    }
    // The default Runtime::run overload resolves the env var, so a bad
    // value must also fail a run before any rank thread starts.
    EXPECT_THROW(Runtime::run(2, [](Context&) {}), std::invalid_argument);
    ::unsetenv("HDLS_TRANSPORT");
}

TEST(TransportEnvTest, EnvSelectsTheRunSubstrate) {
    ::setenv("HDLS_TRANSPORT", "shm", 1);
    Runtime::run(2, [](Context& ctx) { EXPECT_EQ(ctx.transport(), TransportKind::Shm); });
    ::unsetenv("HDLS_TRANSPORT");
    Runtime::run(2, [](Context& ctx) { EXPECT_EQ(ctx.transport(), TransportKind::Threads); });
}

TEST(TransportEnvTest, ExplicitOverloadBeatsTheEnvironment) {
    ::setenv("HDLS_TRANSPORT", "threads", 1);
    Runtime::run(2, TransportKind::Shm,
                 [](Context& ctx) { EXPECT_EQ(ctx.transport(), TransportKind::Shm); });
    ::unsetenv("HDLS_TRANSPORT");
}

TEST(TransportEnvTest, NamesRoundTrip) {
    EXPECT_STREQ(minimpi::transport_name(TransportKind::Threads), "threads");
    EXPECT_STREQ(minimpi::transport_name(TransportKind::Shm), "shm");
}

// ------------------------------------------------------------ shm smoke ----

TEST(ShmTransportTest, LargePayloadsChainContinuationSlots) {
    Runtime::run(2, TransportKind::Shm, [](Context& ctx) {
        // Several slots worth of payload, deliberately not a multiple of
        // the slot size. The pattern's period (251) does not divide the
        // slot size, so a continuation slot copied out of place shows.
        const std::size_t n = 3 * minimpi::detail::kShmMaxPayload + 123;
        std::vector<std::uint8_t> data(n, 0);
        if (ctx.rank() == 0) {
            for (std::size_t i = 0; i < n; ++i) {
                data[i] = static_cast<std::uint8_t>(i % 251 + 1);
            }
        }
        ctx.world().bcast(std::span<std::uint8_t>(data), 0);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(data[i], static_cast<std::uint8_t>(i % 251 + 1)) << "byte " << i;
        }
    });
}

TEST(ShmTransportTest, OversizedMessageThrowsResource) {
    const std::size_t cap = minimpi::detail::kShmMailboxSlots * minimpi::detail::kShmMaxPayload;
    try {
        Runtime::run(2, TransportKind::Shm, [cap](Context& ctx) {
            // The root's push fails before anything is queued; rank 1, parked
            // on the broadcast, unwinds with Aborted.
            std::vector<std::byte> huge(cap + 1);
            ctx.world().bcast(std::span<std::byte>(huge), 0);
        });
        FAIL() << "expected ErrorCode::Resource";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::Resource);
    }
}

TEST(ShmTransportTest, BackpressureBlocksAndDrains) {
    // Far more in-flight broadcasts than slots: a root returns as soon as
    // its message is queued, so rank 0 must block on the full mailbox and
    // resume as rank 1 drains, without deadlock and in call order.
    Runtime::run(2, TransportKind::Shm, [](Context& ctx) {
        const Comm& w = ctx.world();
        const int kMessages = static_cast<int>(minimpi::detail::kShmMailboxSlots) * 4;
        if (ctx.rank() == 1) {
            // Let the root hit the slot limit before draining.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        for (int i = 0; i < kMessages; ++i) {
            int v = ctx.rank() == 0 ? i : -1;
            w.bcast(v, 0);
            EXPECT_EQ(v, i);
        }
    });
}

TEST(ShmTransportTest, CollectivesAndWindowAtomicsAgree) {
    Topology topo;
    topo.ranks_per_node = 2;
    Runtime::run(4, topo, TransportKind::Shm, [](Context& ctx) {
        const Comm& w = ctx.world();
        const std::vector<std::int64_t> all = w.allgather<std::int64_t>(ctx.rank() + 1);
        EXPECT_EQ(std::accumulate(all.begin(), all.end(), std::int64_t{0}), 10);

        Window win =
            Window::allocate_shared(w, ctx.rank() == 0 ? sizeof(std::int64_t) : 0);
        if (ctx.rank() == 0) {
            win.shared_span<std::int64_t>(0)[0] = 0;
        }
        w.barrier();
        constexpr int kUpdates = 500;
        for (int i = 0; i < kUpdates; ++i) {
            (void)win.fetch_and_op<std::int64_t>(1, 0, 0, minimpi::AccumulateOp::Sum);
        }
        for (int i = 0; i < kUpdates; ++i) {
            (void)win.atomic_update<std::int64_t>(0, 0, [](std::int64_t v) { return v + 1; });
        }
        w.barrier();
        EXPECT_EQ(win.atomic_read<std::int64_t>(0, 0), 4 * 2 * kUpdates);
        w.barrier();
        win.free();
    });
}

// ------------------------------------------------------------- alignment ----

TEST(WindowAlignmentTest, EverySegmentIs64ByteAlignedOnBothTransports) {
    for (const TransportKind kind : kBothTransports) {
        SCOPED_TRACE(minimpi::transport_name(kind));
        Runtime::run(4, kind, [](Context& ctx) {
            const Comm& w = ctx.world();
            // Deliberately odd per-rank sizes: alignment must come from the
            // window layout, not from lucky size rounding.
            Window win = Window::allocate_shared(
                w, static_cast<std::size_t>(ctx.rank()) * 17 + 1);
            for (int r = 0; r < w.size(); ++r) {
                const auto [ptr, bytes] = win.shared_query(r);
                EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ptr) % 64, 0u)
                    << "segment of rank " << r << " is not 64-byte aligned";
                EXPECT_EQ(bytes, static_cast<std::size_t>(r) * 17 + 1);
            }
            w.barrier();
            win.free();
        });
    }
}

// ----------------------------------------------------------- peer failure ----

/// Rank 1 fails while *keeping* an exclusive epoch open (the handle that
/// owns the epoch outlives the unwind, as when a handle is stored outside
/// the failing scope). Every other rank is contending for that epoch and
/// must unwind with ErrorCode::Aborted in bounded time while the primary
/// error surfaces.
void peer_failure_while_holding_epoch(TransportKind kind) {
    // Keeps rank 1's locked handle alive past its unwind; reset after the
    // run releases the epoch against still-valid storage.
    std::optional<Window> survivor;
    std::atomic<int> ready{0};
    std::atomic<bool> locked{false};
    std::atomic<int> aborted{0};
    try {
        Runtime::run(4, kind, [&](Context& ctx) {
            const Comm& w = ctx.world();
            Window win = Window::allocate_shared(w, 8);
            if (ctx.rank() == 1) {
                survivor = win;  // the copy starts with no epochs of its own
                survivor->lock(LockType::Exclusive, 0);
                // Fail only once every contender is out of the collective
                // allocation — the regression under test is the *epoch*
                // wait, not a collective interrupted mid-allocate.
                while (ready.load(std::memory_order_acquire) < 3) {
                    std::this_thread::yield();
                }
                locked.store(true, std::memory_order_release);
                throw std::runtime_error("boom");
            }
            ready.fetch_add(1, std::memory_order_acq_rel);
            while (!locked.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
            try {
                win.lock(LockType::Exclusive, 0);
                ADD_FAILURE() << "acquired an epoch a failed peer still holds";
                win.unlock(0);
            } catch (const Error& e) {
                EXPECT_EQ(e.code(), ErrorCode::Aborted);
                aborted.fetch_add(1);
                throw;
            }
        });
        FAIL() << "the primary exception must propagate";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom");
    }
    EXPECT_EQ(aborted.load(), 3);
    survivor.reset();
}

TEST(PeerFailureTest, ContendedExclusiveEpochUnwindsWithAborted) {
    for (const TransportKind kind : kBothTransports) {
        SCOPED_TRACE(minimpi::transport_name(kind));
        peer_failure_while_holding_epoch(kind);
    }
}

// --------------------------------------------------------- epoch hygiene ----

TEST(EpochOwnershipTest, LocalUnwindReleasesHeldEpochs) {
    for (const TransportKind kind : kBothTransports) {
        SCOPED_TRACE(minimpi::transport_name(kind));
        Runtime::run(2, kind, [](Context& ctx) {
            const Comm& w = ctx.world();
            Window win = Window::allocate_shared(w, 8);
            if (ctx.rank() == 0) {
                try {
                    Window scoped = win;
                    scoped.lock(LockType::Exclusive, 1);
                    throw std::runtime_error("local failure");
                } catch (const std::runtime_error&) {
                    // recovered locally; `scoped` released its epoch
                }
            }
            w.barrier();
            if (ctx.rank() == 1) {
                // Would hang before the fix: rank 0's dead handle kept the
                // exclusive epoch on this target forever.
                win.lock(LockType::Exclusive, 1);
                win.unlock(1);
            }
            w.barrier();
            win.free();
        });
    }
}

TEST(EpochOwnershipTest, CopiesDoNotInheritEpochsMovesDo) {
    Runtime::run(1, TransportKind::Threads, [](Context& ctx) {
        Window win = Window::allocate_shared(ctx.world(), 8);
        win.lock(LockType::Exclusive, 0);

        Window copy = win;
        EXPECT_THROW(copy.unlock(0), Error);  // the copy holds nothing

        Window moved = std::move(win);
        moved.unlock(0);  // the epoch travelled with the move

        moved.free();
    });
}

TEST(EpochOwnershipTest, FreeIsAbortSafe) {
    for (const TransportKind kind : kBothTransports) {
        SCOPED_TRACE(minimpi::transport_name(kind));
        std::atomic<int> ready{0};
        std::atomic<int> aborted{0};
        try {
            Runtime::run(4, kind, [&](Context& ctx) {
                const Comm& w = ctx.world();
                Window win = Window::allocate_shared(w, 8);
                w.barrier();
                if (ctx.rank() == 1) {
                    // Fail only once every survivor is out of the explicit
                    // barrier above — the behavior under test is free()'s
                    // closing barrier observing the abort.
                    while (ready.load(std::memory_order_acquire) < 3) {
                        std::this_thread::yield();
                    }
                    throw std::runtime_error("boom");  // never reaches free
                }
                ready.fetch_add(1, std::memory_order_acq_rel);
                try {
                    win.free();
                    ADD_FAILURE() << "free's closing barrier must observe the abort";
                } catch (const Error& e) {
                    EXPECT_EQ(e.code(), ErrorCode::Aborted);
                    EXPECT_FALSE(win.valid()) << "the handle must be dead after free";
                    aborted.fetch_add(1);
                    throw;
                }
            });
            FAIL() << "the primary exception must propagate";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "boom");
        }
        EXPECT_EQ(aborted.load(), 3);
    }
}

// ---------------------------------------------------------- replay parity ----

/// Executes the hierarchical loop and returns the sorted multiset of leaf
/// sub-chunks (mirrors test_prefetch.cpp's helper, plus transport pinning).
[[nodiscard]] std::vector<std::pair<std::int64_t, std::int64_t>> executed_chunks(
    const ClusterShape& shape, HierConfig cfg, TransportKind kind, std::int64_t n) {
    cfg.transport = kind;
    std::mutex mu;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    const auto report = hdls::parallel_for(shape, Approach::MpiMpi, cfg, n,
                                           [&](std::int64_t b, std::int64_t e) {
                                               const std::lock_guard<std::mutex> lock(mu);
                                               chunks.emplace_back(b, e);
                                           });
    EXPECT_EQ(report.executed_iterations(), n);
    EXPECT_EQ(report.transport, kind);
    std::sort(chunks.begin(), chunks.end());
    return chunks;
}

TEST(TransportParityTest, ChunkMultisetsMatchAcrossTransports) {
    // Centralized backends serialize chunk-size decisions through the step
    // counter, so the executed multiset is a pure function of the config —
    // the transport must not change it (replay parity).
    struct Case {
        ClusterShape shape;
        std::vector<TopologyLevel> tree;
        std::vector<LevelConfig> levels;
        bool prefetch;
    };
    const std::vector<Case> cases = {
        {{4, 4}, {}, {}, false},  // classic two-level defaults (GSS+GSS)
        {{3, 2},
         {{"nodes", 3}, {"cores", 2}},
         {{Technique::TSS, std::nullopt}, {Technique::SS, std::nullopt}},
         false},
        {{4, 2},
         {{"nodes", 4}, {"cores", 2}},
         {{Technique::WF, std::nullopt}, {Technique::GSS, std::nullopt}},
         true},  // prefetch rides the same seam; parity must survive it
        {{6, 2},
         {{"racks", 2}, {"nodes", 3}, {"cores", 2}},
         {{Technique::FAC2, std::nullopt},
          {Technique::GSS, std::nullopt},
          {Technique::SS, std::nullopt}},
         false},
    };
    for (const Case& c : cases) {
        for (const std::int64_t n : {std::int64_t{103}, std::int64_t{3000}}) {
            HierConfig cfg;
            cfg.topology = c.tree;
            cfg.levels = c.levels;
            cfg.prefetch = c.prefetch;
            SCOPED_TRACE("depth=" + std::to_string(std::max<std::size_t>(c.tree.size(), 2)) +
                         " n=" + std::to_string(n) + " prefetch=" + std::to_string(c.prefetch));
            EXPECT_EQ(executed_chunks(c.shape, cfg, TransportKind::Threads, n),
                      executed_chunks(c.shape, cfg, TransportKind::Shm, n));
        }
    }
}

TEST(TransportParityTest, ShardedBackendTilesExactlyOnShm) {
    // Sharded backends steal nondeterministically (no multiset parity);
    // the invariant on the shm substrate is exact tiling.
    HierConfig cfg;
    cfg.topology = {{"nodes", 4}, {"cores", 2}};
    cfg.levels = {{Technique::GSS, InterBackend::Sharded}, {Technique::SS, std::nullopt}};
    cfg.transport = TransportKind::Shm;
    const std::int64_t n = 1000;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    const auto report = hdls::parallel_for(ClusterShape{4, 2}, Approach::MpiMpi, cfg, n,
                                           [&](std::int64_t b, std::int64_t e) {
                                               for (std::int64_t i = b; i < e; ++i) {
                                                   hits[static_cast<std::size_t>(i)]
                                                       .fetch_add(1, std::memory_order_relaxed);
                                               }
                                           });
    EXPECT_EQ(report.executed_iterations(), n);
    EXPECT_EQ(report.transport, TransportKind::Shm);
    for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "iteration " << i;
    }
}

TEST(TransportParityTest, MpiOpenMpRunsOnShm) {
    // The MPI+OpenMP baseline also goes through Runtime::run; it must run
    // on either substrate even though it ignores windows.
    HierConfig cfg;
    cfg.transport = TransportKind::Shm;
    const std::int64_t n = 500;
    std::atomic<std::int64_t> executed{0};
    const auto report = hdls::parallel_for(ClusterShape{2, 3}, Approach::MpiOpenMp, cfg, n,
                                           [&](std::int64_t b, std::int64_t e) {
                                               executed.fetch_add(e - b,
                                                                  std::memory_order_relaxed);
                                           });
    EXPECT_EQ(report.executed_iterations(), n);
    EXPECT_EQ(executed.load(), n);
    EXPECT_EQ(report.transport, TransportKind::Shm);
}

}  // namespace
