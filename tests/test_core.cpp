/// \file test_core.cpp
/// Tests for the hierarchical DLS core: queue protocols, exact iteration
/// coverage across every paper combination and both approaches, parity with
/// serial execution on a real kernel, and the paper's behavioural claims
/// (fastest-rank refill, no implicit barrier).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/mandelbrot.hpp"
#include "core/chunk_exec.hpp"
#include "core/hdls.hpp"
#include "core/lease_board.hpp"

namespace {

using namespace hdls::core;
using hdls::dls::Technique;

/// Sum of every member's `value`: allgather plus std::accumulate.
[[nodiscard]] std::int64_t sum_over(const minimpi::Comm& comm, std::int64_t value) {
    const std::vector<std::int64_t> all = comm.allgather(value);
    return std::accumulate(all.begin(), all.end(), std::int64_t{0});
}

// ----------------------------------------------------------- global queue

TEST(GlobalQueueTest, StaticHandsOutExactlyOneChunkPerNode) {
    minimpi::Runtime::run(4, minimpi::Topology{2, {}}, [](minimpi::Context& ctx) {
        GlobalWorkQueue q(ctx.world(), 1000, Technique::Static, ctx.nodes(), 1);
        // Drain cooperatively: every rank pulls until empty.
        std::int64_t mine = 0;
        while (auto c = q.try_acquire()) {
            mine += c->size;
        }
        const auto total = sum_over(ctx.world(), mine);
        EXPECT_EQ(total, 1000);
        const auto chunks = sum_over(ctx.world(), q.acquired());
        EXPECT_EQ(chunks, 2);  // STATIC at level 1: one chunk per *node*
        q.free();
    });
}

TEST(GlobalQueueTest, GssChunksFollowClosedFormAndCoverLoop) {
    minimpi::Runtime::run(1, [](minimpi::Context& ctx) {
        constexpr std::int64_t kN = 5000;
        GlobalWorkQueue q(ctx.world(), kN, Technique::GSS, 4, 1);
        hdls::dls::LoopParams p;
        p.total_iterations = kN;
        p.workers = 4;
        std::int64_t covered = 0;
        std::int64_t step = 0;
        while (auto c = q.try_acquire()) {
            EXPECT_EQ(c->step, step);
            const auto hint = hdls::dls::chunk_size_for_step(Technique::GSS, p, step);
            EXPECT_EQ(c->size, std::min(hint, kN - covered));
            covered += c->size;
            ++step;
        }
        EXPECT_EQ(covered, kN);
        q.free();
    });
}

TEST(GlobalQueueTest, EmptyLoopYieldsNoChunks) {
    minimpi::Runtime::run(2, [](minimpi::Context& ctx) {
        GlobalWorkQueue q(ctx.world(), 0, Technique::GSS, 2, 1);
        EXPECT_EQ(q.try_acquire(), std::nullopt);
        q.free();
    });
}

TEST(GlobalQueueTest, AdaptiveTechniqueRejected) {
    minimpi::Runtime::run(1, [](minimpi::Context& ctx) {
        EXPECT_THROW(GlobalWorkQueue(ctx.world(), 10, Technique::AWFB, 1, 1), minimpi::Error);
    });
}

// ------------------------------------------------------------- local queue

TEST(LocalQueueTest, PushPopProtocolWithGssSubChunks) {
    minimpi::Runtime::run(4, [](minimpi::Context& ctx) {
        const auto node = ctx.world().split_type(minimpi::SplitType::Shared, ctx.rank());
        NodeWorkQueue q(node, Technique::GSS, 1);
        if (ctx.rank() == 0) {
            EXPECT_FALSE(q.has_pending());
            q.begin_refill();
            const auto first = q.push_and_pop(100, 64);
            ASSERT_TRUE(first);
            // GSS over a 64-iteration chunk with P=4: first sub-chunk 16.
            EXPECT_EQ(first->begin, 100);
            EXPECT_EQ(first->end, 116);
            EXPECT_TRUE(q.has_pending());
            EXPECT_FALSE(q.refills_in_flight());
        }
        ctx.world().barrier();
        // Everyone drains the rest cooperatively.
        std::int64_t mine = 0;
        while (auto sc = q.try_pop()) {
            mine += sc->end - sc->begin;
        }
        const auto rest = sum_over(ctx.world(), mine);
        EXPECT_EQ(rest, 64 - 16);
        EXPECT_FALSE(q.has_pending());
        q.free();
    });
}

TEST(LocalQueueTest, InflightCounterKeepsPeersAlive) {
    minimpi::Runtime::run(2, [](minimpi::Context& ctx) {
        const auto node = ctx.world().split_type(minimpi::SplitType::Shared, ctx.rank());
        NodeWorkQueue q(node, Technique::SS, 1);
        if (ctx.rank() == 0) {
            q.begin_refill();
            EXPECT_TRUE(q.refills_in_flight());
            q.end_refill();
            EXPECT_FALSE(q.refills_in_flight());
        }
        ctx.world().barrier();
        q.free();
    });
}

TEST(LocalQueueTest, MultipleChunksQueueFifo) {
    minimpi::Runtime::run(1, [](minimpi::Context& ctx) {
        const auto node = ctx.world().split_type(minimpi::SplitType::Shared, 0);
        NodeWorkQueue q(node, Technique::SS, 1);
        q.begin_refill();
        (void)q.push_and_pop(0, 2);  // chunk A: pops iteration 0
        q.begin_refill();
        (void)q.push_and_pop(50, 2);  // chunk B appended; pops A's iteration 1
        // Remaining: B entirely.
        const auto s1 = q.try_pop();
        ASSERT_TRUE(s1);
        EXPECT_EQ(s1->begin, 50);
        const auto s2 = q.try_pop();
        ASSERT_TRUE(s2);
        EXPECT_EQ(s2->begin, 51);
        EXPECT_EQ(q.try_pop(), std::nullopt);
        q.free();
    });
}

// -------------------------------------------- termination protocol

TEST(LocalQueueTest, SlowRefillerInFlightKeepsPeersAliveAndLosesNoIterations) {
    // One rank announces a refill, then takes its time fetching the chunk
    // (the global queue looks exhausted to everyone else meanwhile). Peers
    // running the executor's termination protocol must keep polling — not
    // terminate — until the chunk lands, and every iteration must execute.
    minimpi::Runtime::run(4, [](minimpi::Context& ctx) {
        constexpr std::int64_t kChunk = 48;
        const auto node = ctx.world().split_type(minimpi::SplitType::Shared, ctx.rank());
        NodeWorkQueue q(node, Technique::SS, 1);
        std::int64_t mine = 0;
        if (ctx.rank() == 0) {
            q.begin_refill();  // announce *before* the slow global fetch
            ctx.world().barrier();
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            if (const auto sub = q.push_and_pop(0, kChunk)) {
                mine += sub->end - sub->begin;
            }
            // Stay busy with "its own" sub-chunk while the peers (which
            // kept polling through the 30 ms refill) drain the rest.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        } else {
            ctx.world().barrier();
        }
        // Everyone (refiller included) drains with the executor's
        // termination condition: only stop when nothing is pending and no
        // refill is in flight.
        for (;;) {
            if (const auto sub = q.try_pop()) {
                mine += sub->end - sub->begin;
                continue;
            }
            if (!q.refills_in_flight() && !q.has_pending()) {
                break;
            }
            std::this_thread::yield();
        }
        const auto total = sum_over(ctx.world(), mine);
        EXPECT_EQ(total, kChunk);  // no rank left early, nothing lost
        const auto non_refiller = sum_over(ctx.world(), ctx.rank() == 0 ? 0 : mine);
        EXPECT_GT(non_refiller, 0);  // peers stayed alive to take work
        q.free();
    });
}

TEST(LocalQueueTest, CapacityThrowReleasesRefillAnnouncement) {
    // Regression: the capacity-exceeded throw in push_and_pop used to leak
    // the in-flight announcement, leaving kInflight > 0 forever so peers
    // spun in the termination protocol. The announcement must be withdrawn
    // on the throw path too.
    minimpi::Runtime::run(1, [](minimpi::Context& ctx) {
        const auto node = ctx.world().split_type(minimpi::SplitType::Shared, 0);
        NodeWorkQueue q(node, Technique::SS, 1);
        // Capacity is node.size() + 4 = 5. Chunks are large enough that no
        // slot retires (each embedded pop takes one SS iteration), so the
        // sixth push must hit the capacity check and throw.
        for (int i = 0; i < 5; ++i) {
            q.begin_refill();
            (void)q.push_and_pop(i * 100, 100);
        }
        q.begin_refill();
        EXPECT_TRUE(q.refills_in_flight());
        EXPECT_THROW((void)q.push_and_pop(900, 100), minimpi::Error);
        // The failed refill must not leave the announcement raised.
        EXPECT_FALSE(q.refills_in_flight());
        // The queue remains usable: drain everything that was pushed.
        std::int64_t drained = 0;
        while (auto sub = q.try_pop()) {
            drained += sub->end - sub->begin;
        }
        EXPECT_EQ(drained, 5 * 100 - 5);  // 5 chunks of 100, 1 popped each
        q.free();
    });
}

// ------------------------------------------------- lock-free pop path

using Span = std::pair<std::int64_t, std::int64_t>;

/// A parent chunk's sub-chunks under the serial slicing, computed the way
/// the locked queue used to: hand out min(hint, rest), the rest when a
/// hint runs dry.
std::vector<Span> serial_slicing(Technique t, std::int64_t start, std::int64_t size,
                                 int workers) {
    hdls::dls::LoopParams p;
    p.total_iterations = size;
    p.workers = workers;
    std::vector<Span> out;
    std::int64_t scheduled = 0;
    for (std::int64_t step = 0; scheduled < size; ++step) {
        const std::int64_t hint = hdls::dls::chunk_size_for_step(t, p, step);
        const std::int64_t take = hint > 0 ? std::min(hint, size - scheduled) : size - scheduled;
        out.emplace_back(start + scheduled, start + scheduled + take);
        scheduled += take;
    }
    return out;
}

struct RingWrapCase {
    Technique technique;
    int ranks;
};

class LocalQueueRingWrap : public ::testing::TestWithParam<RingWrapCase> {};

TEST_P(LocalQueueRingWrap, ConcurrentPushersAndPoppersTileEveryParentChunk) {
    // Every rank runs the executor's protocol (pop; on empty refill from a
    // shared parent counter; terminate when the parent is dry, nothing is
    // pending and no refill is in flight) over 24x the ring's capacity of
    // parent chunks, so slots are recycled many times while peers pop.
    const Technique technique = GetParam().technique;
    const int ranks = GetParam().ranks;
    const std::int64_t parents = 24 * (ranks + 4);
    std::vector<std::int64_t> offsets{0};
    for (std::int64_t k = 0; k < parents; ++k) {
        offsets.push_back(offsets.back() + 1 + (k * 37) % 61);
    }
    const std::int64_t n = offsets.back();
    std::atomic<std::int64_t> next_parent{0};
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    std::vector<std::vector<Span>> taken(static_cast<std::size_t>(ranks));
    minimpi::Runtime::run(ranks, [&](minimpi::Context& ctx) {
        const auto node = ctx.world().split_type(minimpi::SplitType::Shared, ctx.rank());
        NodeWorkQueue q(node, technique, 1);
        auto& mine = taken[static_cast<std::size_t>(ctx.rank())];
        const auto execute = [&](const LevelQueue::SubChunk& sub) {
            mine.emplace_back(sub.begin, sub.end);
            for (std::int64_t i = sub.begin; i < sub.end; ++i) {
                hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
            }
            if (mine.size() % 5 == 0) {
                std::this_thread::yield();  // vary the interleaving
            }
        };
        for (;;) {
            if (const auto sub = q.try_pop()) {
                execute(*sub);
                continue;
            }
            q.begin_refill();
            const std::int64_t k = next_parent.fetch_add(1);
            if (k < parents) {
                const auto ku = static_cast<std::size_t>(k);
                if (const auto sub = q.push_and_pop(offsets[ku], offsets[ku + 1] - offsets[ku])) {
                    execute(*sub);
                }
                continue;
            }
            q.end_refill();
            if (!q.refills_in_flight() && !q.has_pending()) {
                break;
            }
            std::this_thread::yield();
        }
        q.free();
    });
    for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "iteration " << i;
    }
    std::vector<Span> all;
    for (const auto& mine : taken) {
        all.insert(all.end(), mine.begin(), mine.end());
    }
    std::sort(all.begin(), all.end());
    std::size_t next = 0;
    for (std::int64_t k = 0; k < parents; ++k) {
        const auto ku = static_cast<std::size_t>(k);
        for (const Span& expected :
             serial_slicing(technique, offsets[ku], offsets[ku + 1] - offsets[ku], ranks)) {
            ASSERT_LT(next, all.size());
            ASSERT_EQ(all[next], expected) << "parent chunk " << k;
            ++next;
        }
    }
    EXPECT_EQ(next, all.size());
}

INSTANTIATE_TEST_SUITE_P(
    Techniques, LocalQueueRingWrap,
    ::testing::Values(RingWrapCase{Technique::SS, 4}, RingWrapCase{Technique::SS, 8},
                      RingWrapCase{Technique::GSS, 4}, RingWrapCase{Technique::GSS, 8},
                      RingWrapCase{Technique::FAC2, 4}, RingWrapCase{Technique::FAC2, 8},
                      RingWrapCase{Technique::TSS, 4}, RingWrapCase{Technique::TSS, 8},
                      RingWrapCase{Technique::Static, 4}, RingWrapCase{Technique::Static, 8}),
    [](const ::testing::TestParamInfo<RingWrapCase>& info) {
        return std::string(hdls::dls::technique_name(info.param.technique)) + "_" +
               std::to_string(info.param.ranks) + "ranks";
    });

TEST(LocalQueueTest, LeafPopsOpenNoLockEpoch) {
    // GSS+SS, 2x2 MPI+MPI: every iteration is one leaf pop, and only the
    // refills (one push each) may open a window lock epoch.
    constexpr std::int64_t kN = 4000;
    HierConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::SS;
    const auto report = run_hierarchical(ClusterShape{2, 2}, Approach::MpiMpi, cfg, kN,
                                         [](std::int64_t, std::int64_t) {});
    EXPECT_EQ(report.executed_iterations(), kN);
    const std::uint64_t refills = report.metrics.counter_total("hdls_sched_refills_total");
    EXPECT_GT(refills, 0u);
    EXPECT_EQ(report.metrics.counter_total("hdls_window_locks_total"), refills);
    EXPECT_EQ(report.metrics.counter_total("hdls_sched_pops_total"),
              static_cast<std::uint64_t>(kN));
}

TEST(LocalQueueTest, OverlongChunkThrowsAtPushAndReleasesTheAnnouncement) {
    // The cursor packs the step into 32 bits; a chunk needing more steps
    // must be refused, never wrap into the chunk index.
    minimpi::Runtime::run(1, [](minimpi::Context& ctx) {
        const auto node = ctx.world().split_type(minimpi::SplitType::Shared, 0);
        constexpr std::int64_t kMaxSteps = (std::int64_t{1} << 32) - 1;
        NodeWorkQueue q(node, Technique::SS, 1);
        q.begin_refill();
        try {
            (void)q.push_and_pop(0, kMaxSteps + 1);
            ADD_FAILURE() << "an over-long chunk was accepted";
        } catch (const minimpi::Error& e) {
            EXPECT_EQ(e.code(), minimpi::ErrorCode::InvalidArgument);
        }
        EXPECT_FALSE(q.refills_in_flight());
        EXPECT_FALSE(q.has_pending());
        // The longest chunk that fits is accepted and popped from.
        q.begin_refill();
        const auto first = q.push_and_pop(10, kMaxSteps);
        ASSERT_TRUE(first);
        EXPECT_EQ(first->begin, 10);
        EXPECT_EQ(first->end, 11);
        EXPECT_TRUE(q.has_pending());
        EXPECT_FALSE(q.refills_in_flight());
        q.free();

        // The budget counts steps, not iterations: SS with min_chunk 2
        // slices 2^32 iterations in 2^31 steps.
        NodeWorkQueue pairs(node, Technique::SS, 2);
        pairs.begin_refill();
        const auto pair = pairs.push_and_pop(0, kMaxSteps + 1);
        ASSERT_TRUE(pair);
        EXPECT_EQ(pair->end - pair->begin, 2);
        pairs.free();
    });
}

TEST(StepStartsTest, MatchesTheSerialPrefixSumForEveryStepIndexedTechnique) {
    using hdls::dls::StepStarts;
    for (const Technique t : hdls::dls::all_techniques()) {
        if (!hdls::dls::supports_step_indexed(t)) {
            continue;
        }
        for (const std::int64_t n : {0, 1, 5, 64, 1000, 4097}) {
            for (const int workers : {1, 2, 3, 8}) {
                for (const std::int64_t min_chunk : {1, 3}) {
                    for (const std::int64_t fsc : {0, 7}) {
                        hdls::dls::LoopParams p;
                        p.total_iterations = n;
                        p.workers = workers;
                        p.min_chunk = min_chunk;
                        p.fsc_chunk = fsc;
                        const std::string where = std::string(hdls::dls::technique_name(t)) +
                                                  " N=" + std::to_string(n) +
                                                  " P=" + std::to_string(workers) +
                                                  " min=" + std::to_string(min_chunk) +
                                                  " fsc=" + std::to_string(fsc);
                        // Brute force: the running sum of every hint, clamped.
                        std::vector<std::int64_t> starts;
                        std::int64_t sum = 0;
                        for (std::int64_t step = 0;; ++step) {
                            starts.push_back(std::min(sum, n));
                            if (starts.size() > 3 && starts[starts.size() - 4] == n) {
                                break;  // three steps past the end of the loop
                            }
                            const std::int64_t hint =
                                hdls::dls::chunk_size_for_step(t, p, step);
                            sum = hint > 0 ? sum + hint : n;
                        }
                        StepStarts forward(t, p);
                        for (std::size_t s = 0; s + 1 < starts.size(); ++s) {
                            const auto step = static_cast<std::int64_t>(s);
                            ASSERT_EQ(forward.start(step), starts[s]) << where << " step " << s;
                            const auto r = forward.range(step);
                            ASSERT_EQ(r.begin, starts[s]) << where << " step " << s;
                            ASSERT_EQ(r.end, starts[s + 1]) << where << " step " << s;
                        }
                        StepStarts backward(t, p);
                        for (std::size_t s = starts.size(); s-- > 0;) {
                            ASSERT_EQ(backward.start(static_cast<std::int64_t>(s)), starts[s])
                                << where << " step " << s << " (descending)";
                        }
                        EXPECT_EQ(backward.start(std::int64_t{1} << 40), n) << where;
                    }
                }
            }
        }
    }
}

// ------------------------------------------------- coverage across combos

struct ComboCase {
    Approach approach;
    Technique inter;
    Technique intra;
    int nodes;
    int wpn;
    std::int64_t n;
};

class HierCoverage : public ::testing::TestWithParam<ComboCase> {};

TEST_P(HierCoverage, EveryIterationExecutedExactlyOnce) {
    const auto& [approach, inter, intra, nodes, wpn, n] = GetParam();
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    HierConfig cfg;
    cfg.inter = inter;
    cfg.intra = intra;
    const ClusterShape shape{nodes, wpn};
    const auto report =
        hdls::parallel_for(shape, approach, cfg, n, [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
                hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
            }
        });
    for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "iteration " << i << " combo " << hdls::dls::technique_name(inter) << "+"
            << hdls::dls::technique_name(intra);
    }
    EXPECT_EQ(report.executed_iterations(), n);
    EXPECT_EQ(report.workers.size(), static_cast<std::size_t>(nodes * wpn));
    EXPECT_GE(report.parallel_seconds, 0.0);
}

std::vector<ComboCase> coverage_cases() {
    std::vector<ComboCase> cases;
    // The paper's full grid at small scale, both approaches.
    for (const Technique inter : hdls::dls::paper_internode_techniques()) {
        for (const Technique intra : hdls::dls::paper_intranode_techniques()) {
            cases.push_back({Approach::MpiMpi, inter, intra, 2, 3, 500});
            cases.push_back({Approach::MpiOpenMp, inter, intra, 2, 3, 500});
        }
    }
    // Edge shapes.
    cases.push_back({Approach::MpiMpi, Technique::GSS, Technique::SS, 1, 1, 37});
    cases.push_back({Approach::MpiMpi, Technique::TSS, Technique::FAC2, 4, 2, 1});
    cases.push_back({Approach::MpiOpenMp, Technique::FAC2, Technique::GSS, 3, 1, 64});
    cases.push_back({Approach::MpiMpi, Technique::Static, Technique::Static, 2, 2, 0});
    // Extension techniques at level 2 (beyond the paper's five).
    cases.push_back({Approach::MpiMpi, Technique::GSS, Technique::TFSS, 2, 2, 300});
    cases.push_back({Approach::MpiMpi, Technique::FAC2, Technique::RND, 2, 2, 300});
    return cases;
}

std::string combo_name(const ::testing::TestParamInfo<ComboCase>& info) {
    const auto& c = info.param;
    std::string name = c.approach == Approach::MpiMpi ? "MpiMpi_" : "MpiOpenMp_";
    name += std::string(hdls::dls::technique_name(c.inter)) + "_" +
            std::string(hdls::dls::technique_name(c.intra));
    for (char& ch : name) {
        if (ch == '-') {
            ch = '_';
        }
    }
    name += "_" + std::to_string(c.nodes) + "x" + std::to_string(c.wpn) + "_n" +
            std::to_string(c.n);
    return name;
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, HierCoverage, ::testing::ValuesIn(coverage_cases()),
                         combo_name);

// ----------------------------------------------------------- real kernel

TEST(IntegrationTest, MandelbrotResultsMatchSerialForBothApproaches) {
    hdls::apps::MandelbrotConfig mcfg;
    mcfg.width = 64;
    mcfg.height = 48;
    mcfg.max_iter = 150;

    hdls::apps::MandelbrotImage serial(mcfg);
    run_serial(mcfg.pixels(), [&](std::int64_t b, std::int64_t e) {
        serial.compute_range(b, e);
    });
    ASSERT_EQ(serial.uncomputed(), 0);

    for (const Approach approach : {Approach::MpiMpi, Approach::MpiOpenMp}) {
        hdls::apps::MandelbrotImage parallel_img(mcfg);
        HierConfig cfg;
        cfg.inter = Technique::GSS;
        cfg.intra = Technique::Static;
        const auto report = hdls::parallel_for(ClusterShape{2, 4}, approach, cfg, mcfg.pixels(),
                                               [&](std::int64_t b, std::int64_t e) {
                                                   parallel_img.compute_range(b, e);
                                               });
        EXPECT_EQ(parallel_img.uncomputed(), 0);
        EXPECT_EQ(parallel_img.checksum(), serial.checksum())
            << approach_name(approach);
        EXPECT_EQ(report.executed_iterations(), mcfg.pixels());
    }
}

// ------------------------------------------------ behavioural properties

TEST(BehaviourTest, FastestRankRefillsUnderSkew) {
    // Make one rank per node persistently slow; the others must take over
    // the refilling role (the paper: "the responsibility of obtaining work
    // is not assigned to a specific MPI process").
    HierConfig cfg;
    cfg.inter = Technique::FAC2;
    cfg.intra = Technique::GSS;
    const ClusterShape shape{2, 3};
    const auto report = hdls::parallel_for(
        shape, Approach::MpiMpi, cfg, 600, [&](std::int64_t b, std::int64_t e) {
            // Iterations 0-99 are 30x slower, pinning whoever executes them.
            if (b < 100) {
                std::this_thread::sleep_for(std::chrono::microseconds(300 * (e - b)));
            } else {
                std::this_thread::sleep_for(std::chrono::microseconds(10 * (e - b)));
            }
        });
    EXPECT_EQ(report.executed_iterations(), 600);
    EXPECT_GT(report.distinct_refillers(), 1);
}

TEST(BehaviourTest, MpiMpiSkipsTheImplicitBarrier) {
    // One pathological iteration blocks a worker for a long time. Under
    // MPI+MPI the remaining workers finish the rest of the loop and leave;
    // their finish times must be far below the straggler's. (Under
    // MPI+OpenMP the implicit barrier would hold everyone back, but that
    // contrast is quantified by the simulator benches; here we pin the
    // library behaviour.)
    HierConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::SS;
    const auto report = hdls::parallel_for(
        ClusterShape{1, 4}, Approach::MpiMpi, cfg, 64, [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
                if (i == 0) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(120));
                }
            }
        });
    std::vector<double> finishes;
    for (const auto& w : report.workers) {
        finishes.push_back(w.finish_seconds);
    }
    std::sort(finishes.begin(), finishes.end());
    EXPECT_GE(finishes.back(), 0.110);          // the straggler
    EXPECT_LT(finishes[1], finishes.back() / 2);  // a non-straggler left early
}

TEST(BehaviourTest, HybridBarrierHoldsWholeTeam) {
    // The mirror image of the previous test: with the MPI+OpenMP model and
    // a static intra schedule, the implicit barrier forces every thread's
    // finish time up to (nearly) the straggler's.
    HierConfig cfg;
    cfg.inter = Technique::Static;
    cfg.intra = Technique::Static;
    const auto report = hdls::parallel_for(
        ClusterShape{1, 4}, Approach::MpiOpenMp, cfg, 64, [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
                if (i == 0) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(120));
                }
            }
        });
    for (const auto& w : report.workers) {
        EXPECT_GE(w.finish_seconds, 0.110) << "thread " << w.worker_in_node;
    }
}

// ------------------------------------------------------------ chunk gate

/// Admits the first `limit` chunks of the run, then refuses every later
/// one, and counts what it saw.
class RefusingGate final : public ChunkGate {
public:
    explicit RefusingGate(int limit) : limit_(limit) {}

    bool begin_chunk(int /*rank*/) override {
        const bool admit = begun_.fetch_add(1, std::memory_order_relaxed) < limit_;
        (admit ? admitted_ : refused_).fetch_add(1, std::memory_order_relaxed);
        return admit;
    }
    void end_chunk(int /*rank*/, std::int64_t iterations) override {
        ended_.fetch_add(1, std::memory_order_relaxed);
        ended_iterations_.fetch_add(iterations, std::memory_order_relaxed);
    }

    const int limit_;
    std::atomic<int> begun_{0};
    std::atomic<int> admitted_{0};
    std::atomic<int> refused_{0};
    std::atomic<int> ended_{0};
    std::atomic<std::int64_t> ended_iterations_{0};
};

/// A gate that refuses after k chunks ends the run early on both
/// executors: every rank leaves at its next chunk, the call returns, each
/// admitted chunk ran its body once, and no iteration ran twice.
TEST(ChunkGateTest, RefusalAfterKChunksEndsTheRunOnBothExecutors) {
    constexpr std::int64_t kN = 4000;
    constexpr int kAdmit = 5;
    HierConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::SS;
    for (const Approach approach : {Approach::MpiMpi, Approach::MpiOpenMp}) {
        SCOPED_TRACE(std::string(approach_name(approach)));
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kN));
        RefusingGate gate(kAdmit);
        RunOptions opts;
        opts.gate = &gate;
        const auto report = run_hierarchical(
            ClusterShape{2, 2}, approach, cfg, kN,
            [&](std::int64_t b, std::int64_t e) {
                for (std::int64_t i = b; i < e; ++i) {
                    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
                }
            },
            opts);
        std::int64_t ran = 0;
        for (std::int64_t i = 0; i < kN; ++i) {
            const int h = hits[static_cast<std::size_t>(i)].load();
            ASSERT_LE(h, 1) << "iteration " << i;
            ran += h;
        }
        EXPECT_EQ(gate.admitted_.load(), kAdmit);
        EXPECT_GE(gate.refused_.load(), 1);
        EXPECT_EQ(gate.ended_.load(), kAdmit);
        EXPECT_EQ(gate.ended_iterations_.load(), ran);
        EXPECT_EQ(report.executed_iterations(), ran);
        EXPECT_GT(ran, 0);
        EXPECT_LT(ran, kN);
    }
}

// ------------------------------------------------------------- validation

TEST(ValidationTest, CombinationRulesEnforced) {
    const ClusterShape shape{2, 2};
    HierConfig cfg;

    // Adaptive techniques are valid at the inter level (served by the
    // remaining-count/feedback form of AdaptiveGlobalQueue)...
    cfg.inter = Technique::AWFB;
    EXPECT_NO_THROW(validate_combination(shape, Approach::MpiMpi, cfg));

    cfg.inter = Technique::GSS;
    cfg.intra = Technique::FAC;  // ...but not at the MPI+MPI intra level
    EXPECT_THROW(validate_combination(shape, Approach::MpiMpi, cfg), std::invalid_argument);
    cfg.intra = Technique::AWFC;
    EXPECT_THROW(validate_combination(shape, Approach::MpiMpi, cfg), std::invalid_argument);

    // WF static node weights must match the node count when given.
    cfg.intra = Technique::GSS;
    cfg.inter = Technique::WF;
    cfg.node_weights = {2.0, 1.0, 1.0};  // shape has 2 nodes
    EXPECT_THROW(validate_combination(shape, Approach::MpiMpi, cfg), std::invalid_argument);
    cfg.node_weights = {2.0, 1.0};
    EXPECT_NO_THROW(validate_combination(shape, Approach::MpiMpi, cfg));
    cfg.node_weights.clear();
    cfg.inter = Technique::GSS;

    // TSS intra under MPI+OpenMP: expressible through the extension
    // schedules.
    cfg.intra = Technique::TSS;
    EXPECT_NO_THROW(validate_combination(shape, Approach::MpiOpenMp, cfg));

    cfg.intra = Technique::GSS;
    EXPECT_THROW(validate_combination(ClusterShape{0, 4}, Approach::MpiMpi, cfg),
                 std::invalid_argument);
    cfg.min_chunk = 0;
    EXPECT_THROW(validate_combination(shape, Approach::MpiMpi, cfg), std::invalid_argument);
}

TEST(ValidationTest, RunnerArgumentChecks) {
    HierConfig cfg;
    EXPECT_THROW((void)run_hierarchical(ClusterShape{1, 1}, Approach::MpiMpi, cfg, -1,
                                        [](std::int64_t, std::int64_t) {}),
                 std::invalid_argument);
    EXPECT_THROW((void)run_hierarchical(ClusterShape{1, 1}, Approach::MpiMpi, cfg, 10,
                                        ChunkBody{}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------- reports

TEST(ReportTest, AccountingInvariants) {
    HierConfig cfg;
    cfg.inter = Technique::TSS;
    cfg.intra = Technique::FAC2;
    const ClusterShape shape{2, 2};
    const auto report = hdls::parallel_for(shape, Approach::MpiMpi, cfg, 2000,
                                           [](std::int64_t, std::int64_t) {});
    EXPECT_EQ(report.executed_iterations(), 2000);
    EXPECT_GT(report.global_chunks(), 0);
    EXPECT_GE(report.executed_chunks(), report.global_chunks());
    EXPECT_GE(report.finish_cov(), 0.0);
    EXPECT_GE(report.distinct_refillers(), 1);
    // Per-worker sanity.
    for (const auto& w : report.workers) {
        EXPECT_GE(w.iterations, 0);
        EXPECT_GE(w.busy_seconds, 0.0);
        EXPECT_LE(w.busy_seconds, w.finish_seconds + 1e-9);
        EXPECT_GE(w.node, 0);
        EXPECT_LT(w.node, shape.nodes);
    }
    // The report prints without blowing up.
    std::ostringstream oss;
    report.print(oss);
    EXPECT_NE(oss.str().find("MPI+MPI"), std::string::npos);
    EXPECT_NE(oss.str().find("TSS+FAC2"), std::string::npos);
}

// ------------------------------------------------- chunk-clock accounting

/// Busy time, the chunk histogram and the worker stats all come from the
/// same chunk-clock stamps, on both executors and both transports: the
/// histogram holds one sample per executed chunk, its sum is the workers'
/// busy time to within 1 ns per chunk, and no worker is busier than its
/// steady_clock finish time.
TEST(ChunkClockAccounting, BusyTimeHistogramAndFinishAgree) {
    const std::pair<Technique, Technique> schedules[] = {{Technique::GSS, Technique::SS},
                                                         {Technique::FAC2, Technique::Static}};
    for (const auto& [inter, intra] : schedules) {
        for (const auto transport : {minimpi::TransportKind::Threads,
                                     minimpi::TransportKind::Shm}) {
            for (const auto approach : {Approach::MpiMpi, Approach::MpiOpenMp}) {
                SCOPED_TRACE(std::string(hdls::dls::technique_name(inter)) + "+" +
                             std::string(hdls::dls::technique_name(intra)) + " " +
                             minimpi::transport_name(transport) + " " +
                             (approach == Approach::MpiMpi ? "MPI+MPI" : "MPI+OpenMP"));
                HierConfig cfg;
                cfg.inter = inter;
                cfg.intra = intra;
                cfg.transport = transport;
                std::atomic<std::int64_t> sink{0};
                const auto report = run_hierarchical(
                    ClusterShape{2, 2}, approach, cfg, 3000,
                    [&sink](std::int64_t b, std::int64_t e) {
                        sink.fetch_add(e - b, std::memory_order_relaxed);
                    });
                ASSERT_EQ(report.executed_iterations(), 3000);
                const auto chunks = report.metrics.counter_total("hdls_exec_chunks_total");
                EXPECT_EQ(chunks, static_cast<std::uint64_t>(report.executed_chunks()));
                EXPECT_EQ(report.metrics.histogram_count("hdls_exec_chunk_ns"), chunks);
                double busy_ns = 0.0;
                for (const auto& w : report.workers) {
                    EXPECT_LE(w.busy_seconds, w.finish_seconds);
                    busy_ns += w.busy_seconds * 1e9;
                }
                const auto hist_sum =
                    static_cast<double>(report.metrics.histogram_sum("hdls_exec_chunk_ns"));
                EXPECT_LE(std::abs(hist_sum - busy_ns), static_cast<double>(chunks));
            }
        }
    }
}

/// The per-chunk floor's count gate: an MPI+MPI rank reads its chunk clock
/// exactly twice per executed chunk (body start and end); the completion
/// fence, the failure-detector timer, the feedback mark and the watchdog
/// beat all reuse the body-end stamp. Lease mode adds exactly one read per
/// chunk, the lease stamp, and nothing else when no rank dies.
TEST(ChunkClockReads, TwoPerChunkAndOneMorePerLease) {
    HierConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::SS;
    const auto plain = run_hierarchical(ClusterShape{2, 2}, Approach::MpiMpi, cfg, 4000,
                                        [](std::int64_t, std::int64_t) {});
    ASSERT_EQ(plain.executed_iterations(), 4000);
    for (const auto& w : plain.workers) {
        EXPECT_EQ(w.clock_reads, 2 * w.chunks);
    }
    cfg.lease = true;
    cfg.prefetch = true;
    for (const auto transport : {minimpi::TransportKind::Threads, minimpi::TransportKind::Shm}) {
        SCOPED_TRACE(minimpi::transport_name(transport));
        cfg.transport = transport;
        const auto leased = run_hierarchical(ClusterShape{2, 2}, Approach::MpiMpi, cfg, 4000,
                                             [](std::int64_t, std::int64_t) {});
        ASSERT_EQ(leased.executed_iterations(), 4000);
        for (const auto& w : leased.workers) {
            EXPECT_EQ(w.clock_reads, 3 * w.chunks);
        }
    }
}

// ------------------------------------------------------- chunk executor

/// The shared execution step, driven directly: a committed run accounts
/// each chunk in the worker's stats and the three exec metrics, reads the
/// chunk clock exactly twice per chunk and brackets the body with one
/// ChunkExecBegin/ChunkExecEnd pair.
TEST(ChunkExecutorTest, CommittedRunAccountsTimesAndTracesEveryChunk) {
    using hdls::util::ChunkClock;
    hdls::trace::TraceSession session(1);
    ChunkClock clock(ChunkClock::Source::Steady);
    WorkerStats stats;
    std::int64_t ran = 0;
    const ChunkBody body = [&ran](std::int64_t b, std::int64_t e) { ran += e - b; };
    const hdls::metrics::Snapshot before = hdls::metrics::registry().snapshot();
    ChunkExecutor exec(body, clock, stats, /*board=*/nullptr,
                       Probe(session.tracer(0, 0), /*watchdog=*/nullptr, /*worker=*/0));
    const ChunkExecutor::Result r1 = exec.run(0, 10, /*level=*/1, false);
    const ChunkExecutor::Result r2 = exec.run(10, 5, /*level=*/1, false);
    const hdls::metrics::Snapshot delta =
        hdls::metrics::registry().snapshot().delta_since(before);

    EXPECT_EQ(ran, 15);
    for (const auto& r : {r1, r2}) {
        EXPECT_TRUE(r.committed);
        EXPECT_LE(r.b0, r.b1);
        EXPECT_EQ(r.busy, hdls::util::elapsed(r.b0, r.b1));
    }
    EXPECT_EQ(stats.chunks, 2);
    EXPECT_EQ(stats.iterations, 15);
    EXPECT_DOUBLE_EQ(stats.busy_seconds,
                     std::chrono::duration<double>(r1.busy).count() +
                         std::chrono::duration<double>(r2.busy).count());
    EXPECT_EQ(delta.counter_total("hdls_exec_chunks_total"), 2u);
    EXPECT_EQ(delta.counter_total("hdls_exec_iterations_total"), 15u);
    EXPECT_EQ(delta.histogram_count("hdls_exec_chunk_ns"), 2u);
    EXPECT_EQ(delta.histogram_sum("hdls_exec_chunk_ns"),
              static_cast<std::uint64_t>((r1.busy + r2.busy).count()));
    EXPECT_EQ(clock.reads(), 4u);

    const hdls::trace::Trace trace = session.merge();
    EXPECT_EQ(trace.count(hdls::trace::EventKind::ChunkExecBegin, 0), 2);
    EXPECT_EQ(trace.count(hdls::trace::EventKind::ChunkExecEnd, 0), 2);
}

/// A lease reclaimed while its owner is still inside the body: the fence
/// inside run() is lost, so nothing is accounted — but the execution still
/// records its Begin/End pair.
TEST(ChunkExecutorTest, LostFenceCommitsNothingButStillTraces) {
    using hdls::util::ChunkClock;
    hdls::trace::TraceSession session(2);
    const hdls::metrics::Snapshot before = hdls::metrics::registry().snapshot();
    WorkerStats owner_stats;
    bool owner_committed = true;
    minimpi::Runtime::run(2, [&](minimpi::Context& ctx) {
        const minimpi::Comm& world = ctx.world();
        ChunkClock clock(ChunkClock::Source::Steady);
        LeaseBoard board(world, 1.0, /*slots=*/8, &clock);
        if (world.rank() == 0) {
            // The body parks between two barriers while rank 1 declares
            // this rank dead and reclaims the lease out from under it.
            const ChunkBody body = [&world](std::int64_t, std::int64_t) {
                world.barrier();
                world.barrier();
            };
            ChunkExecutor exec(body, clock, owner_stats, &board,
                               Probe(session.tracer(0, 0), /*watchdog=*/nullptr, /*worker=*/0));
            board.lease(0, 100);
            owner_committed = exec.run(0, 100, /*level=*/1, false).committed;
        } else {
            world.barrier();
            world.mark_dead(0);
            // Past the 100 ms deadline floor (the EMA is still zero).
            std::this_thread::sleep_for(std::chrono::milliseconds(150));
            EXPECT_EQ(board.sweep(), 1);
            const auto rc = board.claim_one();
            ASSERT_TRUE(rc.has_value());
            world.barrier();
            // The claimer re-leases and commits, settling the board.
            board.lease(rc->start, rc->size);
            EXPECT_TRUE(board.complete(rc->start));
        }
        world.barrier();
        EXPECT_TRUE(board.quiescent());
        board.free();
    });
    const hdls::metrics::Snapshot delta =
        hdls::metrics::registry().snapshot().delta_since(before);

    EXPECT_FALSE(owner_committed);
    EXPECT_EQ(owner_stats.chunks, 0);
    EXPECT_EQ(owner_stats.iterations, 0);
    EXPECT_EQ(owner_stats.busy_seconds, 0.0);
    EXPECT_EQ(delta.counter_total("hdls_exec_chunks_total"), 0u);
    EXPECT_EQ(delta.counter_total("hdls_exec_iterations_total"), 0u);
    EXPECT_EQ(delta.histogram_count("hdls_exec_chunk_ns"), 0u);
    EXPECT_EQ(delta.counter_total("hdls_lease_fence_losses_total"), 1u);

    const hdls::trace::Trace trace = session.merge();
    EXPECT_EQ(trace.count(hdls::trace::EventKind::ChunkExecBegin, 0), 1);
    EXPECT_EQ(trace.count(hdls::trace::EventKind::ChunkExecEnd, 0), 1);
}

// -------------------------------------------------- env / topology parsing

TEST(EnvConfigTest, TopologyParsesTheDocumentedGrammar) {
    const auto tree = parse_topology("racks=2, nodes=4, cores=8");
    ASSERT_EQ(tree.size(), 3u);
    EXPECT_EQ(tree[0].name, "racks");
    EXPECT_EQ(tree[0].fan_out, 2);
    EXPECT_EQ(tree[2].name, "cores");
    EXPECT_EQ(tree[2].fan_out, 8);
    // Canonical round trip.
    EXPECT_EQ(format_topology(tree), "racks=2,nodes=4,cores=8");
    EXPECT_EQ(format_topology(parse_topology(format_topology(tree))),
              format_topology(tree));
}

TEST(EnvConfigTest, TopologyParsingRejectsMalformedSpecsWithClearErrors) {
    const auto message_of = [](const char* text) -> std::string {
        try {
            (void)parse_topology(text);
        } catch (const std::invalid_argument& e) {
            return e.what();
        }
        return "";
    };
    EXPECT_NE(message_of("").find("empty"), std::string::npos);
    EXPECT_NE(message_of("racks=2,,cores=8").find("empty level"), std::string::npos);
    EXPECT_NE(message_of("racks2,cores=8").find("name=fanout"), std::string::npos);
    EXPECT_NE(message_of("=4").find("empty name"), std::string::npos);
    EXPECT_NE(message_of("racks=x").find("not a number"), std::string::npos);
    EXPECT_NE(message_of("racks=0").find(">= 1"), std::string::npos);
    EXPECT_NE(message_of("racks=-3").find(">= 1"), std::string::npos);
}

TEST(EnvConfigTest, TopologyEnvThrowsInsteadOfSilentlyFallingBack) {
    ::setenv("HDLS_TOPOLOGY", "nodes=2,cores=4", 1);
    const auto tree = topology_from_env();
    ASSERT_EQ(tree.size(), 2u);
    EXPECT_EQ(tree[1].fan_out, 4);
    ::setenv("HDLS_TOPOLOGY", "garbage", 1);
    EXPECT_THROW((void)topology_from_env(), std::invalid_argument);
    ::unsetenv("HDLS_TOPOLOGY");
    EXPECT_TRUE(topology_from_env().empty());
}

TEST(EnvConfigTest, InterBackendEnvThrowsOnUnknownValues) {
    ::setenv("HDLS_INTER_BACKEND", "hexagonal", 1);
    EXPECT_THROW((void)inter_backend_from_env(), std::invalid_argument);
    ::unsetenv("HDLS_INTER_BACKEND");
    EXPECT_EQ(inter_backend_from_env(), hdls::dls::InterBackend::Centralized);
}

TEST(EnvConfigTest, SimdEnvThrowsOnUnknownPolicies) {
    ::setenv("HDLS_SIMD", " Auto ", 1);
    EXPECT_EQ(simd_mode_from_env(), hdls::simd::SimdMode::Auto);
    ::setenv("HDLS_SIMD", "scalar", 1);
    EXPECT_EQ(simd_mode_from_env(), hdls::simd::SimdMode::ForceScalar);
    ::setenv("HDLS_SIMD", "NATIVE", 1);
    EXPECT_EQ(simd_mode_from_env(), hdls::simd::SimdMode::Native);
    for (const char* bad : {"avx512", "vector", "", "on"}) {
        ::setenv("HDLS_SIMD", bad, 1);
        EXPECT_THROW((void)simd_mode_from_env(), std::invalid_argument) << bad;
    }
    ::unsetenv("HDLS_SIMD");
    EXPECT_EQ(simd_mode_from_env(), hdls::simd::SimdMode::Auto);
    EXPECT_EQ(simd_mode_from_env(hdls::simd::SimdMode::Native),
              hdls::simd::SimdMode::Native);
}

TEST(EnvConfigTest, PinEnvThrowsOnUnknownPolicies) {
    ::setenv("HDLS_PIN", " Compact ", 1);
    EXPECT_EQ(pin_from_env(), minimpi::PinPolicy::Compact);
    ::setenv("HDLS_PIN", "SCATTER", 1);
    EXPECT_EQ(pin_from_env(), minimpi::PinPolicy::Scatter);
    ::setenv("HDLS_PIN", "none", 1);
    EXPECT_EQ(pin_from_env(minimpi::PinPolicy::Compact), minimpi::PinPolicy::None);
    for (const char* bad : {"numa", "cores", "", "1"}) {
        ::setenv("HDLS_PIN", bad, 1);
        EXPECT_THROW((void)pin_from_env(), std::invalid_argument) << bad;
    }
    ::unsetenv("HDLS_PIN");
    EXPECT_EQ(pin_from_env(), minimpi::PinPolicy::None);
    EXPECT_EQ(pin_from_env(minimpi::PinPolicy::Scatter), minimpi::PinPolicy::Scatter);
}

TEST(EnvConfigTest, MetricsEnvThrowsOnNonBooleanValues) {
    ::setenv("HDLS_METRICS", "1", 1);
    EXPECT_TRUE(metrics_from_env());
    ::setenv("HDLS_METRICS", "off", 1);
    EXPECT_FALSE(metrics_from_env(true));
    ::setenv("HDLS_METRICS", "sometimes", 1);
    EXPECT_THROW((void)metrics_from_env(), std::invalid_argument);
    ::unsetenv("HDLS_METRICS");
    EXPECT_FALSE(metrics_from_env());
    EXPECT_TRUE(metrics_from_env(true));
}

TEST(EnvConfigTest, MetricsPeriodEnvThrowsOnNonPositiveValues) {
    ::setenv("HDLS_METRICS_PERIOD_MS", " 250 ", 1);
    EXPECT_EQ(metrics_period_from_env(), std::chrono::milliseconds(250));
    for (const char* bad : {"0", "-5", "fast", "100x", ""}) {
        ::setenv("HDLS_METRICS_PERIOD_MS", bad, 1);
        EXPECT_THROW((void)metrics_period_from_env(), std::invalid_argument) << bad;
    }
    ::unsetenv("HDLS_METRICS_PERIOD_MS");
    EXPECT_EQ(metrics_period_from_env(), std::chrono::milliseconds(100));
    EXPECT_EQ(metrics_period_from_env(std::chrono::milliseconds(7)),
              std::chrono::milliseconds(7));
}

TEST(EnvConfigTest, MetricsFileEnvThrowsOnEmptyPath) {
    ::setenv("HDLS_METRICS_FILE", "/tmp/custom.prom", 1);
    EXPECT_EQ(metrics_file_from_env(), "/tmp/custom.prom");
    ::setenv("HDLS_METRICS_FILE", "", 1);
    EXPECT_THROW((void)metrics_file_from_env(), std::invalid_argument);
    ::unsetenv("HDLS_METRICS_FILE");
    EXPECT_EQ(metrics_file_from_env(), "hdls-metrics.prom");
}

TEST(EnvConfigTest, MultiLevelSchedulesParseAndRoundTrip) {
    const auto cfg = parse_schedule("fac2+gss+ss,min_chunk=2");
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->inter, Technique::FAC2);
    EXPECT_EQ(cfg->intra, Technique::SS);
    ASSERT_EQ(cfg->levels.size(), 3u);
    EXPECT_EQ(cfg->levels[1].technique, Technique::GSS);
    EXPECT_FALSE(cfg->levels[1].backend.has_value());
    EXPECT_EQ(cfg->min_chunk, 2);
    EXPECT_EQ(format_schedule(*cfg), "FAC2+GSS+SS,min_chunk=2");
    // Two-part combos keep the classic shape (no levels vector).
    const auto classic = parse_schedule("gss+static");
    ASSERT_TRUE(classic.has_value());
    EXPECT_TRUE(classic->levels.empty());
    EXPECT_FALSE(parse_schedule("gss").has_value());
    EXPECT_FALSE(parse_schedule("gss+bogus+ss").has_value());
}

TEST(EnvConfigTest, MismatchedTopologyProductFailsTheRun) {
    HierConfig cfg;
    cfg.topology = {{"racks", 2}, {"nodes", 2}, {"cores", 2}};
    // 2*2*2 = 8 != 4 nodes x 2 workers = 8? -> use a real mismatch: 3 x 2.
    EXPECT_THROW((void)hdls::parallel_for(ClusterShape{3, 2}, Approach::MpiMpi, cfg, 10,
                                          [](std::int64_t, std::int64_t) {}),
                 std::invalid_argument);
    // minimpi rejects trees whose product disagrees with the world size.
    EXPECT_THROW(minimpi::Runtime::run(
                     6, minimpi::Topology::tree({{"nodes", 2}, {"cores", 2}}),
                     [](minimpi::Context&) {}),
                 std::invalid_argument);
}

}  // namespace
