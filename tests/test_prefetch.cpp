/// \file test_prefetch.cpp
/// Asynchronous chunk prefetching: exact-tiling/replay-parity across the
/// technique x depth x backend grid (prefetch on vs off), termination with
/// a prefetched chunk outstanding, the HDLS_PREFETCH knob, trace hit/miss
/// accounting and the refill counters. Plus the bench JSON report
/// schema.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/json_report.hpp"
#include "core/hdls.hpp"

namespace {

using hdls::core::Approach;
using hdls::core::ClusterShape;
using hdls::core::HierConfig;
using hdls::core::LevelConfig;
using hdls::dls::InterBackend;
using hdls::dls::Technique;
using minimpi::TopologyLevel;

// ------------------------------------------------------- real executors ----

/// Runs the loop and asserts every iteration executed exactly once.
void expect_exact_tiling(const ClusterShape& shape, Approach approach, const HierConfig& cfg,
                         std::int64_t n) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    const auto report = hdls::parallel_for(shape, approach, cfg, n,
                                           [&](std::int64_t b, std::int64_t e) {
                                               for (std::int64_t i = b; i < e; ++i) {
                                                   hits[static_cast<std::size_t>(i)]
                                                       .fetch_add(1, std::memory_order_relaxed);
                                               }
                                           });
    EXPECT_EQ(report.executed_iterations(), n);
    for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "iteration " << i << " (prefetch=" << cfg.prefetch << ")";
    }
}

/// Executes the loop and returns the sorted multiset of leaf sub-chunks.
[[nodiscard]] std::vector<std::pair<std::int64_t, std::int64_t>> executed_chunks(
    const ClusterShape& shape, const HierConfig& cfg, std::int64_t n) {
    std::mutex mu;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    const auto report = hdls::parallel_for(shape, Approach::MpiMpi, cfg, n,
                                           [&](std::int64_t b, std::int64_t e) {
                                               const std::lock_guard<std::mutex> lock(mu);
                                               chunks.emplace_back(b, e);
                                           });
    EXPECT_EQ(report.executed_iterations(), n);
    std::sort(chunks.begin(), chunks.end());
    return chunks;
}

TEST(PrefetchParityTest, PrefetchedRunsYieldTheSynchronousChunkMultiset) {
    // Centralized backends produce run-invariant chunk multisets (the step
    // counter serializes size decisions), so prefetch on vs off must match
    // exactly — the double buffer only reorders *who* pops, never *what*.
    struct Case {
        ClusterShape shape;
        std::vector<TopologyLevel> tree;
        std::vector<LevelConfig> levels;
    };
    const std::vector<Case> cases = {
        {{4, 4}, {}, {}},  // classic two-level defaults (GSS+GSS)
        {{3, 2},
         {{"nodes", 3}, {"cores", 2}},
         {{Technique::TSS, std::nullopt}, {Technique::SS, std::nullopt}}},
        {{4, 2},
         {{"nodes", 4}, {"cores", 2}},
         {{Technique::WF, std::nullopt}, {Technique::GSS, std::nullopt}}},
        {{6, 2},
         {{"racks", 2}, {"nodes", 3}, {"cores", 2}},
         {{Technique::FAC2, std::nullopt},
          {Technique::GSS, std::nullopt},
          {Technique::SS, std::nullopt}}},
    };
    for (const Case& c : cases) {
        for (const std::int64_t n : {std::int64_t{103}, std::int64_t{3000}}) {
            HierConfig off;
            off.topology = c.tree;
            off.levels = c.levels;
            HierConfig on = off;
            on.prefetch = true;
            SCOPED_TRACE("depth=" + std::to_string(std::max<std::size_t>(c.tree.size(), 2)) +
                         " n=" + std::to_string(n));
            EXPECT_EQ(executed_chunks(c.shape, on, n), executed_chunks(c.shape, off, n));
        }
    }
}

TEST(PrefetchTilingTest, ExactTilingAcrossBackendsDepthsAndApproaches) {
    // The sharded backends steal nondeterministically, so the multiset is
    // run-dependent — the invariant is exact tiling, prefetch on or off.
    struct Case {
        ClusterShape shape;
        Approach approach;
        std::vector<TopologyLevel> tree;
        std::vector<LevelConfig> levels;
    };
    const std::vector<Case> cases = {
        {{4, 3}, Approach::MpiMpi, {}, {}},
        // sharded root
        {{4, 2},
         Approach::MpiMpi,
         {{"nodes", 4}, {"cores", 2}},
         {{Technique::GSS, InterBackend::Sharded}, {Technique::SS, std::nullopt}}},
        // depth 3 with a sharded middle relay
        {{6, 3},
         Approach::MpiMpi,
         {{"racks", 3}, {"nodes", 2}, {"cores", 3}},
         {{Technique::TSS, std::nullopt},
          {Technique::GSS, InterBackend::Sharded},
          {Technique::GSS, std::nullopt}}},
        // depth 4, mixed backends
        {{8, 2},
         Approach::MpiMpi,
         {{"racks", 2}, {"nodes", 2}, {"sockets", 2}, {"cores", 2}},
         {{Technique::GSS, InterBackend::Sharded},
          {Technique::FAC2, InterBackend::Sharded},
          {Technique::GSS, std::nullopt},
          {Technique::SS, std::nullopt}}},
        // hybrid executor over a deep tree (prefetch rides the relay chain)
        {{6, 4},
         Approach::MpiOpenMp,
         {{"racks", 2}, {"nodes", 3}, {"cores", 4}},
         {{Technique::FAC2, std::nullopt},
          {Technique::GSS, std::nullopt},
          {Technique::GSS, std::nullopt}}},
    };
    for (const Case& c : cases) {
        for (const std::int64_t n : {std::int64_t{0}, std::int64_t{1}, std::int64_t{103},
                                     std::int64_t{1500}}) {
            HierConfig cfg;
            cfg.topology = c.tree;
            cfg.levels = c.levels;
            cfg.prefetch = true;
            SCOPED_TRACE("n=" + std::to_string(n));
            expect_exact_tiling(c.shape, c.approach, cfg, n);
        }
    }
}

TEST(PrefetchTilingTest, AdaptiveRootKeepsFeedbackOrderingAndTiles) {
    // AWF-* roots gate the prefetcher off the refill boundary; the run must
    // still tile exactly and terminate (slot-only prefetching).
    for (const Technique inter : {Technique::AWFB, Technique::AWFD}) {
        HierConfig cfg;
        cfg.inter = inter;
        cfg.intra = Technique::GSS;
        cfg.prefetch = true;
        SCOPED_TRACE(std::string(hdls::dls::technique_name(inter)));
        expect_exact_tiling(ClusterShape{4, 4}, Approach::MpiMpi, cfg, 2000);
    }
}

TEST(PrefetchTerminationTest, TerminatesWithAPrefetchedChunkOutstanding) {
    // Tiny loops: the last chunk is routinely sitting in somebody's
    // prefetch slot while every other rank runs the termination protocol
    // (queue drained, no refill in flight, parent dry). The run must not
    // hang, lose the slot's chunk, or double-execute it — across enough
    // repetitions to hit the race windows.
    for (int rep = 0; rep < 20; ++rep) {
        for (const std::int64_t n : {std::int64_t{1}, std::int64_t{2}, std::int64_t{7}}) {
            HierConfig cfg;
            cfg.inter = Technique::SS;  // one root chunk per acquisition
            cfg.intra = Technique::SS;
            cfg.prefetch = true;
            expect_exact_tiling(ClusterShape{2, 2}, Approach::MpiMpi, cfg, n);
        }
    }
    // A slow last chunk: one rank executes while its peers terminate
    // against the raised-and-resolved refill announcements.
    HierConfig cfg;
    cfg.inter = Technique::SS;
    cfg.intra = Technique::SS;
    cfg.prefetch = true;
    std::atomic<std::int64_t> sum{0};
    const auto report = hdls::parallel_for(
        ClusterShape{2, 2}, Approach::MpiMpi, cfg, 9, [&](std::int64_t b, std::int64_t e) {
            if (b >= 8) {
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
            sum.fetch_add(e - b);
        });
    EXPECT_EQ(report.executed_iterations(), 9);
    EXPECT_EQ(sum.load(), 9);
}

TEST(PrefetchEnvTest, HdlsPrefetchParsesStrictly) {
    using hdls::core::prefetch_from_env;
    ::unsetenv("HDLS_PREFETCH");
    EXPECT_FALSE(prefetch_from_env());
    EXPECT_TRUE(prefetch_from_env(true));  // fallback when unset
    ::setenv("HDLS_PREFETCH", "1", 1);
    EXPECT_TRUE(prefetch_from_env());
    ::setenv("HDLS_PREFETCH", "on", 1);
    EXPECT_TRUE(prefetch_from_env());
    ::setenv("HDLS_PREFETCH", "FALSE", 1);
    EXPECT_FALSE(prefetch_from_env(true));
    ::setenv("HDLS_PREFETCH", "0", 1);
    EXPECT_FALSE(prefetch_from_env(true));
    ::setenv("HDLS_PREFETCH", "maybe", 1);
    EXPECT_THROW((void)prefetch_from_env(), std::invalid_argument);
    ::unsetenv("HDLS_PREFETCH");
}

TEST(PrefetchTraceTest, EveryAcquireRecordsOneHitOrMiss) {
    HierConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::GSS;
    cfg.prefetch = true;
    cfg.trace = true;
    cfg.trace_capacity = 1 << 16;
    std::atomic<std::int64_t> sum{0};
    const auto report = hdls::parallel_for(ClusterShape{2, 4}, Approach::MpiMpi, cfg, 4000,
                                           [&](std::int64_t b, std::int64_t e) {
                                               sum.fetch_add(e - b);
                                           });
    EXPECT_EQ(sum.load(), 4000);
    ASSERT_NE(report.trace, nullptr);
    ASSERT_EQ(report.trace->dropped(), 0);
    EXPECT_TRUE(report.prefetch);

    std::int64_t hits = 0;
    std::int64_t misses = 0;
    for (const auto& e : report.trace->events) {
        if (e.kind == hdls::trace::EventKind::Prefetch) {
            (e.a != 0 ? hits : misses) += 1;
            EXPECT_GE(e.wait, 0.0);
        }
    }
    // One Prefetch outcome per chunk the top source handed out.
    EXPECT_EQ(hits + misses, report.executed_chunks());
    EXPECT_GT(hits, 0);    // steady state serves from the slot
    EXPECT_GT(misses, 0);  // each rank's first acquire has an empty slot

    const auto analysis = hdls::trace::analyze(*report.trace);
    EXPECT_EQ(analysis.prefetch_hits, hits);
    EXPECT_EQ(analysis.prefetch_misses, misses);
    EXPECT_GE(analysis.prefetch_hidden_seconds, 0.0);
    EXPECT_GT(analysis.prefetch_hit_rate(), 0.0);
    EXPECT_LE(analysis.prefetch_hit_rate(), 1.0);
}

TEST(PrefetchTraceTest, DisabledRunsRecordNoPrefetchEvents) {
    HierConfig cfg;
    cfg.trace = true;
    const auto report = hdls::parallel_for(ClusterShape{2, 2}, Approach::MpiMpi, cfg, 500,
                                           [](std::int64_t, std::int64_t) {});
    ASSERT_NE(report.trace, nullptr);
    EXPECT_FALSE(report.prefetch);
    for (const auto& e : report.trace->events) {
        EXPECT_NE(e.kind, hdls::trace::EventKind::Prefetch);
    }
    const auto analysis = hdls::trace::analyze(*report.trace);
    EXPECT_EQ(analysis.prefetch_hits + analysis.prefetch_misses, 0);
}

TEST(RefillAccountingTest, TraceEventsMatchTheRefillCountersPerLevel) {
    // The synchronous loop and the prefetcher share one refill
    // transaction. Per level, every RefillBegin has its RefillEnd, and a
    // refill that pulled a parent chunk is exactly one non-empty RefillEnd,
    // one hdls_sched_refills_total increment and, at the chain's top, one
    // WorkerStats::global_refills.
    const std::vector<std::vector<TopologyLevel>> trees = {
        {{"nodes", 2}, {"cores", 2}}, {{"racks", 2}, {"nodes", 2}, {"cores", 2}}};
    for (const auto& tree : trees) {
        const int depth = static_cast<int>(tree.size());
        std::vector<std::pair<std::int64_t, std::int64_t>> sync_chunks;
        for (const bool prefetch : {false, true}) {
            SCOPED_TRACE("depth=" + std::to_string(depth) +
                         " prefetch=" + std::to_string(prefetch));
            HierConfig cfg;
            cfg.inter = Technique::GSS;
            cfg.intra = Technique::SS;
            cfg.topology = tree;
            cfg.prefetch = prefetch;
            cfg.trace = true;
            std::mutex mu;
            std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
            const auto report = hdls::parallel_for(hdls::core::shape_from_topology(tree),
                                                   Approach::MpiMpi, cfg, 1500,
                                                   [&](std::int64_t b, std::int64_t e) {
                                                       const std::lock_guard<std::mutex> lock(mu);
                                                       chunks.emplace_back(b, e);
                                                   });
            ASSERT_NE(report.trace, nullptr);
            ASSERT_EQ(report.trace->dropped(), 0);
            std::sort(chunks.begin(), chunks.end());
            if (prefetch) {
                EXPECT_EQ(chunks, sync_chunks);
            } else {
                sync_chunks = chunks;
            }
            for (int level = 1; level < depth; ++level) {
                std::int64_t begins = 0;
                std::int64_t ends = 0;
                std::int64_t filled = 0;
                for (const auto& e : report.trace->events) {
                    if (e.level != level) {
                        continue;
                    }
                    if (e.kind == hdls::trace::EventKind::RefillBegin) {
                        ++begins;
                    } else if (e.kind == hdls::trace::EventKind::RefillEnd) {
                        ++ends;
                        filled += e.b > 0 ? 1 : 0;
                    }
                }
                SCOPED_TRACE("level " + std::to_string(level));
                EXPECT_EQ(begins, ends);
                EXPECT_GT(filled, 0);
                const auto* refills = report.metrics.find(
                    "hdls_sched_refills_total", {{"level", std::to_string(level)}});
                ASSERT_NE(refills, nullptr);
                EXPECT_EQ(refills->value, static_cast<std::uint64_t>(filled));
                if (level == depth - 1) {
                    EXPECT_EQ(report.global_chunks(), filled);  // Σ global_refills
                }
            }
        }
    }
}

// ------------------------------------------------------------ json report --

TEST(JsonReportTest, RendersParamsPointsAndSummaryStats) {
    hdls::bench::JsonReport report("bench_unit_test");
    report.add_param("scale", 0.5);
    report.add_param("label", "a \"quoted\" value");
    report.point()
        .label("nodes", std::int64_t{32})
        .sample("t_s", 1.0)
        .sample("t_s", 3.0)
        .sample("t_s", 2.0);
    const std::string doc = report.render();
    EXPECT_NE(doc.find("\"name\":\"bench_unit_test\""), std::string::npos);
    EXPECT_NE(doc.find("\"scale\":\"0.5\""), std::string::npos);
    EXPECT_NE(doc.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(doc.find("\"nodes\":\"32\""), std::string::npos);
    // util::summarize over {1,3,2}: median 2, count 3, min 1, max 3.
    EXPECT_NE(doc.find("\"count\":3"), std::string::npos);
    EXPECT_NE(doc.find("\"median\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"min\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"max\":3"), std::string::npos);
    EXPECT_NE(doc.find("\"values\":[1,3,2]"), std::string::npos);
}

TEST(JsonReportTest, WriteFailureThrows) {
    hdls::bench::JsonReport report("bench_unit_test");
    EXPECT_THROW(report.write("/nonexistent-dir/nope.json"), std::runtime_error);
}

}  // namespace
