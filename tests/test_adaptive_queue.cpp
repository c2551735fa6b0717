/// \file test_adaptive_queue.cpp
/// The adaptive inter-node scheduling path: AdaptiveGlobalQueue protocol
/// correctness under concurrency (many ranks hammering try_acquire,
/// including a deliberately slow rank), adaptive-rate edge cases
/// (zero-time chunks, silent nodes, single-node clusters, min_chunk
/// clamping), and end-to-end selectability of FAC/WF/AWF-B/C/D/E as
/// HierConfig::inter in both real executors and both sim models.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/hdls.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace hdls::core;
using hdls::dls::Technique;

// ------------------------------------------------- concurrency stress

/// Every rank hammers the queue; iteration i must be handed out exactly
/// once, the slow rank must not break the tiling, and the sum must be N.
void stress_queue(Technique inter, int ranks, int ranks_per_node, std::int64_t n,
                  bool with_reports) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    std::atomic<std::int64_t> total{0};
    minimpi::Runtime::run(ranks, minimpi::Topology{ranks_per_node, {}},
                          [&](minimpi::Context& ctx) {
        HierConfig cfg;
        cfg.inter = inter;
        const auto q = make_inter_queue(ctx.world(), n, cfg, ctx.nodes(), ctx.node());
        std::int64_t mine = 0;
        while (const auto c = q->try_acquire()) {
            ASSERT_GT(c->size, 0);
            ASSERT_GE(c->start, 0);
            ASSERT_LE(c->start + c->size, n);
            for (std::int64_t i = c->start; i < c->start + c->size; ++i) {
                hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
            }
            mine += c->size;
            if (with_reports) {
                // Rank 0 is the deliberately slow one: it executes (and
                // reports) 20x slower, so AWF rates diverge while the
                // protocol must stay exact.
                const double seconds = ctx.rank() == 0 ? 2e-3 : 1e-4;
                q->report(c->size, seconds * static_cast<double>(c->size), 1e-6);
            }
            if (ctx.rank() == 0) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        }
        total.fetch_add(mine, std::memory_order_relaxed);
        q->free();
    });
    EXPECT_EQ(total.load(), n);
    for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << hdls::dls::technique_name(inter) << ": iteration " << i;
    }
}

TEST(QueueStressTest, StepIndexedQueueUnderConcurrentHammering) {
    stress_queue(Technique::GSS, 8, 2, 20000, false);
    stress_queue(Technique::FAC2, 8, 4, 20000, false);
    stress_queue(Technique::SS, 6, 3, 1500, false);
}

TEST(QueueStressTest, AdaptiveQueueUnderConcurrentHammering) {
    stress_queue(Technique::FAC, 8, 2, 20000, false);
    stress_queue(Technique::WF, 8, 4, 20000, false);
    stress_queue(Technique::AWFB, 8, 2, 20000, true);
    stress_queue(Technique::AWFC, 6, 3, 20000, true);
    stress_queue(Technique::AWFE, 8, 4, 20000, true);
}

// --------------------------------------------------- protocol details

TEST(AdaptiveQueueTest, DrainsExactlyAndCountsSteps) {
    minimpi::Runtime::run(1, [](minimpi::Context& ctx) {
        constexpr std::int64_t kN = 10000;
        AdaptiveGlobalQueue q(ctx.world(), kN, Technique::FAC, /*level_workers=*/4,
                              /*node=*/0, /*min_chunk=*/1);
        EXPECT_EQ(q.remaining(), kN);
        std::int64_t covered = 0;
        std::int64_t step = 0;
        while (const auto c = q.try_acquire()) {
            EXPECT_EQ(c->step, step++);
            EXPECT_EQ(c->start, covered);  // serial drain: contiguous
            covered += c->size;
        }
        EXPECT_EQ(covered, kN);
        EXPECT_EQ(q.remaining(), 0);
        EXPECT_EQ(q.acquired(), step);
        q.free();
    });
}

TEST(AdaptiveQueueTest, WfStaticWeightsScaleChunks) {
    minimpi::Runtime::run(1, [](minimpi::Context& ctx) {
        constexpr std::int64_t kN = 8000;
        // Node 0 is 3x the speed of node 1: its first chunk must be ~3x.
        AdaptiveGlobalQueue fast(ctx.world(), kN, Technique::WF, 2, 0, 1, {3.0, 1.0});
        const auto big = fast.try_acquire();
        ASSERT_TRUE(big);
        fast.free();
        AdaptiveGlobalQueue slow(ctx.world(), kN, Technique::WF, 2, 1, 1, {3.0, 1.0});
        const auto small = slow.try_acquire();
        ASSERT_TRUE(small);
        slow.free();
        // Weighted halving batch: fast ~ N/2 * 1.5 / 2, slow ~ N/2 * 0.5 / 2.
        EXPECT_GT(big->size, 2 * small->size);
    });
}

TEST(AdaptiveQueueTest, AwfWeightsShiftWorkTowardsTheFastNode) {
    minimpi::Runtime::run(2, minimpi::Topology{1, {}}, [](minimpi::Context& ctx) {
        constexpr std::int64_t kN = 100000;
        AdaptiveGlobalQueue q(ctx.world(), kN, Technique::AWFC, 2, ctx.node(), 1);
        // Seed feedback: node 0 runs 4x faster than node 1.
        if (ctx.rank() == 0) {
            q.report(1000, 0.1, 0.0);
        } else {
            q.report(1000, 0.4, 0.0);
        }
        ctx.world().barrier();
        const auto c = q.try_acquire();
        ASSERT_TRUE(c);
        // Both nodes see rates (10000 vs 2500); weights 1.6 vs 0.4.
        if (ctx.rank() == 0) {
            EXPECT_GT(c->size, kN / 4);  // ~ (N/2) * 1.6 / 2 = 0.4 N
        } else {
            EXPECT_LT(c->size, kN / 4);  // ~ (N/2) * 0.4 / 2 = 0.1 N
        }
        const auto fb = q.feedback_of(ctx.node() == 0 ? 1 : 0);
        EXPECT_EQ(fb.iterations, 1000);  // peers' reports are visible
        ctx.world().barrier();
        q.free();
    });
}

// ------------------------------------------------- adaptive-rate edges

TEST(AdaptiveEdgeTest, ZeroTimeChunksKeepNeutralWeights) {
    minimpi::Runtime::run(1, [](minimpi::Context& ctx) {
        constexpr std::int64_t kN = 5000;
        AdaptiveGlobalQueue q(ctx.world(), kN, Technique::AWFE, 3, 0, 1);
        std::int64_t covered = 0;
        while (const auto c = q.try_acquire()) {
            covered += c->size;
            q.report(c->size, 0.0, 0.0);  // infinitely fast chunks: no rate
        }
        EXPECT_EQ(covered, kN);
        // Zero-time reports never became a rate: iterations accumulate but
        // the weight derivation must have stayed neutral (no NaN/inf blowup
        // and exact drain above proves the chunks stayed sane).
        EXPECT_EQ(q.feedback_of(0).iterations, kN);
        EXPECT_EQ(q.feedback_of(0).compute_seconds, 0.0);
        q.free();
    });
}

TEST(AdaptiveEdgeTest, SilentNodeGetsNeutralWeight) {
    using hdls::dls::NodeFeedback;
    // Node 1 never reported a chunk: its weight is the neutral 1.0 and the
    // observed nodes' weights are normalized around it.
    std::vector<NodeFeedback> fb(3);
    fb[0] = {.iterations = 4000, .compute_seconds = 1.0, .overhead_seconds = 0.0};
    fb[2] = {.iterations = 1000, .compute_seconds = 1.0, .overhead_seconds = 0.0};
    const auto w = hdls::dls::awf_weights(Technique::AWFB, fb);
    ASSERT_EQ(w.size(), 3u);
    EXPECT_GT(w[0], w[1]);
    EXPECT_GT(w[1], w[2]);
    double sum = 0.0;
    for (const double x : w) {
        sum += x;
    }
    EXPECT_NEAR(sum, 3.0, 1e-9);  // mean-1 normalization
    // No feedback at all: everyone neutral.
    const auto bootstrap = hdls::dls::awf_weights(
        Technique::AWFB, std::vector<NodeFeedback>(4));
    for (const double x : bootstrap) {
        EXPECT_EQ(x, 1.0);
    }
}

TEST(AdaptiveEdgeTest, SingleNodeClusterDrainsExactly) {
    for (const Technique t : {Technique::FAC, Technique::WF, Technique::AWFB,
                              Technique::AWFD}) {
        minimpi::Runtime::run(1, [t](minimpi::Context& ctx) {
            AdaptiveGlobalQueue q(ctx.world(), 777, t, /*level_workers=*/1, 0, 1);
            std::int64_t covered = 0;
            while (const auto c = q.try_acquire()) {
                covered += c->size;
                q.report(c->size, 1e-5, 1e-7);
            }
            EXPECT_EQ(covered, 777);
            q.free();
        });
    }
}

TEST(AdaptiveEdgeTest, MinChunkClampsRenormalizedAwfWeights) {
    minimpi::Runtime::run(1, [](minimpi::Context& ctx) {
        constexpr std::int64_t kN = 4000;
        constexpr std::int64_t kMin = 16;
        // This node is catastrophically slow: weight -> ~0 after the first
        // refresh. min_chunk must keep every chunk at >= 16 regardless.
        AdaptiveGlobalQueue q(ctx.world(), kN, Technique::AWFC, 4, 0, kMin);
        q.report(10, 10.0, 0.0);     // own rate: 1 iter/s
        std::int64_t covered = 0;
        while (const auto c = q.try_acquire()) {
            EXPECT_GE(c->size, std::min<std::int64_t>(kMin, kN - covered));
            covered += c->size;
        }
        EXPECT_EQ(covered, kN);
        q.free();
    });
}

TEST(AdaptiveEdgeTest, ConstructorRejectsBadArguments) {
    minimpi::Runtime::run(1, [](minimpi::Context& ctx) {
        EXPECT_THROW(AdaptiveGlobalQueue(ctx.world(), 10, Technique::GSS, 2, 0, 1),
                     minimpi::Error);  // step-indexed technique: wrong queue
        EXPECT_THROW(AdaptiveGlobalQueue(ctx.world(), 10, Technique::WF, 2, 5, 1),
                     minimpi::Error);  // node out of range
        EXPECT_THROW(AdaptiveGlobalQueue(ctx.world(), 10, Technique::WF, 2, 0, 1, {1.0}),
                     minimpi::Error);  // weights size mismatch
        EXPECT_THROW(AdaptiveGlobalQueue(ctx.world(), 10, Technique::WF, 2, 0, 1,
                                         {-1.0, 1.0}),
                     minimpi::Error);  // negative weight
    });
}

// ------------------------------------------- end-to-end selectability

TEST(AdaptiveExecutorTest, EveryFeedbackTechniqueRunsInBothApproaches) {
    for (const Technique inter : {Technique::FAC, Technique::WF, Technique::AWFB,
                                  Technique::AWFC, Technique::AWFD, Technique::AWFE}) {
        for (const Approach approach : {Approach::MpiMpi, Approach::MpiOpenMp}) {
            constexpr std::int64_t kN = 600;
            std::vector<std::atomic<int>> hits(kN);
            HierConfig cfg;
            cfg.inter = inter;
            cfg.intra = Technique::GSS;
            const auto report = hdls::parallel_for(
                ClusterShape{2, 3}, approach, cfg, kN, [&](std::int64_t b, std::int64_t e) {
                    for (std::int64_t i = b; i < e; ++i) {
                        hits[static_cast<std::size_t>(i)].fetch_add(
                            1, std::memory_order_relaxed);
                    }
                });
            EXPECT_EQ(report.executed_iterations(), kN);
            for (std::int64_t i = 0; i < kN; ++i) {
                ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
                    << hdls::dls::technique_name(inter) << "+" << approach_name(approach)
                    << " iteration " << i;
            }
        }
    }
}

TEST(AdaptiveExecutorTest, AdaptiveRunSurvivesASlowedNode) {
    // One node's iterations are 4x slower (crude induced perturbation);
    // AWF-B must still execute everything exactly once and spread refills.
    HierConfig cfg;
    cfg.inter = Technique::AWFB;
    cfg.intra = Technique::GSS;
    cfg.trace = true;  // exercise FeedbackReport emission too
    std::atomic<std::int64_t> executed{0};
    const auto report = hdls::parallel_for(
        ClusterShape{2, 2}, Approach::MpiMpi, cfg, 400, [&](std::int64_t b, std::int64_t e) {
            executed.fetch_add(e - b, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::microseconds(10 * (e - b)));
        });
    EXPECT_EQ(executed.load(), 400);
    EXPECT_EQ(report.executed_iterations(), 400);
    ASSERT_NE(report.trace, nullptr);
    bool saw_feedback = false;
    for (const auto& e : report.trace->events) {
        if (e.kind == hdls::trace::EventKind::FeedbackReport) {
            saw_feedback = true;
            EXPECT_GT(e.a, 0);  // iterations reported
        }
    }
    EXPECT_TRUE(saw_feedback);
}

/// Both executors count each feedback flush they trace: the run's
/// hdls_exec_feedback_flushes_total delta equals its FeedbackReport events.
TEST(AdaptiveExecutorTest, FeedbackFlushCounterMatchesFeedbackReports) {
    HierConfig cfg;
    cfg.inter = Technique::AWFB;
    cfg.intra = Technique::SS;
    cfg.trace = true;
    for (const Approach approach : {Approach::MpiMpi, Approach::MpiOpenMp}) {
        SCOPED_TRACE(approach_name(approach));
        const auto report = hdls::parallel_for(ClusterShape{2, 2}, approach, cfg, 2000,
                                               [](std::int64_t, std::int64_t) {});
        ASSERT_EQ(report.executed_iterations(), 2000);
        ASSERT_NE(report.trace, nullptr);
        const auto reports = report.trace->count(hdls::trace::EventKind::FeedbackReport);
        EXPECT_GT(reports, 0);
        EXPECT_EQ(report.metrics.counter_total("hdls_exec_feedback_flushes_total"),
                  static_cast<std::uint64_t>(reports));
    }
}

TEST(AdaptiveSimTest, SimRejectsWhatTheRealPathRejects) {
    // Sim/real parity on bad adaptive inputs: FAC with mu=0 would divide
    // by zero (NaN chunks) and negative WF weights would starve a node.
    using namespace hdls::sim;
    ClusterSpec cluster;
    const WorkloadTrace trace(std::vector<double>(100, 1e-5));
    SimConfig cfg;
    cfg.inter = Technique::FAC;
    cfg.fac_mu = 0.0;
    EXPECT_THROW((void)simulate(ExecModel::MpiMpi, cluster, cfg, trace),
                 std::invalid_argument);
    cfg.fac_mu = 1.0;
    cfg.fac_sigma = -1.0;
    EXPECT_THROW((void)simulate(ExecModel::MpiMpi, cluster, cfg, trace),
                 std::invalid_argument);
    cfg.fac_sigma = 0.0;
    cfg.inter = Technique::WF;
    cfg.inter_weights = {1.0, -1.0};
    EXPECT_THROW((void)simulate(ExecModel::MpiMpi, cluster, cfg, trace),
                 std::invalid_argument);

    HierConfig hcfg;
    hcfg.inter = Technique::FAC;
    hcfg.fac_mu = 0.0;
    EXPECT_THROW(validate_combination(ClusterShape{2, 2}, Approach::MpiMpi, hcfg),
                 std::invalid_argument);
    hcfg.fac_mu = 1.0;
    hcfg.inter = Technique::WF;
    hcfg.node_weights = {1.0, -1.0};
    EXPECT_THROW(validate_combination(ClusterShape{2, 2}, Approach::MpiMpi, hcfg),
                 std::invalid_argument);
}

TEST(AdaptiveSimTest, EveryFeedbackTechniqueRunsInAllThreeEngines) {
    using namespace hdls::sim;
    ClusterSpec cluster;
    cluster.nodes = 3;
    cluster.workers_per_node = 4;
    const WorkloadTrace trace(std::vector<double>(3000, 1e-5));
    for (const Technique inter : {Technique::FAC, Technique::WF, Technique::AWFB,
                                  Technique::AWFC, Technique::AWFD, Technique::AWFE}) {
        for (const ExecModel model : {ExecModel::MpiMpi, ExecModel::MpiOpenMp}) {
            SimConfig cfg;
            cfg.inter = inter;
            cfg.intra = Technique::Static;
            const auto report = simulate(model, cluster, cfg, trace);
            EXPECT_EQ(report.executed_iterations(), 3000)
                << hdls::dls::technique_name(inter) << " under " << exec_model_name(model);
            EXPECT_GT(report.parallel_time, 0.0);
        }
    }
}

TEST(AdaptiveSimTest, AwfbBeatsFac2OnFinishCovUnderASlowedNode) {
    // The acceptance experiment of the adaptive path (the bench's second
    // table in miniature): one node at half speed, moderately imbalanced
    // workload — AWF-B must level finish times better than FAC2.
    using namespace hdls::sim;
    ClusterSpec cluster;
    cluster.nodes = 4;
    cluster.workers_per_node = 8;
    cluster.node_speed = {0.5, 1.0, 1.0, 1.0};
    std::vector<double> costs(40000);
    for (std::size_t i = 0; i < costs.size(); ++i) {
        costs[i] = 1e-5 * (1.0 + static_cast<double>(i % 7));
    }
    const WorkloadTrace trace(std::move(costs));
    SimConfig fac2;
    fac2.inter = Technique::FAC2;
    fac2.intra = Technique::Static;
    SimConfig awfb = fac2;
    awfb.inter = Technique::AWFB;
    const auto r_fac2 = simulate(ExecModel::MpiMpi, cluster, fac2, trace);
    const auto r_awfb = simulate(ExecModel::MpiMpi, cluster, awfb, trace);
    EXPECT_EQ(r_fac2.executed_iterations(), r_awfb.executed_iterations());
    EXPECT_LT(r_awfb.finish_cov(), r_fac2.finish_cov());
    // Determinism: the same inputs reproduce the same virtual times.
    const auto r_again = simulate(ExecModel::MpiMpi, cluster, awfb, trace);
    EXPECT_EQ(r_again.parallel_time, r_awfb.parallel_time);
}

}  // namespace
