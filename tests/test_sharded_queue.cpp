/// \file test_sharded_queue.cpp
/// The sharded inter-node backend: exact-tiling property grid across
/// techniques x (N, cluster shape, weights), concurrent steal storms with
/// a deliberately slow node, termination with all-but-one node idle, the
/// shard-partition arithmetic, backend selection (factory fallback, env
/// knob, report plumbing) and sim/real mirroring (Steal events, determinism,
/// per-acquire latency).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/hdls.hpp"
#include "core/sharded_queue.hpp"
#include "dls/sharding.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace hdls::core;
using hdls::dls::InterBackend;
using hdls::dls::Technique;

// ---------------------------------------------------- shard arithmetic

TEST(ShardPartitionTest, SumsExactlyAndFollowsWeights) {
    using hdls::dls::shard_partition;
    for (const std::int64_t n : {0LL, 1LL, 7LL, 1000LL, 12345LL}) {
        for (const int nodes : {1, 2, 3, 8}) {
            const auto equal = shard_partition(n, {}, nodes);
            ASSERT_EQ(equal.size(), static_cast<std::size_t>(nodes));
            std::int64_t sum = 0;
            for (const auto s : equal) {
                EXPECT_GE(s, 0);
                sum += s;
            }
            EXPECT_EQ(sum, n) << n << " over " << nodes;
            // Equal weights: sizes differ by at most one iteration.
            for (const auto s : equal) {
                EXPECT_LE(std::abs(s - equal[0]), 1);
            }
        }
    }
    // 3:1 weights hand node 0 three quarters of the space (+-1 iteration).
    const auto skewed = hdls::dls::shard_partition(1000, {3.0, 1.0}, 2);
    EXPECT_EQ(skewed[0] + skewed[1], 1000);
    EXPECT_NEAR(static_cast<double>(skewed[0]), 750.0, 1.0);
    // A zero-weight node gets an empty shard.
    const auto starved = hdls::dls::shard_partition(100, {0.0, 1.0, 1.0}, 3);
    EXPECT_EQ(starved[0], 0);
    EXPECT_EQ(starved[0] + starved[1] + starved[2], 100);
    EXPECT_THROW((void)hdls::dls::shard_partition(10, {1.0}, 2), std::invalid_argument);
    EXPECT_THROW((void)hdls::dls::shard_partition(10, {-1.0, 1.0}, 2),
                 std::invalid_argument);
}

TEST(ShardPartitionTest, StealAmountHalvesAndDrains) {
    using hdls::dls::steal_amount;
    EXPECT_EQ(steal_amount(0, 1), 0);
    EXPECT_EQ(steal_amount(-5, 1), 0);
    EXPECT_EQ(steal_amount(100, 1), 50);
    EXPECT_EQ(steal_amount(101, 1), 51);  // ceil half
    EXPECT_EQ(steal_amount(1, 1), 1);     // last crumb goes whole
    EXPECT_EQ(steal_amount(16, 16), 16);  // <= min_chunk goes whole
    EXPECT_EQ(steal_amount(17, 16), 9);
}

TEST(ShardPartitionTest, ShardedFormsAndNames) {
    using namespace hdls::dls;
    for (const Technique t : {Technique::Static, Technique::SS, Technique::GSS,
                              Technique::TSS, Technique::FAC2, Technique::WF}) {
        EXPECT_TRUE(supports_sharded(t)) << technique_name(t);
    }
    for (const Technique t : {Technique::FAC, Technique::AWFB, Technique::AWFC,
                              Technique::AWFD, Technique::AWFE}) {
        EXPECT_FALSE(supports_sharded(t)) << technique_name(t);
    }
    EXPECT_EQ(shard_formula(Technique::WF), Technique::FAC2);
    EXPECT_EQ(shard_formula(Technique::GSS), Technique::GSS);
    EXPECT_THROW((void)shard_formula(Technique::AWFB), std::invalid_argument);
    EXPECT_EQ(inter_backend_from_string("SHARDED"), InterBackend::Sharded);
    EXPECT_EQ(inter_backend_from_string("centralized"), InterBackend::Centralized);
    EXPECT_FALSE(inter_backend_from_string("bogus").has_value());
    EXPECT_EQ(inter_backend_name(InterBackend::Sharded), "sharded");
}

// ------------------------------------------------ exact-tiling property

/// Every rank hammers the sharded queue; iteration i must be handed out
/// exactly once and the sum must be N, no matter how steals interleave.
void sharded_tiling(Technique inter, int ranks, int ranks_per_node, std::int64_t n,
                    std::vector<double> weights = {}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    std::atomic<std::int64_t> total{0};
    minimpi::Runtime::run(ranks, minimpi::Topology{ranks_per_node, {}},
                          [&](minimpi::Context& ctx) {
        HierConfig cfg;
        cfg.inter = inter;
        cfg.inter_backend = InterBackend::Sharded;
        cfg.node_weights = weights;
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

TEST(ShardedQueueTest, ExactTilingPropertyGrid) {
    const std::vector<Technique> techniques = {
        Technique::Static, Technique::SS,   Technique::FSC,  Technique::GSS, Technique::TSS,
        Technique::FAC2,   Technique::TFSS, Technique::RND,  Technique::WF};
    const std::vector<std::int64_t> loop_sizes = {0, 1, 7, 1000, 12345};
    struct Shape {
        int ranks;
        int ranks_per_node;
    };
    const std::vector<Shape> shapes = {{1, 1}, {4, 2}, {6, 2}};
    for (const Technique t : techniques) {
        for (const std::int64_t n : loop_sizes) {
            for (const Shape s : shapes) {
                sharded_tiling(t, s.ranks, s.ranks_per_node, n);
            }
        }
    }
    // Weighted shards (3:1 and a starved node) across representative
    // techniques — WF is the one whose semantics the weights carry.
    for (const Technique t : {Technique::WF, Technique::GSS, Technique::SS}) {
        sharded_tiling(t, 4, 2, 5000, {3.0, 1.0});
        sharded_tiling(t, 6, 2, 5000, {0.0, 1.0, 2.0});
    }
}

// --------------------------------------------------------- steal storms

TEST(ShardedQueueTest, StealStormDrainsAWeightedSlowNode) {
    // Node 0 holds 4/5 of the space but executes chunks 50x slower: the
    // other nodes must drain it through concurrent half-remainder steals
    // while the tiling stays exact.
    constexpr std::int64_t kN = 20000;
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<std::int64_t> total{0};
    std::atomic<std::int64_t> stolen_total{0};
    minimpi::Runtime::run(8, minimpi::Topology{2, {}}, [&](minimpi::Context& ctx) {
        ShardedInterQueue q(ctx.world(), kN, Technique::GSS, ctx.nodes(), ctx.node(), 1,
                            {4.0, 1.0, 1.0, 1.0} /* node 0: 4x the shard */);
        std::int64_t mine = 0;
        while (const auto c = q.try_acquire()) {
            for (std::int64_t i = c->start; i < c->start + c->size; ++i) {
                hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
            }
            mine += c->size;
            if (ctx.node() == 0) {
                std::this_thread::sleep_for(std::chrono::microseconds(500));
            }
        }
        total.fetch_add(mine, std::memory_order_relaxed);
        stolen_total.fetch_add(q.stolen(), std::memory_order_relaxed);
        // Drained everywhere: no shard holds unassigned work any more.
        for (int j = 0; j < ctx.nodes(); ++j) {
            EXPECT_EQ(q.remaining_of(j), 0);
        }
        q.free();
    });
    EXPECT_EQ(total.load(), kN);
    for (std::int64_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "iteration " << i;
    }
    EXPECT_GT(stolen_total.load(), 0) << "fast nodes never stole from the slow shard";
}

TEST(ShardedQueueTest, TerminationWithAllButOneNodeIdle) {
    // Three of four nodes own empty shards: their ranks live entirely off
    // steals and must still terminate; the loop must tile exactly.
    constexpr std::int64_t kN = 4000;
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<std::int64_t> total{0};
    minimpi::Runtime::run(8, minimpi::Topology{2, {}}, [&](minimpi::Context& ctx) {
        ShardedInterQueue q(ctx.world(), kN, Technique::FAC2, ctx.nodes(), ctx.node(), 1,
                            {0.0, 0.0, 0.0, 1.0});
        EXPECT_EQ(q.shard_size(0), 0);
        EXPECT_EQ(q.shard_size(3), kN);
        while (const auto c = q.try_acquire()) {
            for (std::int64_t i = c->start; i < c->start + c->size; ++i) {
                hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
            }
            total.fetch_add(c->size, std::memory_order_relaxed);
        }
        q.free();
    });
    EXPECT_EQ(total.load(), kN);
    for (std::int64_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "iteration " << i;
    }
    // Degenerate loops terminate too (every rank sees nullopt immediately).
    minimpi::Runtime::run(4, minimpi::Topology{1, {}}, [](minimpi::Context& ctx) {
        ShardedInterQueue empty(ctx.world(), 0, Technique::GSS, ctx.nodes(), ctx.node(), 1);
        EXPECT_FALSE(empty.try_acquire().has_value());
        empty.free();
        ShardedInterQueue one(ctx.world(), 1, Technique::GSS, ctx.nodes(), ctx.node(), 1);
        std::int64_t seen = 0;
        while (const auto c = one.try_acquire()) {
            seen += c->size;
        }
        EXPECT_LE(seen, 1);
        one.free();
    });
}

TEST(ShardedQueueTest, ConstructorRejectsBadArguments) {
    minimpi::Runtime::run(1, [](minimpi::Context& ctx) {
        EXPECT_THROW(ShardedInterQueue(ctx.world(), 10, Technique::AWFB, 2, 0, 1),
                     minimpi::Error);  // no sharded form
        EXPECT_THROW(ShardedInterQueue(ctx.world(), 10, Technique::GSS, 2, 5, 1),
                     minimpi::Error);  // node out of range
        EXPECT_THROW(ShardedInterQueue(ctx.world(), 10, Technique::GSS, 2, 0, 0),
                     minimpi::Error);  // min_chunk < 1
        EXPECT_THROW(ShardedInterQueue(ctx.world(), 10, Technique::WF, 2, 0, 1, {1.0}),
                     minimpi::Error);  // weights size mismatch
    });
}

// --------------------------------------------- backend selection plumbing

TEST(ShardedBackendTest, FactoryFallsBackToCentralizedForAdaptive) {
    minimpi::Runtime::run(2, minimpi::Topology{1, {}}, [](minimpi::Context& ctx) {
        HierConfig cfg;
        cfg.inter = Technique::AWFB;
        cfg.inter_backend = InterBackend::Sharded;
        const auto q = make_inter_queue(ctx.world(), 1000, cfg, ctx.nodes(), ctx.node());
        // The centralized adaptive queue serves AWF-B: feedback matters.
        EXPECT_TRUE(q->wants_feedback());
        std::int64_t covered = 0;
        while (const auto c = q->try_acquire()) {
            covered += c->size;
            EXPECT_FALSE(c->stolen);
        }
        ctx.world().barrier();
        q->free();
    });
}

TEST(ShardedBackendTest, EnvKnobSelectsTheBackend) {
    ::setenv("HDLS_INTER_BACKEND", "sharded", 1);
    EXPECT_EQ(inter_backend_from_env(), InterBackend::Sharded);
    ::setenv("HDLS_INTER_BACKEND", "CENTRALIZED", 1);
    EXPECT_EQ(inter_backend_from_env(InterBackend::Sharded), InterBackend::Centralized);
    // A malformed value throws instead of silently falling back: an
    // unknown backend would change what the run measures.
    ::setenv("HDLS_INTER_BACKEND", "nonsense", 1);
    EXPECT_THROW((void)inter_backend_from_env(InterBackend::Sharded), std::invalid_argument);
    ::unsetenv("HDLS_INTER_BACKEND");
    EXPECT_EQ(inter_backend_from_env(), InterBackend::Centralized);
}

TEST(ShardedBackendTest, EndToEndThroughBothExecutors) {
    for (const Approach approach : {Approach::MpiMpi, Approach::MpiOpenMp}) {
        for (const Technique inter : {Technique::GSS, Technique::FAC2, Technique::WF}) {
            constexpr std::int64_t kN = 800;
            std::vector<std::atomic<int>> hits(kN);
            HierConfig cfg;
            cfg.inter = inter;
            cfg.intra = Technique::GSS;
            cfg.inter_backend = InterBackend::Sharded;
            cfg.trace = true;
            const auto report = hdls::parallel_for(
                ClusterShape{2, 3}, approach, cfg, kN, [&](std::int64_t b, std::int64_t e) {
                    for (std::int64_t i = b; i < e; ++i) {
                        hits[static_cast<std::size_t>(i)].fetch_add(
                            1, std::memory_order_relaxed);
                    }
                });
            EXPECT_EQ(report.executed_iterations(), kN);
            EXPECT_EQ(report.inter_backend, InterBackend::Sharded);
            for (std::int64_t i = 0; i < kN; ++i) {
                ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
                    << hdls::dls::technique_name(inter) << "+" << approach_name(approach)
                    << " iteration " << i;
            }
            // Level-1 acquisitions surface as GlobalAcquire or Steal events.
            ASSERT_NE(report.trace, nullptr);
            EXPECT_GT(report.trace->count(hdls::trace::EventKind::GlobalAcquire) +
                          report.trace->count(hdls::trace::EventKind::Steal),
                      0);
        }
    }
}

// ----------------------------------------------------------- simulator

TEST(ShardedSimTest, AllEnginesTileAndStayDeterministic) {
    using namespace hdls::sim;
    ClusterSpec cluster;
    cluster.nodes = 4;
    cluster.workers_per_node = 4;
    const WorkloadTrace trace(std::vector<double>(6000, 1e-5));
    for (const Technique inter : {Technique::GSS, Technique::FAC2, Technique::WF}) {
        for (const ExecModel model : {ExecModel::MpiMpi, ExecModel::MpiOpenMp}) {
            SimConfig cfg;
            cfg.inter = inter;
            cfg.intra = Technique::Static;
            cfg.inter_backend = InterBackend::Sharded;
            const auto r = simulate(model, cluster, cfg, trace);
            EXPECT_EQ(r.executed_iterations(), 6000)
                << hdls::dls::technique_name(inter) << " under " << exec_model_name(model);
            const auto again = simulate(model, cluster, cfg, trace);
            EXPECT_EQ(again.parallel_time, r.parallel_time);
        }
    }
}

TEST(ShardedSimTest, SlowedNodeTriggersStealEvents) {
    using namespace hdls::sim;
    ClusterSpec cluster;
    cluster.nodes = 4;
    cluster.workers_per_node = 4;
    cluster.node_speed = {0.25, 1.0, 1.0, 1.0};
    const WorkloadTrace workload(std::vector<double>(20000, 1e-5));
    SimConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::Static;
    cfg.inter_backend = InterBackend::Sharded;
    cfg.trace = true;
    const auto r = simulate(ExecModel::MpiMpi, cluster, cfg, workload);
    EXPECT_EQ(r.executed_iterations(), 20000);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_GT(r.trace->count(hdls::trace::EventKind::Steal), 0)
        << "fast nodes should steal from the slowed node's shard";
}

TEST(ShardedSimTest, ShardedAcquiresBeatTheCentralizedQueueAt16Nodes) {
    // The acceptance experiment in miniature (bench_ablation_shard_contention
    // sweeps it): at 16 nodes the centralized rank-0 server serializes every
    // acquisition across the fabric, while shard acquisitions stay node-local.
    using namespace hdls::sim;
    ClusterSpec cluster;
    cluster.nodes = 16;
    cluster.workers_per_node = 4;
    const WorkloadTrace workload(std::vector<double>(60000, 2e-6));
    SimConfig cfg;
    cfg.inter = Technique::SS;  // one acquisition per iteration batch: max pressure
    cfg.intra = Technique::Static;
    cfg.trace = true;
    cfg.min_chunk = 4;
    const auto mean_acquire = [](const SimReport& r) {
        double sum = 0.0;
        std::int64_t count = 0;
        for (const auto& e : r.trace->events) {
            if ((e.kind == hdls::trace::EventKind::GlobalAcquire ||
                 e.kind == hdls::trace::EventKind::Steal) &&
                e.b > 0) {
                sum += e.duration();
                ++count;
            }
        }
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
    };
    cfg.inter_backend = InterBackend::Centralized;
    const auto central = simulate(ExecModel::MpiMpi, cluster, cfg, workload);
    cfg.inter_backend = InterBackend::Sharded;
    const auto sharded = simulate(ExecModel::MpiMpi, cluster, cfg, workload);
    EXPECT_EQ(central.executed_iterations(), sharded.executed_iterations());
    ASSERT_NE(central.trace, nullptr);
    ASSERT_NE(sharded.trace, nullptr);
    EXPECT_LT(mean_acquire(sharded), mean_acquire(central));
}

}  // namespace
