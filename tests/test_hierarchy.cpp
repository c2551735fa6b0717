/// \file test_hierarchy.cpp
/// Arbitrary-depth scheduling hierarchies: exact tiling across the
/// depth x technique x fan-out grid, depth-2 replay parity with the
/// classic two-level configuration, per-level trace tagging, and the
/// simulator's deep-tree engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "core/hdls.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"

namespace {

using hdls::core::Approach;
using hdls::core::ClusterShape;
using hdls::core::HierConfig;
using hdls::core::LevelConfig;
using hdls::dls::InterBackend;
using hdls::dls::Technique;
using minimpi::TopologyLevel;

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
            << "iteration " << i << " under depth " << report.topology.size();
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

TEST(HierarchyResolveTest, DefaultsToTheClassicTwoLevelTree) {
    HierConfig cfg;
    cfg.inter = Technique::TSS;
    cfg.intra = Technique::SS;
    const auto rh = hdls::core::resolve_hierarchy(ClusterShape{4, 8}, cfg);
    ASSERT_EQ(rh.depth(), 2);
    EXPECT_EQ(rh.tree[0].fan_out, 4);
    EXPECT_EQ(rh.tree[1].fan_out, 8);
    ASSERT_EQ(rh.levels.size(), 2u);
    EXPECT_EQ(rh.levels[0].technique, Technique::TSS);
    EXPECT_EQ(rh.levels[1].technique, Technique::SS);
    EXPECT_FALSE(rh.levels[1].backend.has_value());
}

TEST(HierarchyResolveTest, RejectsInconsistentTrees) {
    HierConfig cfg;
    cfg.topology = {{"racks", 2}, {"nodes", 2}, {"cores", 4}};
    // Product 16 != 2 * 4 = 8 workers.
    EXPECT_THROW((void)hdls::core::resolve_hierarchy(ClusterShape{2, 4}, cfg),
                 std::invalid_argument);
    // Innermost fan-out must equal workers_per_node.
    EXPECT_THROW((void)hdls::core::resolve_hierarchy(ClusterShape{4, 2}, cfg),
                 std::invalid_argument);
    // Fan-out < 1.
    cfg.topology = {{"nodes", 0}, {"cores", 4}};
    EXPECT_THROW((void)hdls::core::resolve_hierarchy(ClusterShape{0, 4}, cfg),
                 std::invalid_argument);
    // A single level is not a hierarchy.
    cfg.topology = {{"cores", 8}};
    EXPECT_THROW((void)hdls::core::resolve_hierarchy(ClusterShape{1, 8}, cfg),
                 std::invalid_argument);
    // Level-config count must match the depth.
    cfg.topology = {{"racks", 2}, {"nodes", 2}, {"cores", 2}};
    cfg.levels = {{Technique::GSS, std::nullopt}, {Technique::GSS, std::nullopt}};
    EXPECT_THROW((void)hdls::core::resolve_hierarchy(ClusterShape{4, 2}, cfg),
                 std::invalid_argument);
    // An interior level needs a step-indexed or sharded form (FAC has
    // neither).
    cfg.levels = {{Technique::GSS, std::nullopt},
                  {Technique::FAC, std::nullopt},
                  {Technique::GSS, std::nullopt}};
    EXPECT_THROW((void)hdls::core::resolve_hierarchy(ClusterShape{4, 2}, cfg),
                 std::invalid_argument);
}

TEST(HierarchyResolveTest, ShardedFallsBackPerLevel) {
    HierConfig cfg;
    cfg.topology = {{"racks", 2}, {"nodes", 2}, {"cores", 2}};
    cfg.inter_backend = InterBackend::Sharded;
    // WF has a sharded form; AWF-B does not and must fall back at level 0.
    cfg.levels = {{Technique::AWFB, std::nullopt},
                  {Technique::WF, std::nullopt},
                  {Technique::SS, std::nullopt}};
    const auto rh = hdls::core::resolve_hierarchy(ClusterShape{4, 2}, cfg);
    EXPECT_EQ(rh.levels[0].backend, InterBackend::Centralized);
    EXPECT_EQ(rh.levels[1].backend, InterBackend::Sharded);
}

TEST(LevelPlanTest, OneResolverServesTheExecutorsAndTheSimulator) {
    using Levels = std::vector<LevelConfig>;
    constexpr auto kCentral = InterBackend::Centralized;
    constexpr auto kSharded = InterBackend::Sharded;
    // Every named technique has a distributed form; an out-of-range value
    // stands in for one without.
    const auto no_distributed_form = static_cast<Technique>(255);
    const std::vector<TopologyLevel> flat = {{"nodes", 2}, {"cores", 4}};
    const std::vector<TopologyLevel> deep = {{"racks", 2}, {"nodes", 2}, {"cores", 2}};
    struct Case {
        const char* name;
        std::vector<TopologyLevel> tree;
        Levels levels;  ///< empty: derived from inter/intra
        Technique inter;
        InterBackend inter_backend;
        Levels expected;  ///< empty: invalid, every front end throws
    };
    const std::vector<Case> cases = {
        {"derived classic plan", flat, {}, Technique::FAC2, kCentral,
         {{Technique::FAC2, kCentral}, {Technique::SS, std::nullopt}}},
        {"backend inheritance", deep,
         {{Technique::GSS, std::nullopt}, {Technique::TSS, kCentral}, {Technique::SS, kSharded}},
         Technique::GSS, kSharded,
         {{Technique::GSS, kSharded}, {Technique::TSS, kCentral}, {Technique::SS, std::nullopt}}},
        {"level-count mismatch", deep,
         {{Technique::GSS, std::nullopt}, {Technique::SS, std::nullopt}}, Technique::GSS,
         kCentral, {}},
        {"root without a distributed form", flat, {}, no_distributed_form, kCentral, {}},
        {"sharded fallback at the root", flat, {}, Technique::AWFB, kSharded,
         {{Technique::AWFB, kCentral}, {Technique::SS, std::nullopt}}},
        // FAC has no sharded form, and the centralized relay it falls back
        // to needs the step-indexed form FAC lacks too.
        {"sharded fallback at an interior level", deep,
         {{Technique::GSS, std::nullopt},
          {Technique::FAC, std::nullopt},
          {Technique::SS, std::nullopt}},
         Technique::GSS, kSharded, {}},
        {"non-step-indexed centralized relay", deep,
         {{Technique::GSS, std::nullopt}, {Technique::WF, kCentral}, {Technique::SS, std::nullopt}},
         Technique::GSS, kCentral, {}},
    };
    const hdls::sim::WorkloadTrace workload(std::vector<double>(64, 1e-6));
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        const ClusterShape shape = hdls::core::shape_from_topology(c.tree);
        HierConfig cfg;
        cfg.topology = c.tree;
        cfg.levels = c.levels;
        cfg.inter = c.inter;
        cfg.intra = Technique::SS;
        cfg.inter_backend = c.inter_backend;
        hdls::sim::ClusterSpec cluster;
        cluster.nodes = shape.nodes;
        cluster.workers_per_node = shape.workers_per_node;
        cluster.tree = c.tree;
        hdls::sim::SimConfig sim_cfg;
        sim_cfg.inter = cfg.inter;
        sim_cfg.intra = cfg.intra;
        sim_cfg.inter_backend = cfg.inter_backend;
        sim_cfg.levels = cfg.levels;
        const auto resolve = [&] {
            return hdls::dls::resolve_level_plan(c.tree, c.levels, cfg.inter, cfg.intra,
                                                 cfg.inter_backend);
        };
        const auto simulate = [&] {
            return hdls::sim::simulate(hdls::sim::ExecModel::MpiMpi, cluster, sim_cfg, workload);
        };
        if (c.expected.empty()) {
            EXPECT_THROW((void)resolve(), std::invalid_argument);
            EXPECT_THROW((void)hdls::core::resolve_hierarchy(shape, cfg), std::invalid_argument);
            EXPECT_THROW((void)simulate(), std::invalid_argument);
            continue;
        }
        const auto plan = resolve();
        const auto rh = hdls::core::resolve_hierarchy(shape, cfg);
        ASSERT_EQ(plan.levels.size(), c.expected.size());
        ASSERT_EQ(rh.levels.size(), c.expected.size());
        for (std::size_t d = 0; d < c.expected.size(); ++d) {
            EXPECT_EQ(plan.levels[d].technique, c.expected[d].technique) << "level " << d;
            EXPECT_EQ(plan.levels[d].backend, c.expected[d].backend) << "level " << d;
            EXPECT_EQ(rh.levels[d].technique, c.expected[d].technique) << "level " << d;
            EXPECT_EQ(rh.levels[d].backend, c.expected[d].backend) << "level " << d;
        }
        EXPECT_EQ(simulate().executed_iterations(), workload.iterations());
    }
}

TEST(HierarchyGridTest, ExactTilingAcrossDepthsTechniquesAndFanOuts) {
    struct Case {
        ClusterShape shape;
        std::vector<TopologyLevel> tree;
        std::vector<LevelConfig> levels;
    };
    const std::vector<Case> cases = {
        // depth 2 (the classic pair, via the explicit-tree path)
        {{3, 2}, {{"nodes", 3}, {"cores", 2}}, {{Technique::GSS, std::nullopt},
                                                {Technique::SS, std::nullopt}}},
        // depth 3, even fan-outs, centralized middle
        {{6, 2},
         {{"racks", 2}, {"nodes", 3}, {"cores", 2}},
         {{Technique::FAC2, std::nullopt},
          {Technique::GSS, std::nullopt},
          {Technique::SS, std::nullopt}}},
        // depth 3, uneven fan-outs, sharded middle (work stealing between
        // sibling nodes of a rack)
        {{6, 3},
         {{"racks", 3}, {"nodes", 2}, {"cores", 3}},
         {{Technique::TSS, std::nullopt},
          {Technique::GSS, InterBackend::Sharded},
          {Technique::GSS, std::nullopt}}},
        // depth 3, WF root (remaining-based) over a STATIC relay
        {{4, 2},
         {{"racks", 2}, {"nodes", 2}, {"cores", 2}},
         {{Technique::WF, std::nullopt},
          {Technique::Static, std::nullopt},
          {Technique::GSS, std::nullopt}}},
        // depth 4, mixed backends in the middle levels
        {{8, 2},
         {{"racks", 2}, {"nodes", 2}, {"sockets", 2}, {"cores", 2}},
         {{Technique::GSS, std::nullopt},
          {Technique::FAC2, InterBackend::Sharded},
          {Technique::GSS, std::nullopt},
          {Technique::SS, std::nullopt}}},
        // depth 4, sharded root + sharded socket level
        {{8, 2},
         {{"racks", 2}, {"nodes", 2}, {"sockets", 2}, {"cores", 2}},
         {{Technique::GSS, InterBackend::Sharded},
          {Technique::TSS, std::nullopt},
          {Technique::WF, InterBackend::Sharded},
          {Technique::GSS, std::nullopt}}},
    };
    for (const Case& c : cases) {
        for (const std::int64_t n : {std::int64_t{0}, std::int64_t{1}, std::int64_t{103},
                                     std::int64_t{1500}}) {
            HierConfig cfg;
            cfg.topology = c.tree;
            cfg.levels = c.levels;
            SCOPED_TRACE("depth=" + std::to_string(c.tree.size()) +
                         " n=" + std::to_string(n));
            expect_exact_tiling(c.shape, Approach::MpiMpi, cfg, n);
        }
    }
}

TEST(HierarchyGridTest, HybridExecutorRunsDeepTrees) {
    HierConfig cfg;
    cfg.topology = {{"racks", 2}, {"nodes", 3}, {"cores", 4}};
    cfg.levels = {{Technique::FAC2, std::nullopt},
                  {Technique::GSS, std::nullopt},
                  {Technique::GSS, std::nullopt}};
    expect_exact_tiling(ClusterShape{6, 4}, Approach::MpiOpenMp, cfg, 1203);
    cfg.levels[1].backend = InterBackend::Sharded;
    expect_exact_tiling(ClusterShape{6, 4}, Approach::MpiOpenMp, cfg, 777);
}

TEST(HierarchyParityTest, ExplicitDepthTwoReproducesTheClassicChunks) {
    // The {nodes, cores} tree with per-level configs must produce exactly
    // the chunk multiset of the implicit two-level configuration — the
    // refactor's "the old path falls out as the depth-2 special case".
    const ClusterShape shape{4, 4};
    constexpr std::int64_t kN = 3000;
    const std::vector<std::pair<Technique, Technique>> combos = {
        {Technique::GSS, Technique::SS},
        {Technique::TSS, Technique::FAC2},
        {Technique::Static, Technique::GSS},
        {Technique::WF, Technique::GSS},  // remaining-based root
    };
    for (const auto& [inter, intra] : combos) {
        HierConfig classic;
        classic.inter = inter;
        classic.intra = intra;
        const auto expected = executed_chunks(shape, classic, kN);

        HierConfig explicit_cfg;
        explicit_cfg.topology = {{"nodes", 4}, {"cores", 4}};
        explicit_cfg.levels = {{inter, std::nullopt}, {intra, std::nullopt}};
        const auto actual = executed_chunks(shape, explicit_cfg, kN);
        EXPECT_EQ(actual, expected)
            << hdls::dls::technique_name(inter) << "+" << hdls::dls::technique_name(intra);
    }
}

TEST(HierarchyTraceTest, EventsCarryLevelsAndAnalysisBreaksThemDown) {
    HierConfig cfg;
    cfg.topology = {{"racks", 2}, {"nodes", 2}, {"cores", 3}};
    cfg.levels = {{Technique::FAC2, std::nullopt},
                  {Technique::GSS, InterBackend::Sharded},
                  {Technique::SS, std::nullopt}};
    cfg.trace = true;
    std::atomic<std::int64_t> sum{0};
    const auto report = hdls::parallel_for(ClusterShape{4, 3}, Approach::MpiMpi, cfg, 900,
                                           [&](std::int64_t b, std::int64_t e) {
                                               sum.fetch_add(e - b);
                                           });
    ASSERT_NE(report.trace, nullptr);
    EXPECT_EQ(sum.load(), 900);
    ASSERT_EQ(report.topology.size(), 3u);

    bool saw_level0_acquire = false;
    bool saw_level1_pull = false;
    bool saw_leaf_pop = false;
    for (const auto& e : report.trace->events) {
        switch (e.kind) {
            case hdls::trace::EventKind::GlobalAcquire:
            case hdls::trace::EventKind::Steal:
                EXPECT_GE(e.level, 0);
                EXPECT_LE(e.level, 2);
                saw_level0_acquire |= e.level == 0 && e.b > 0;
                saw_level1_pull |= e.level == 1 && e.b > 0;
                break;
            case hdls::trace::EventKind::LocalPop:
                EXPECT_GE(e.level, 1);
                saw_leaf_pop |= e.level == 2 && e.a >= 0;
                break;
            default:
                break;
        }
    }
    EXPECT_TRUE(saw_level0_acquire);
    EXPECT_TRUE(saw_level1_pull);
    EXPECT_TRUE(saw_leaf_pop);

    const auto analysis = hdls::trace::analyze(*report.trace);
    ASSERT_GE(analysis.levels.size(), 3u);
    EXPECT_EQ(analysis.levels[0].level, 0);
    EXPECT_GT(analysis.levels[0].acquires, 0);
    EXPECT_GT(analysis.levels[1].acquires, 0);
    EXPECT_GT(analysis.levels[2].pops, 0);
}

TEST(HierarchySimTest, DeepTreesTileDeterministicallyInBothEngines) {
    using namespace hdls::sim;
    ClusterSpec cluster;
    cluster.nodes = 6;
    cluster.workers_per_node = 4;
    cluster.tree = {{"racks", 2}, {"nodes", 3}, {"cores", 4}};
    cluster.costs.level_rma_us = {6.0, 3.0};
    const WorkloadTrace load(std::vector<double>(4000, 5e-6));

    for (const ExecModel model : {ExecModel::MpiMpi, ExecModel::MpiOpenMp}) {
        for (const InterBackend mid : {InterBackend::Centralized, InterBackend::Sharded}) {
            SimConfig config;
            config.levels = {{Technique::FAC2, std::nullopt},
                             {Technique::GSS, mid},
                             {Technique::GSS, std::nullopt}};
            config.trace = true;
            const SimReport a = simulate(model, cluster, config, load);
            const SimReport b = simulate(model, cluster, config, load);
            EXPECT_EQ(a.executed_iterations(), 4000);
            EXPECT_DOUBLE_EQ(a.parallel_time, b.parallel_time);
            EXPECT_EQ(a.global_chunks(), b.global_chunks());
            ASSERT_NE(a.trace, nullptr);
            bool saw_mid_level = false;
            for (const auto& e : a.trace->events) {
                if ((e.kind == hdls::trace::EventKind::GlobalAcquire ||
                     e.kind == hdls::trace::EventKind::Steal) &&
                    e.level == 1 && e.b > 0) {
                    saw_mid_level = true;
                    break;
                }
            }
            EXPECT_TRUE(saw_mid_level)
                << exec_model_name(model) << " mid=" << hdls::dls::inter_backend_name(mid);
        }
    }
}

TEST(HierarchySimTest, ExplicitDepthTwoMatchesTheClassicSimExactly) {
    using namespace hdls::sim;
    const WorkloadTrace load(std::vector<double>(3000, 2e-6));
    ClusterSpec classic;
    classic.nodes = 4;
    classic.workers_per_node = 4;
    SimConfig config;
    config.inter = Technique::GSS;
    config.intra = Technique::SS;

    ClusterSpec tree = classic;
    tree.tree = {{"nodes", 4}, {"cores", 4}};
    SimConfig levels = config;
    levels.levels = {{Technique::GSS, std::nullopt}, {Technique::SS, std::nullopt}};

    for (const ExecModel model : {ExecModel::MpiMpi, ExecModel::MpiOpenMp}) {
        const SimReport a = simulate(model, classic, config, load);
        const SimReport b = simulate(model, tree, levels, load);
        EXPECT_DOUBLE_EQ(a.parallel_time, b.parallel_time) << exec_model_name(model);
        EXPECT_EQ(a.global_chunks(), b.global_chunks());
        EXPECT_EQ(a.sub_chunks(), b.sub_chunks());
        EXPECT_DOUBLE_EQ(a.total_overhead(), b.total_overhead());
    }
}

}  // namespace
