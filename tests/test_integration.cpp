/// \file test_integration.cpp
/// Cross-module integration tests: simulator-vs-library chunk-protocol
/// equivalence, end-to-end PSIA on the real runtime, and the
/// schedule(runtime)-style configuration.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>

#include "apps/psia.hpp"
#include "apps/synthetic.hpp"
#include "core/env_config.hpp"
#include "core/hdls.hpp"
#include "sim/simulator.hpp"

namespace {

using hdls::dls::Technique;

// ------------------------------------------- simulator <-> library parity

/// With a single worker there is no concurrency, so the simulator and the
/// real thread-backed executor must follow the *identical* chunk protocol:
/// same number of global chunks and the same number of sub-chunks.
class SimCoreParity : public ::testing::TestWithParam<std::pair<Technique, Technique>> {};

TEST_P(SimCoreParity, SingleWorkerChunkCountsMatchExactly) {
    const auto& [inter, intra] = GetParam();
    constexpr std::int64_t kN = 3000;

    // Real executor.
    hdls::core::HierConfig cfg;
    cfg.inter = inter;
    cfg.intra = intra;
    const auto real = hdls::parallel_for(hdls::core::ClusterShape{1, 1},
                                         hdls::core::Approach::MpiMpi, cfg, kN,
                                         [](std::int64_t, std::int64_t) {});

    // Simulator on any constant trace of the same size.
    hdls::apps::WorkloadSpec spec;
    spec.kind = hdls::apps::WorkloadKind::Constant;
    spec.iterations = kN;
    spec.mean_seconds = 1e-6;
    const hdls::sim::WorkloadTrace trace(hdls::apps::make_workload(spec));
    hdls::sim::ClusterSpec cluster;
    cluster.nodes = 1;
    cluster.workers_per_node = 1;
    hdls::sim::SimConfig scfg;
    scfg.inter = inter;
    scfg.intra = intra;
    const auto simulated =
        simulate(hdls::sim::ExecModel::MpiMpi, cluster, scfg, trace);

    EXPECT_EQ(real.global_chunks(), simulated.global_chunks());
    EXPECT_EQ(real.executed_chunks(), simulated.sub_chunks());
    EXPECT_EQ(real.executed_iterations(), simulated.executed_iterations());
}

std::vector<std::pair<Technique, Technique>> parity_cases() {
    std::vector<std::pair<Technique, Technique>> cases;
    for (const Technique inter : hdls::dls::paper_internode_techniques()) {
        for (const Technique intra : hdls::dls::paper_intranode_techniques()) {
            cases.emplace_back(inter, intra);
        }
    }
    return cases;
}

std::string parity_name(
    const ::testing::TestParamInfo<std::pair<Technique, Technique>>& info) {
    return std::string(hdls::dls::technique_name(info.param.first)) + "_" +
           std::string(hdls::dls::technique_name(info.param.second));
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, SimCoreParity, ::testing::ValuesIn(parity_cases()),
                         parity_name);

// --------------------------------------------------- PSIA end-to-end run

TEST(PsiaEndToEndTest, HierarchicalEqualsSerialSpinImages) {
    const auto cloud = hdls::apps::PointCloud::synthetic(600, 77);
    hdls::apps::PsiaConfig pcfg;
    pcfg.bin_size = 0.05;

    std::vector<double> serial_mass(cloud.size());
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        serial_mass[i] = hdls::apps::compute_spin_image(cloud, i, pcfg).mass();
    }

    std::vector<double> parallel_mass(cloud.size(), -1.0);
    hdls::core::HierConfig cfg;
    cfg.inter = Technique::TSS;
    cfg.intra = Technique::FAC2;
    const auto report = hdls::parallel_for(
        hdls::core::ClusterShape{2, 3}, hdls::core::Approach::MpiMpi, cfg,
        static_cast<std::int64_t>(cloud.size()), [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
                parallel_mass[static_cast<std::size_t>(i)] =
                    hdls::apps::compute_spin_image(cloud, static_cast<std::size_t>(i), pcfg)
                        .mass();
            }
        });
    EXPECT_EQ(report.executed_iterations(), static_cast<std::int64_t>(cloud.size()));
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        ASSERT_DOUBLE_EQ(parallel_mass[i], serial_mass[i]) << "point " << i;
    }
}

// ------------------------------------------------- schedule(runtime) API

TEST(EnvConfigTest, ParseScheduleCombinations) {
    const auto a = hdls::core::parse_schedule("GSS+STATIC");
    ASSERT_TRUE(a);
    EXPECT_EQ(a->inter, Technique::GSS);
    EXPECT_EQ(a->intra, Technique::Static);
    EXPECT_EQ(a->min_chunk, 1);

    const auto b = hdls::core::parse_schedule(" fac2 + ss , min_chunk=8 ");
    ASSERT_TRUE(b);
    EXPECT_EQ(b->inter, Technique::FAC2);
    EXPECT_EQ(b->intra, Technique::SS);
    EXPECT_EQ(b->min_chunk, 8);

    const auto c = hdls::core::parse_schedule("tss+awf-c");
    ASSERT_TRUE(c);
    EXPECT_EQ(c->intra, Technique::AWFC);
}

TEST(EnvConfigTest, ParseRejectsMalformedInput) {
    EXPECT_FALSE(hdls::core::parse_schedule(""));
    EXPECT_FALSE(hdls::core::parse_schedule("GSS"));
    EXPECT_FALSE(hdls::core::parse_schedule("GSS+"));
    EXPECT_FALSE(hdls::core::parse_schedule("+GSS"));
    EXPECT_FALSE(hdls::core::parse_schedule("GSS+NOPE"));
    EXPECT_FALSE(hdls::core::parse_schedule("GSS+SS,min_chunk=0"));
    EXPECT_FALSE(hdls::core::parse_schedule("GSS+SS,min_chunk=abc"));
    EXPECT_FALSE(hdls::core::parse_schedule("GSS+SS,chunk=3"));
}

TEST(EnvConfigTest, FormatRoundTrips) {
    hdls::core::HierConfig cfg;
    cfg.inter = Technique::TSS;
    cfg.intra = Technique::FAC2;
    cfg.min_chunk = 16;
    const std::string s = hdls::core::format_schedule(cfg);
    EXPECT_EQ(s, "TSS+FAC2,min_chunk=16");
    const auto parsed = hdls::core::parse_schedule(s);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->inter, cfg.inter);
    EXPECT_EQ(parsed->intra, cfg.intra);
    EXPECT_EQ(parsed->min_chunk, cfg.min_chunk);
    cfg.min_chunk = 1;
    EXPECT_EQ(hdls::core::format_schedule(cfg), "TSS+FAC2");
}

TEST(EnvConfigTest, ParseApproach) {
    EXPECT_EQ(hdls::core::parse_approach("MPI+MPI"), hdls::core::Approach::MpiMpi);
    EXPECT_EQ(hdls::core::parse_approach("mpi+openmp"), hdls::core::Approach::MpiOpenMp);
    EXPECT_EQ(hdls::core::parse_approach("hybrid"), hdls::core::Approach::MpiOpenMp);
    EXPECT_EQ(hdls::core::parse_approach("pvm"), std::nullopt);
}

TEST(EnvConfigTest, EnvironmentOverridesAndFallbacks) {
    hdls::core::HierConfig fallback;
    fallback.inter = Technique::Static;
    fallback.intra = Technique::Static;

    ::setenv("HDLS_SCHEDULE", "GSS+SS,min_chunk=2", 1);
    const auto cfg = hdls::core::schedule_from_env(fallback);
    EXPECT_EQ(cfg.inter, Technique::GSS);
    EXPECT_EQ(cfg.intra, Technique::SS);
    EXPECT_EQ(cfg.min_chunk, 2);

    // The env var overrides only the schedule: non-schedule configuration
    // (tracing, WF node weights, FAC inputs, ...) must survive the merge.
    fallback.trace = true;
    fallback.node_weights = {2.0, 1.0};
    fallback.fac_sigma = 0.5;
    ::setenv("HDLS_SCHEDULE", "WF+GSS", 1);
    const auto kept = hdls::core::schedule_from_env(fallback);
    EXPECT_EQ(kept.inter, Technique::WF);
    EXPECT_TRUE(kept.trace);
    EXPECT_EQ(kept.node_weights, (std::vector<double>{2.0, 1.0}));
    EXPECT_EQ(kept.fac_sigma, 0.5);
    fallback.trace = false;
    fallback.node_weights.clear();
    fallback.fac_sigma = 0.0;

    ::setenv("HDLS_SCHEDULE", "garbage", 1);
    const auto bad = hdls::core::schedule_from_env(fallback);
    EXPECT_EQ(bad.inter, Technique::Static);

    ::unsetenv("HDLS_SCHEDULE");
    const auto unset = hdls::core::schedule_from_env(fallback);
    EXPECT_EQ(unset.intra, Technique::Static);
}

TEST(EnvConfigTest, EnvSelectedScheduleRunsEndToEnd) {
    ::setenv("HDLS_SCHEDULE", "FAC2+GSS", 1);
    const auto cfg = hdls::core::schedule_from_env();
    std::atomic<std::int64_t> count{0};
    const auto report = hdls::parallel_for(
        hdls::core::ClusterShape{2, 2}, hdls::core::Approach::MpiMpi, cfg, 500,
        [&](std::int64_t b, std::int64_t e) { count.fetch_add(e - b); });
    EXPECT_EQ(count.load(), 500);
    EXPECT_EQ(report.inter, Technique::FAC2);
    EXPECT_EQ(report.intra, Technique::GSS);
    ::unsetenv("HDLS_SCHEDULE");
}

}  // namespace
