/// \file test_simd.cpp
/// SIMD kernel layer, software prefetch, and topology-aware placement:
/// backend parity (every backend bit-identical to the scalar reference),
/// runtime dispatch, socket planning, team pinning and
/// the cached kernel-rate probe — including the end-to-end checksum grid
/// over techniques x depths x transports.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <vector>

#include "apps/mandelbrot.hpp"
#include "apps/psia.hpp"
#include "apps/synthetic.hpp"
#include "core/hdls.hpp"
#include "minimpi/host_topology.hpp"
#include "ompsim/team.hpp"
#include "simd/dispatch.hpp"
#include "simd/simd.hpp"

namespace {

using hdls::dls::Technique;

/// Restores SimdMode::Auto when a test body returns or throws.
struct ModeGuard {
    ~ModeGuard() { hdls::simd::set_mode(hdls::simd::SimdMode::Auto); }
};

// ------------------------------------------------------------ vec types --

TEST(SimdVecTest, ScalarVecLaneOps) {
    using V = hdls::simd::scalar_vec<4>;
    const double in_a[4] = {1.0, -2.0, 3.0, 4.0};
    const double in_b[4] = {0.5, 2.0, 3.0, -1.0};
    const V a = V::load(in_a);
    const V b = V::load(in_b);

    double out[4];
    (a + b).store(out);
    EXPECT_EQ(out[0], 1.5);
    EXPECT_EQ(out[3], 3.0);
    (a * b).store(out);
    EXPECT_EQ(out[1], -4.0);
    abs(a).store(out);
    EXPECT_EQ(out[1], 2.0);
    sqrt(V::broadcast(9.0)).store(out);
    EXPECT_EQ(out[2], 3.0);

    const auto gt = cmp_gt(a, b);  // {1>0.5, -2>2, 3>3, 4>-1}
    EXPECT_TRUE(gt.test(0));
    EXPECT_FALSE(gt.test(1));
    EXPECT_FALSE(gt.test(2));
    EXPECT_TRUE(gt.test(3));
    EXPECT_TRUE(gt.any());
    EXPECT_FALSE(gt.none());
    EXPECT_TRUE(cmp_le(a, b).test(2));

    const auto both = gt & cmp_lt(b, a);
    EXPECT_TRUE(both.test(0));
    EXPECT_FALSE(both.test(2));
    select(gt, a, b).store(out);
    EXPECT_EQ(out[0], 1.0);   // gt lane -> a
    EXPECT_EQ(out[1], 2.0);   // !gt lane -> b
    select(~gt, a, b).store(out);
    EXPECT_EQ(out[0], 0.5);
}

// ------------------------------------------------------------- dispatch --

TEST(SimdDispatchTest, ScalarBackendAlwaysUsable) {
    EXPECT_TRUE(hdls::simd::backend_compiled(hdls::simd::Backend::Scalar));
    EXPECT_TRUE(hdls::simd::backend_usable(hdls::simd::Backend::Scalar));
    EXPECT_TRUE(hdls::simd::backend_usable(hdls::simd::best_backend()));
    const auto usable = hdls::simd::usable_backends();
    ASSERT_FALSE(usable.empty());
    EXPECT_EQ(usable.front(), hdls::simd::Backend::Scalar);
}

TEST(SimdDispatchTest, ForceScalarNarrowsToWidthOne) {
    const ModeGuard guard;
    hdls::simd::set_mode(hdls::simd::SimdMode::ForceScalar);
    EXPECT_EQ(hdls::simd::active_backend(), hdls::simd::Backend::Scalar);
    EXPECT_EQ(hdls::simd::active_width(), 1);
    hdls::simd::set_mode(hdls::simd::SimdMode::Auto);
    EXPECT_EQ(hdls::simd::active_backend(), hdls::simd::best_backend());
}

TEST(SimdDispatchTest, NativeRequiresAVectorBackend) {
    const ModeGuard guard;
    if (hdls::simd::best_backend() == hdls::simd::Backend::Scalar) {
        EXPECT_THROW(hdls::simd::set_mode(hdls::simd::SimdMode::Native),
                     std::runtime_error);
    } else {
        hdls::simd::set_mode(hdls::simd::SimdMode::Native);
        EXPECT_NE(hdls::simd::active_backend(), hdls::simd::Backend::Scalar);
        EXPECT_GT(hdls::simd::active_width(), 1);
    }
}

TEST(SimdDispatchTest, KernelsForThrowsOnUnusableBackend) {
    for (const auto b : {hdls::simd::Backend::Avx2, hdls::simd::Backend::Neon}) {
        if (!hdls::simd::backend_usable(b)) {
            EXPECT_THROW((void)hdls::simd::kernels_for(b), std::runtime_error);
        } else {
            EXPECT_GT(hdls::simd::kernels_for(b).width, 1);
        }
    }
}

// ------------------------------------------------- kernel parity (direct) --

TEST(SimdParityTest, MandelbrotKernelsBitIdenticalAcrossBackends) {
    hdls::apps::MandelbrotConfig cfg;
    cfg.width = 64;
    cfg.height = 48;
    cfg.max_iter = 200;
    const hdls::simd::MandelbrotGeom geom = hdls::apps::mandelbrot_geometry(cfg);
    const std::int64_t pixels = cfg.pixels();

    std::vector<int> reference(static_cast<std::size_t>(pixels));
    hdls::simd::kernels_for(hdls::simd::Backend::Scalar)
        .mandelbrot(geom, 0, pixels, reference.data());
    // The scalar kernel must equal the per-pixel escape loop.
    for (const std::int64_t p : {std::int64_t{0}, pixels / 2, pixels - 1}) {
        EXPECT_EQ(reference[static_cast<std::size_t>(p)],
                  hdls::apps::mandelbrot_iterations(cfg, p));
    }
    for (const auto b : hdls::simd::usable_backends()) {
        std::vector<int> out(static_cast<std::size_t>(pixels), -7);
        // Odd split so vector backends hit their scalar-tail path too.
        const std::int64_t split = pixels / 3 + 1;
        const auto& k = hdls::simd::kernels_for(b);
        k.mandelbrot(geom, 0, split, out.data());
        k.mandelbrot(geom, split, pixels - split, out.data() + split);
        EXPECT_EQ(out, reference) << hdls::simd::backend_name(b);
    }
}

TEST(SimdParityTest, SpinSupportKernelsBitIdenticalAcrossBackends) {
    const auto cloud = hdls::apps::PointCloud::synthetic(700, 9);
    hdls::apps::PsiaConfig cfg;
    cfg.support_angle_cos = 0.2;  // engage every filter lane
    const auto* aos = reinterpret_cast<const double*>(cloud.points().data());
    const auto n = static_cast<std::int64_t>(cloud.size());
    const hdls::apps::OrientedPoint& center = cloud[3];
    const hdls::simd::SpinFilter filter{
        center.position.x, center.position.y, center.position.z,
        center.normal.x,   center.normal.y,   center.normal.z,
        cfg.support_angle_cos, cfg.beta_max(),
        cfg.alpha_max() * cfg.alpha_max()};

    std::vector<double> ref_alpha(cloud.size()), ref_beta(cloud.size());
    const std::int64_t ref_count =
        hdls::simd::kernels_for(hdls::simd::Backend::Scalar)
            .spin_support(aos, 0, n, filter, ref_alpha.data(), ref_beta.data());
    EXPECT_EQ(static_cast<std::size_t>(ref_count),
              hdls::apps::support_count(cloud, 3, cfg));

    for (const auto b : hdls::simd::usable_backends()) {
        const auto& k = hdls::simd::kernels_for(b);
        for (const bool prefetch : {false, true}) {
            std::vector<double> alpha(cloud.size()), beta(cloud.size());
            const std::int64_t count =
                (prefetch ? k.spin_support_prefetch : k.spin_support)(
                    aos, 0, n, filter, alpha.data(), beta.data());
            ASSERT_EQ(count, ref_count)
                << hdls::simd::backend_name(b) << " prefetch=" << prefetch;
            for (std::int64_t i = 0; i < count; ++i) {
                const auto at = static_cast<std::size_t>(i);
                EXPECT_EQ(alpha[at], ref_alpha[at]);
                EXPECT_EQ(beta[at], ref_beta[at]);
            }
        }
    }
}

TEST(SimdParityTest, SpinImagePrefetchAndBackendsDoNotChangeBins) {
    const ModeGuard guard;
    const auto cloud = hdls::apps::PointCloud::synthetic(400, 21);
    hdls::apps::PsiaConfig cfg;
    hdls::simd::set_mode(hdls::simd::SimdMode::ForceScalar);
    const auto reference = hdls::apps::compute_spin_image(cloud, 7, cfg, false);
    for (const auto mode :
         {hdls::simd::SimdMode::ForceScalar, hdls::simd::SimdMode::Auto}) {
        hdls::simd::set_mode(mode);
        for (const bool prefetch : {false, true}) {
            const auto image = hdls::apps::compute_spin_image(cloud, 7, cfg, prefetch);
            ASSERT_EQ(image.data().size(), reference.data().size());
            EXPECT_EQ(std::memcmp(image.data().data(), reference.data().data(),
                                  reference.data().size() * sizeof(float)),
                      0)
                << "mode=" << hdls::simd::mode_name(mode) << " prefetch=" << prefetch;
        }
    }
}

TEST(SimdParityTest, BurnerIsFiniteOnEveryBackend) {
    const ModeGuard guard;
    for (const auto mode :
         {hdls::simd::SimdMode::ForceScalar, hdls::simd::SimdMode::Auto}) {
        hdls::simd::set_mode(mode);
        EXPECT_GT(hdls::apps::burner_rounds_per_second(), 0.0);
        hdls::apps::burn_seconds(1e-4);  // must return (calibrated, not a spin)
    }
}

// --------------------------------------- end-to-end grid (runner checksums) --

struct GridCase {
    Technique inter;
    Technique intra;
    int depth;  // 2 or 3
    minimpi::TransportKind transport;
};

class SimdRunnerGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(SimdRunnerGrid, MandelbrotChecksumInvariantAcrossSimdVariants) {
    const GridCase& c = GetParam();
    hdls::apps::MandelbrotConfig mcfg;
    mcfg.width = 96;
    mcfg.height = 96;
    mcfg.max_iter = 96;

    hdls::core::HierConfig cfg;
    cfg.inter = c.inter;
    cfg.intra = c.intra;
    cfg.transport = c.transport;
    hdls::core::ClusterShape shape{2, 2};
    if (c.depth == 3) {
        shape = hdls::core::ClusterShape{4, 2};
        cfg.topology = {{"groups", 2}, {"nodes", 2}, {"cores", 2}};
    }

    auto checksum_with = [&](hdls::simd::SimdMode mode, bool prefetch) {
        hdls::core::HierConfig run = cfg;
        run.simd = mode;
        run.prefetch = prefetch;
        hdls::apps::MandelbrotImage image(mcfg);
        const auto report = hdls::parallel_for(
            shape, hdls::core::Approach::MpiMpi, run, mcfg.pixels(),
            [&](std::int64_t b, std::int64_t e) { image.compute_range(b, e); });
        EXPECT_EQ(report.executed_iterations(), mcfg.pixels());
        EXPECT_EQ(image.uncomputed(), 0);
        return image.checksum();
    };

    const std::uint64_t scalar = checksum_with(hdls::simd::SimdMode::ForceScalar, false);
    EXPECT_EQ(checksum_with(hdls::simd::SimdMode::Auto, false), scalar);
    EXPECT_EQ(checksum_with(hdls::simd::SimdMode::Auto, true), scalar);
    hdls::simd::set_mode(hdls::simd::SimdMode::Auto);
}

std::string grid_name(const ::testing::TestParamInfo<GridCase>& info) {
    std::string name = std::string(hdls::dls::technique_name(info.param.inter)) + "_" +
                       std::string(hdls::dls::technique_name(info.param.intra)) +
                       "_depth" + std::to_string(info.param.depth) + "_" +
                       std::string(minimpi::transport_name(info.param.transport));
    // technique_name yields e.g. "AWF-B"; gtest param names must be alnum/_.
    std::erase_if(name, [](char c) { return c != '_' && !std::isalnum(
                                                static_cast<unsigned char>(c)); });
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    TechniquesDepthsTransports, SimdRunnerGrid,
    ::testing::Values(
        GridCase{Technique::GSS, Technique::FAC2, 2, minimpi::TransportKind::Threads},
        GridCase{Technique::SS, Technique::Static, 2, minimpi::TransportKind::Threads},
        GridCase{Technique::AWFB, Technique::GSS, 2, minimpi::TransportKind::Threads},
        GridCase{Technique::TSS, Technique::GSS, 3, minimpi::TransportKind::Threads},
        GridCase{Technique::GSS, Technique::FAC2, 2, minimpi::TransportKind::Shm},
        GridCase{Technique::TSS, Technique::GSS, 3, minimpi::TransportKind::Shm}),
    grid_name);

TEST(SimdRunnerTest, ReportCarriesSimdAndPinSettings) {
    hdls::core::HierConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::GSS;
    cfg.simd = hdls::simd::SimdMode::ForceScalar;
    cfg.pin = minimpi::PinPolicy::Compact;
    const auto report =
        hdls::parallel_for(hdls::core::ClusterShape{2, 2}, hdls::core::Approach::MpiOpenMp,
                           cfg, 512, [](std::int64_t, std::int64_t) {});
    EXPECT_EQ(report.simd_mode, hdls::simd::SimdMode::ForceScalar);
    EXPECT_EQ(report.simd_backend, hdls::simd::Backend::Scalar);
    EXPECT_EQ(report.pin, minimpi::PinPolicy::Compact);
    hdls::simd::set_mode(hdls::simd::SimdMode::Auto);
}

// ------------------------------------------------------- host topology --

TEST(HostTopologyTest, CompactPlanFillsSocketsInOrder) {
    const auto host = minimpi::HostTopology::uniform(2, 4);  // cpus 0-3 / 4-7
    EXPECT_EQ(host.total_cpus(), 8);
    EXPECT_EQ(host.plan(minimpi::PinPolicy::Compact, 0, 8),
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    // first_worker offsets the flat list (co-located teams interleave).
    EXPECT_EQ(host.plan(minimpi::PinPolicy::Compact, 6, 4),
              (std::vector<int>{6, 7, 0, 1}));
}

TEST(HostTopologyTest, ScatterPlanAlternatesSockets) {
    const auto host = minimpi::HostTopology::uniform(2, 4);
    EXPECT_EQ(host.plan(minimpi::PinPolicy::Scatter, 0, 8),
              (std::vector<int>{0, 4, 1, 5, 2, 6, 3, 7}));
    EXPECT_EQ(host.plan(minimpi::PinPolicy::Scatter, 3, 2), (std::vector<int>{5, 2}));
}

TEST(HostTopologyTest, NonePlanLeavesEveryWorkerUnpinned) {
    const auto host = minimpi::HostTopology::uniform(2, 2);
    EXPECT_EQ(host.plan(minimpi::PinPolicy::None, 0, 3), (std::vector<int>{-1, -1, -1}));
    EXPECT_TRUE(minimpi::pin_current_thread(-1));  // unpinned slot is a no-op
}

TEST(HostTopologyTest, DetectFindsAtLeastOneSocketAndCpu) {
    const auto host = minimpi::HostTopology::detect();
    ASSERT_FALSE(host.sockets().empty());
    EXPECT_GE(host.total_cpus(), 1);
    const auto affinity = minimpi::current_thread_affinity();
    EXPECT_FALSE(affinity.empty());
    EXPECT_TRUE(minimpi::set_current_thread_affinity(affinity));  // round-trip
}

TEST(HostTopologyTest, PinPolicyNamesRoundTrip) {
    for (const auto p : {minimpi::PinPolicy::None, minimpi::PinPolicy::Compact,
                         minimpi::PinPolicy::Scatter}) {
        const auto back = minimpi::pin_policy_from_string(
            std::string(minimpi::pin_policy_name(p)));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, p);
    }
    EXPECT_FALSE(minimpi::pin_policy_from_string("numa").has_value());
}

// -------------------------------------------------------- team placement --

TEST(TeamPlacementTest, PinnedCpusFollowThePlan) {
    hdls::ompsim::ThreadTeam::Placement placement;
    placement.policy = minimpi::PinPolicy::Scatter;
    placement.host = minimpi::HostTopology::uniform(2, 4);
    placement.first_worker = 2;
    hdls::ompsim::ThreadTeam team(4, placement);
    EXPECT_EQ(team.pin_policy(), minimpi::PinPolicy::Scatter);
    const auto plan = placement.host.plan(minimpi::PinPolicy::Scatter, 2, 4);
    for (int t = 0; t < 4; ++t) {
        EXPECT_EQ(team.pinned_cpu(t), plan[static_cast<std::size_t>(t)]);
    }
    EXPECT_EQ(team.pinned_cpu(-1), -1);
    EXPECT_EQ(team.pinned_cpu(99), -1);
}

TEST(TeamPlacementTest, UnpinnedTeamReportsNoCpus) {
    hdls::ompsim::ThreadTeam team(3);
    EXPECT_EQ(team.pin_policy(), minimpi::PinPolicy::None);
    for (int t = 0; t < 3; ++t) {
        EXPECT_EQ(team.pinned_cpu(t), -1);
    }
}

// -------------------------------------------------------- kernel-rate probe --

TEST(ProbeTest, ProbedRatesArePositiveAndCached) {
    hdls::simd::reset_probe_cache();
    for (const auto b : hdls::simd::usable_backends()) {
        const double first = hdls::simd::probe_mandelbrot_rate(b, 0.001);
        EXPECT_GT(first, 0.0);
        // Cached: the second call returns the identical measurement.
        EXPECT_EQ(hdls::simd::probe_mandelbrot_rate(b, 0.001), first);
    }
}

TEST(ProbeTest, PinnedWfRunWithoutNodeWeightsExecutesExactlyOnce) {
    // A pinned WF run with empty node_weights keeps WF's equal weights
    // (callers wanting measured speeds pass node_weights, as
    // bench_ablation_simd does). Every iteration still runs exactly once.
    hdls::core::HierConfig cfg;
    cfg.inter = Technique::WF;
    cfg.intra = Technique::GSS;
    cfg.pin = minimpi::PinPolicy::Compact;
    cfg.simd = hdls::simd::SimdMode::ForceScalar;
    std::atomic<std::int64_t> executed{0};
    const auto report = hdls::parallel_for(
        hdls::core::ClusterShape{2, 2}, hdls::core::Approach::MpiMpi, cfg, 4096,
        [&](std::int64_t b, std::int64_t e) { executed += e - b; });
    EXPECT_EQ(executed.load(), 4096);
    EXPECT_EQ(report.executed_iterations(), 4096);
    EXPECT_EQ(report.pin, minimpi::PinPolicy::Compact);
    hdls::simd::set_mode(hdls::simd::SimdMode::Auto);
}

}  // namespace
