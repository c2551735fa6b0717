/// \file test_apps.cpp
/// Tests for the application kernels: Mandelbrot escape-time math, PSIA
/// spin-image invariants, synthetic clouds and workload generators.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <sstream>

#include "apps/mandelbrot.hpp"
#include "apps/psia.hpp"
#include "apps/synthetic.hpp"
#include "util/stats.hpp"

namespace {

using namespace hdls::apps;

// ---------------------------------------------------------------- Mandelbrot

MandelbrotConfig small_config() {
    MandelbrotConfig cfg;
    cfg.width = 64;
    cfg.height = 64;
    cfg.max_iter = 200;
    return cfg;
}

TEST(MandelbrotTest, InteriorPointHitsMaxIter) {
    // c = 0 and c = -1 are in the Mandelbrot set.
    MandelbrotConfig cfg = small_config();
    cfg.re_min = -0.001;
    cfg.re_max = 0.001;
    cfg.im_min = -0.001;
    cfg.im_max = 0.001;
    EXPECT_EQ(mandelbrot_iterations(cfg, cfg.width / 2, cfg.height / 2), cfg.max_iter);
}

TEST(MandelbrotTest, FarExteriorEscapesImmediately) {
    MandelbrotConfig cfg = small_config();
    cfg.re_min = 10.0;
    cfg.re_max = 11.0;  // |c| > 2: escapes on the first test
    const int it = mandelbrot_iterations(cfg, 0, 0);
    EXPECT_LE(it, 1);
}

TEST(MandelbrotTest, LinearIndexMatchesXY) {
    const MandelbrotConfig cfg = small_config();
    for (const std::int64_t pixel : {0LL, 63LL, 64LL, 4095LL}) {
        const int x = static_cast<int>(pixel % cfg.width);
        const int y = static_cast<int>(pixel / cfg.width);
        EXPECT_EQ(mandelbrot_iterations(cfg, pixel), mandelbrot_iterations(cfg, x, y));
    }
}

TEST(MandelbrotTest, VerticalSymmetryOfDefaultViewport) {
    // The default viewport is symmetric in Im(c), and pixel centers mirror
    // exactly, so row y and row height-1-y must be identical.
    MandelbrotConfig cfg = small_config();
    for (int x = 0; x < cfg.width; x += 7) {
        for (int y = 0; y < cfg.height / 2; y += 5) {
            EXPECT_EQ(mandelbrot_iterations(cfg, x, y),
                      mandelbrot_iterations(cfg, x, cfg.height - 1 - y));
        }
    }
}

TEST(MandelbrotTest, ImageTracksUncomputedPixels) {
    MandelbrotImage img(small_config());
    EXPECT_EQ(img.uncomputed(), 64 * 64);
    img.compute_range(0, 100);
    EXPECT_EQ(img.uncomputed(), 64 * 64 - 100);
    img.compute_range(100, img.config().pixels());
    EXPECT_EQ(img.uncomputed(), 0);
}

TEST(MandelbrotTest, BatchMatchesPerPixelIterations) {
    const MandelbrotConfig cfg = small_config();
    std::vector<int> batch(static_cast<std::size_t>(cfg.pixels()));
    mandelbrot_iterations_batch(cfg, 0, cfg.pixels(), batch.data());
    for (std::int64_t p = 0; p < cfg.pixels(); p += 13) {
        EXPECT_EQ(batch[static_cast<std::size_t>(p)], mandelbrot_iterations(cfg, p));
    }
    const hdls::simd::MandelbrotGeom geom = mandelbrot_geometry(cfg);
    EXPECT_EQ(geom.width, cfg.width);
    EXPECT_EQ(geom.max_iter, cfg.max_iter);
}

TEST(MandelbrotTest, ChecksumIsOrderIndependentButContentSensitive) {
    const MandelbrotConfig cfg = small_config();
    MandelbrotImage forward(cfg);
    forward.compute_range(0, cfg.pixels());
    MandelbrotImage backward(cfg);
    for (std::int64_t i = cfg.pixels() - 1; i >= 0; --i) {
        backward.compute_pixel(i);
    }
    EXPECT_EQ(forward.checksum(), backward.checksum());
    MandelbrotImage partial(cfg);
    partial.compute_range(0, cfg.pixels() - 1);  // one pixel missing
    EXPECT_NE(forward.checksum(), partial.checksum());
}

TEST(MandelbrotTest, PpmOutputWellFormed) {
    MandelbrotConfig cfg = small_config();
    cfg.width = 8;
    cfg.height = 4;
    MandelbrotImage img(cfg);
    img.compute_range(0, cfg.pixels());
    std::ostringstream oss;
    img.write_ppm(oss);
    const std::string s = oss.str();
    EXPECT_EQ(s.rfind("P2\n8 4\n255\n", 0), 0u);
    // 4 header-ish lines + 4 pixel rows.
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 3 + 4);
}

TEST(MandelbrotTest, CostTraceReflectsIterations) {
    const MandelbrotConfig cfg = small_config();
    const auto trace = mandelbrot_cost_trace(cfg, 1e-6);
    ASSERT_EQ(trace.size(), static_cast<std::size_t>(cfg.pixels()));
    for (std::int64_t i = 0; i < cfg.pixels(); i += 97) {
        EXPECT_DOUBLE_EQ(trace[static_cast<std::size_t>(i)],
                         1e-6 * (mandelbrot_iterations(cfg, i) + 1));
    }
}

TEST(MandelbrotTest, DefaultViewportIsHighlyImbalanced) {
    // The property Figures 4-7 depend on: Mandelbrot's per-iteration costs
    // have a large coefficient of variation (paper: "high algorithmic load
    // imbalance").
    MandelbrotConfig cfg;
    cfg.width = 128;
    cfg.height = 128;
    cfg.max_iter = 256;
    const auto trace = mandelbrot_cost_trace(cfg, 1.0);
    const auto s = hdls::util::summarize(trace);
    EXPECT_GT(s.cov, 1.0);
    EXPECT_EQ(s.max, cfg.max_iter + 1);
}

// --------------------------------------------------------------------- Vec3

TEST(Vec3Test, BasicOperations) {
    const Vec3 a{1, 2, 3};
    const Vec3 b{4, 5, 6};
    EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
    const Vec3 c = a + b;
    EXPECT_DOUBLE_EQ(c.y, 7.0);
    const Vec3 d = b - a;
    EXPECT_DOUBLE_EQ(d.x, 3.0);
    EXPECT_DOUBLE_EQ((2.0 * a).z, 6.0);
    EXPECT_NEAR((Vec3{3, 4, 0}).norm(), 5.0, 1e-12);
    EXPECT_NEAR((Vec3{0, 0, 9}).normalized().z, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(Vec3{}.normalized().norm(), 0.0);
}

// ---------------------------------------------------------------- SpinImage

PsiaConfig test_psia_config() {
    PsiaConfig cfg;
    cfg.image_width = 10;
    cfg.image_height = 10;
    cfg.bin_size = 0.1;  // alpha_max = 1.0, beta_max = 0.5
    return cfg;
}

TEST(SpinImageTest, InteriorDepositConservesUnitMass) {
    const PsiaConfig cfg = test_psia_config();
    SpinImage img(cfg.image_width, cfg.image_height);
    img.accumulate(0.42, 0.13, cfg);
    EXPECT_NEAR(img.mass(), 1.0, 1e-6);
}

TEST(SpinImageTest, ExactBinCenterHitsSingleBin) {
    const PsiaConfig cfg = test_psia_config();
    SpinImage img(cfg.image_width, cfg.image_height);
    // alpha = 0.25 -> col_f = 2.5? No: col 2 fraction .5 splits. Use values
    // landing exactly on a bin boundary-free point: alpha=0.20 -> col_f=2.0
    // (a=0), beta chosen so row_f integral: beta_max-beta = 0.3 -> row 3.
    img.accumulate(0.20, 0.20, cfg);
    EXPECT_NEAR(img.at(3, 2), 1.0, 1e-6);
    EXPECT_NEAR(img.mass(), 1.0, 1e-6);
}

TEST(SpinImageTest, BilinearSplitWeights) {
    const PsiaConfig cfg = test_psia_config();
    SpinImage img(cfg.image_width, cfg.image_height);
    // col_f = 2.5 (a = .5), row_f = 3.5 (b = .5): four bins, 0.25 each.
    img.accumulate(0.25, cfg.beta_max() - 0.35, cfg);
    EXPECT_NEAR(img.at(3, 2), 0.25, 1e-6);
    EXPECT_NEAR(img.at(3, 3), 0.25, 1e-6);
    EXPECT_NEAR(img.at(4, 2), 0.25, 1e-6);
    EXPECT_NEAR(img.at(4, 3), 0.25, 1e-6);
}

TEST(SpinImageTest, EdgeDepositsAreClipped) {
    const PsiaConfig cfg = test_psia_config();
    SpinImage img(cfg.image_width, cfg.image_height);
    img.accumulate(cfg.alpha_max() - 1e-9, -cfg.beta_max() + 1e-9, cfg);  // far corner
    EXPECT_LE(img.mass(), 1.0 + 1e-6);
    EXPECT_GT(img.mass(), 0.0);
}

TEST(SpinImageTest, InvalidAccessThrows) {
    SpinImage img(4, 4);
    EXPECT_THROW((void)img.at(4, 0), std::out_of_range);
    EXPECT_THROW((void)img.at(0, -1), std::out_of_range);
    EXPECT_THROW(SpinImage(0, 4), std::invalid_argument);
}

// --------------------------------------------------------------------- PSIA

TEST(PsiaTest, TwoPointKnownGeometry) {
    // Center at origin with normal +z; neighbour at (0.3, 0, 0.2):
    // beta = 0.2, alpha = 0.3.
    PointCloud cloud;
    cloud.add({{0, 0, 0}, {0, 0, 1}});
    cloud.add({{0.3, 0, 0.2}, {0, 0, 1}});
    const PsiaConfig cfg = test_psia_config();
    ASSERT_TRUE(in_support(cloud[0], cloud[1], cfg));
    const SpinImage img = compute_spin_image(cloud, 0, cfg);
    // Two deposits: the center itself (alpha 0, beta 0) and the neighbour.
    EXPECT_NEAR(img.mass(), 2.0, 1e-6);
    // Neighbour lands at col_f = 3.0, row_f = (0.5-0.2)/0.1 = 3.0 exactly.
    EXPECT_NEAR(img.at(3, 3), 1.0, 1e-6);
}

TEST(PsiaTest, SupportExcludesDistantAndBackfacingPoints) {
    PsiaConfig cfg = test_psia_config();
    PointCloud cloud;
    cloud.add({{0, 0, 0}, {0, 0, 1}});
    cloud.add({{5, 0, 0}, {0, 0, 1}});    // alpha way out of range
    cloud.add({{0, 0, 0.9}, {0, 0, 1}});  // beta out of range
    cloud.add({{0.1, 0, 0}, {0, 0, -1}}); // backfacing
    EXPECT_EQ(support_count(cloud, 0, cfg), 2u);  // self + nothing else? self + backfacing
    cfg.support_angle_cos = 0.0;                  // now require cos >= 0
    EXPECT_EQ(support_count(cloud, 0, cfg), 1u);  // only the center itself
}

TEST(PsiaTest, SupportCountMatchesSpinImageMassForInteriorPoints) {
    const PointCloud cloud = PointCloud::synthetic(400, 7);
    PsiaConfig cfg = test_psia_config();
    cfg.bin_size = 0.04;
    for (const std::size_t center : {0UL, 57UL, 200UL, 399UL}) {
        const auto count = support_count(cloud, center, cfg);
        const SpinImage img = compute_spin_image(cloud, center, cfg);
        // Mass can only lose weight via edge clipping.
        EXPECT_LE(img.mass(), static_cast<double>(count) + 1e-6);
        EXPECT_GT(img.mass(), 0.25 * static_cast<double>(count));
    }
}

TEST(PsiaTest, SyntheticCloudIsDeterministicAndUnitNormals) {
    const PointCloud a = PointCloud::synthetic(500, 42);
    const PointCloud b = PointCloud::synthetic(500, 42);
    const PointCloud c = PointCloud::synthetic(500, 43);
    ASSERT_EQ(a.size(), 500u);
    EXPECT_EQ(a[123].position.x, b[123].position.x);
    EXPECT_NE(a[123].position.x, c[123].position.x);
    for (std::size_t i = 0; i < a.size(); i += 37) {
        EXPECT_NEAR(a[i].normal.norm(), 1.0, 1e-9);
    }
}

TEST(PsiaTest, SupportGridApproximatesBruteForceNeighbourhoods) {
    const PointCloud cloud = PointCloud::synthetic(1000, 11);
    const PsiaConfig cfg = test_psia_config();
    const double cell = std::max(cfg.alpha_max(), 2 * cfg.beta_max());
    const SupportGrid grid(cloud, cell);
    for (const std::size_t i : {0UL, 100UL, 500UL, 999UL}) {
        const auto approx = grid.neighbourhood_count(cloud[i].position);
        // Count of points within alpha_max of the center (beta/angle-free
        // lower bound on what the 27-cell neighbourhood must cover).
        std::size_t within = 0;
        for (const auto& p : cloud.points()) {
            if ((p.position - cloud[i].position).norm() <= cfg.alpha_max()) {
                ++within;
            }
        }
        EXPECT_GE(approx, within);
        EXPECT_LE(approx, cloud.size());
    }
}

TEST(PsiaTest, CostTraceIsSpatiallyImbalancedButModerate) {
    // PSIA's CoV must sit clearly below Mandelbrot's (the paper's "PSIA has
    // less load imbalance than Mandelbrot").
    const PointCloud cloud = PointCloud::synthetic(20000, 3);
    const PsiaConfig cfg = test_psia_config();
    const auto trace = psia_cost_trace(cloud, cfg, 50e-6, 1e-6);
    const auto s = hdls::util::summarize(trace);
    ASSERT_EQ(trace.size(), cloud.size());
    EXPECT_GT(s.cov, 0.05);  // not flat
    EXPECT_LT(s.cov, 1.0);   // .. but far below Mandelbrot's > 1
    EXPECT_GT(s.min, 0.0);
}

TEST(PsiaTest, InvalidInputsThrow) {
    const PointCloud cloud = PointCloud::synthetic(10, 1);
    EXPECT_THROW((void)compute_spin_image(cloud, 10, test_psia_config()), std::out_of_range);
    EXPECT_THROW(SupportGrid(cloud, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------------- synthetic

TEST(SyntheticWorkloadTest, MomentsApproximatelyMatchSpec) {
    WorkloadSpec spec;
    spec.iterations = 200000;
    spec.mean_seconds = 2e-3;
    spec.cov = 0.4;
    for (const WorkloadKind k : {WorkloadKind::Uniform, WorkloadKind::Gaussian}) {
        spec.kind = k;
        const auto trace = make_workload(spec);
        const auto s = hdls::util::summarize(trace);
        EXPECT_NEAR(s.mean, spec.mean_seconds, 0.05 * spec.mean_seconds) << workload_name(k);
        EXPECT_NEAR(s.cov, spec.cov, 0.05) << workload_name(k);
    }
}

TEST(SyntheticWorkloadTest, ConstantHasZeroCov) {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Constant;
    spec.iterations = 1000;
    const auto s = hdls::util::summarize(make_workload(spec));
    EXPECT_DOUBLE_EQ(s.cov, 0.0);
    EXPECT_DOUBLE_EQ(s.min, s.max);
}

TEST(SyntheticWorkloadTest, ExponentialCovIsOne) {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Exponential;
    spec.iterations = 300000;
    spec.mean_seconds = 1e-3;
    const auto s = hdls::util::summarize(make_workload(spec));
    EXPECT_NEAR(s.cov, 1.0, 0.05);
}

TEST(SyntheticWorkloadTest, RampsAreMonotone) {
    WorkloadSpec spec;
    spec.iterations = 1000;
    spec.kind = WorkloadKind::IncreasingRamp;
    auto inc = make_workload(spec);
    EXPECT_TRUE(std::is_sorted(inc.begin(), inc.end()));
    spec.kind = WorkloadKind::DecreasingRamp;
    auto dec = make_workload(spec);
    EXPECT_TRUE(std::is_sorted(dec.rbegin(), dec.rend()));
    // Same total work either way.
    EXPECT_NEAR(std::accumulate(inc.begin(), inc.end(), 0.0),
                std::accumulate(dec.begin(), dec.end(), 0.0), 1e-9);
}

TEST(SyntheticWorkloadTest, BimodalHasTwoLevels) {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Bimodal;
    spec.iterations = 10000;
    spec.cov = 0.8;
    const auto trace = make_workload(spec);
    std::set<double> distinct(trace.begin(), trace.end());
    EXPECT_EQ(distinct.size(), 2u);
    EXPECT_NEAR(*distinct.rbegin() / *distinct.begin(), 10.0, 1e-9);
}

TEST(SyntheticWorkloadTest, DeterministicPerSeed) {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Exponential;
    spec.iterations = 100;
    const auto a = make_workload(spec);
    const auto b = make_workload(spec);
    EXPECT_EQ(a, b);
    spec.seed ^= 1;
    EXPECT_NE(make_workload(spec), a);
}

TEST(SyntheticWorkloadTest, NameRoundTripAndValidation) {
    for (const WorkloadKind k :
         {WorkloadKind::Constant, WorkloadKind::Uniform, WorkloadKind::Gaussian,
          WorkloadKind::Exponential, WorkloadKind::Bimodal, WorkloadKind::IncreasingRamp,
          WorkloadKind::DecreasingRamp}) {
        EXPECT_EQ(workload_from_string(workload_name(k)), k);
    }
    EXPECT_EQ(workload_from_string("nope"), std::nullopt);
    WorkloadSpec bad;
    bad.mean_seconds = 0.0;
    EXPECT_THROW((void)make_workload(bad), std::invalid_argument);
    bad.mean_seconds = 1.0;
    bad.cov = -1.0;
    EXPECT_THROW((void)make_workload(bad), std::invalid_argument);
}

}  // namespace
