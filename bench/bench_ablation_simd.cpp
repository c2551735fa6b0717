/// \file bench_ablation_simd.cpp
/// Ablation: vectorized chunk execution vs. the scalar reference kernels,
/// with intra-chunk software prefetch and thread pinning layered on top.
///
/// Unlike the simulator-driven ablations, this bench executes the *real*
/// application kernels (src/simd/) on the host CPU and reports measured
/// throughput per technique:
///
///   mandelbrot — pixels/s of the escape-time batch kernel:
///                scalar vs vector vs vector+pin;
///   psia       — candidate points/s of the spin-image support filter:
///                scalar vs vector vs vector+prefetch vs
///                vector+prefetch+pin;
///   awf        — per-backend probed rates turned into
///                dls::awf_weights feedback for a cluster where one node
///                is stuck on the scalar backend — AWF-B's weights must
///                shift toward the vectorized nodes.
///
/// Every variant of one workload must produce a bit-identical checksum
/// (the kernels share per-lane operation order and FMA is disabled); a
/// mismatch is a correctness bug and the bench exits nonzero so CI's
/// perf-smoke job fails loudly.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "apps/mandelbrot.hpp"
#include "apps/psia.hpp"
#include "common/json_report.hpp"
#include "dls/adaptive.hpp"
#include "minimpi/host_topology.hpp"
#include "simd/dispatch.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using hdls::util::format_double;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One execution technique of the sweep.
struct Variant {
    std::string name;
    hdls::simd::SimdMode mode = hdls::simd::SimdMode::ForceScalar;
    bool prefetch = false;  ///< PSIA gather prefetch (mandelbrot ignores it)
    bool pin = false;       ///< pin the calling thread to the plan's CPU 0
};

/// Pins the calling thread for a variant and restores afterwards (RAII so
/// checksum-mismatch exits do not leave the shell's affinity mangled).
class ScopedPin {
public:
    ScopedPin(bool enable, const minimpi::HostTopology& host) {
        if (!enable) {
            return;
        }
        saved_ = minimpi::current_thread_affinity();
        const std::vector<int> plan =
            host.plan(minimpi::PinPolicy::Compact, /*first_worker=*/0, /*count=*/1);
        if (!plan.empty()) {
            minimpi::pin_current_thread(plan.front());
        }
    }
    ~ScopedPin() {
        if (!saved_.empty()) {
            minimpi::set_current_thread_affinity(saved_);
        }
    }
    ScopedPin(const ScopedPin&) = delete;
    ScopedPin& operator=(const ScopedPin&) = delete;

private:
    std::vector<int> saved_;
};

[[nodiscard]] std::uint64_t spin_image_checksum(const hdls::apps::SpinImage& image,
                                                std::uint64_t salt) {
    std::uint64_t sum = 0;
    std::uint64_t idx = 0;
    for (const float v : image.data()) {
        std::uint32_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        sum ^= hdls::util::mix64((salt << 40) ^ (idx++ << 24) ^ bits);
    }
    return sum;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace hdls;
    util::ArgParser cli("bench_ablation_simd",
                        "Measured kernel throughput: scalar vs vector vs "
                        "vector+prefetch vs vector+pin, plus the AWF-B "
                        "weight shift when one node is stuck on scalar");
    cli.add_flag("csv", "emit CSV instead of aligned text tables");
    cli.add_double("scale", 1.0, "workload scale in (0,1]");
    cli.add_int("reps", 3, "timed repetitions per variant");
    cli.add_int("awf_nodes", 4, "node count of the AWF weight-shift demo");
    bench::add_json_option(cli);
    try {
        if (!cli.parse(argc, argv)) {
            return 0;
        }
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    const double scale = std::clamp(cli.get_double("scale"), 1e-3, 1.0);
    const int reps = std::max(1, static_cast<int>(cli.get_int("reps")));
    const int awf_nodes = std::max(2, static_cast<int>(cli.get_int("awf_nodes")));

    const simd::Backend best = simd::best_backend();
    const bool has_vector = best != simd::Backend::Scalar;
    const minimpi::HostTopology host = minimpi::HostTopology::detect();

    std::vector<Variant> mandel_variants;
    mandel_variants.push_back({"scalar", simd::SimdMode::ForceScalar, false, false});
    if (has_vector) {
        mandel_variants.push_back({"vector", simd::SimdMode::Native, false, false});
        mandel_variants.push_back({"vector+pin", simd::SimdMode::Native, false, true});
    }
    std::vector<Variant> psia_variants;
    psia_variants.push_back({"scalar", simd::SimdMode::ForceScalar, false, false});
    if (has_vector) {
        psia_variants.push_back({"vector", simd::SimdMode::Native, false, false});
        psia_variants.push_back({"vector+prefetch", simd::SimdMode::Native, true, false});
        psia_variants.push_back(
            {"vector+prefetch+pin", simd::SimdMode::Native, true, true});
    }

    bench::JsonReport json("bench_ablation_simd");
    json.add_param("scale", scale);
    json.add_param("reps", static_cast<std::int64_t>(reps));
    json.add_param("best_backend", std::string(simd::backend_name(best)));
    json.add_param("sockets", static_cast<std::int64_t>(host.sockets().size()));
    json.add_param("cpus", static_cast<std::int64_t>(host.total_cpus()));

    bool checksums_ok = true;

    // --- mandelbrot: pixels/s of the escape-time batch kernel -------------
    apps::MandelbrotConfig mcfg;
    mcfg.width = std::max(64, static_cast<int>(std::lround(512.0 * std::sqrt(scale))));
    mcfg.height = mcfg.width;
    mcfg.max_iter = 256;
    const std::int64_t pixels = mcfg.pixels();

    util::TextTable mandel_table(
        {"variant", "backend", "pixels/s", "speedup", "checksum"});
    std::uint64_t mandel_reference = 0;
    double mandel_scalar_rate = 0.0;
    for (const Variant& v : mandel_variants) {
        simd::set_mode(v.mode);
        const ScopedPin pin(v.pin, host);
        double best_rate = 0.0;
        std::uint64_t sum = 0;
        for (int rep = 0; rep < reps; ++rep) {
            apps::MandelbrotImage image(mcfg);
            const Clock::time_point t0 = Clock::now();
            image.compute_range(0, pixels);
            const double elapsed = seconds_since(t0);
            best_rate = std::max(best_rate, static_cast<double>(pixels) / elapsed);
            sum = image.checksum();
            json.point()
                .label("section", "mandelbrot")
                .label("variant", v.name)
                .label("backend", std::string(simd::backend_name(simd::active_backend())))
                .sample("pixels_per_s", static_cast<double>(pixels) / elapsed);
        }
        if (v.name == "scalar") {
            mandel_reference = sum;
            mandel_scalar_rate = best_rate;
        } else if (sum != mandel_reference) {
            checksums_ok = false;
        }
        mandel_table.add_row(
            {v.name, std::string(simd::backend_name(simd::active_backend())),
             format_double(best_rate / 1e6, 2) + "M",
             format_double(best_rate / mandel_scalar_rate, 2) + "x",
             sum == mandel_reference ? "ok" : "MISMATCH"});
    }

    // --- psia: candidate points/s of the spin-image support filter --------
    const auto cloud_points =
        static_cast<std::size_t>(std::max(4096.0, 20000.0 * scale));
    const apps::PointCloud cloud = apps::PointCloud::synthetic(cloud_points, 42);
    apps::PsiaConfig pcfg;
    pcfg.support_angle_cos = 0.0;  // engage the angle filter lane too
    const std::size_t centers = std::min<std::size_t>(64, cloud.size());
    const std::size_t center_stride = std::max<std::size_t>(1, cloud.size() / centers);

    util::TextTable psia_table(
        {"variant", "backend", "points/s", "speedup", "checksum"});
    std::uint64_t psia_reference = 0;
    double psia_scalar_rate = 0.0;
    for (const Variant& v : psia_variants) {
        simd::set_mode(v.mode);
        const ScopedPin pin(v.pin, host);
        double best_rate = 0.0;
        std::uint64_t sum = 0;
        for (int rep = 0; rep < reps; ++rep) {
            sum = 0;
            const Clock::time_point t0 = Clock::now();
            std::size_t done = 0;
            for (std::size_t c = 0; c < cloud.size(); c += center_stride) {
                const apps::SpinImage image =
                    apps::compute_spin_image(cloud, c, pcfg, v.prefetch);
                sum ^= spin_image_checksum(image, c);
                ++done;
            }
            const double elapsed = seconds_since(t0);
            const double tested = static_cast<double>(done * cloud.size());
            best_rate = std::max(best_rate, tested / elapsed);
            json.point()
                .label("section", "psia")
                .label("variant", v.name)
                .label("backend", std::string(simd::backend_name(simd::active_backend())))
                .sample("points_per_s", tested / elapsed);
        }
        if (v.name == "scalar") {
            psia_reference = sum;
            psia_scalar_rate = best_rate;
        } else if (sum != psia_reference) {
            checksums_ok = false;
        }
        psia_table.add_row(
            {v.name, std::string(simd::backend_name(simd::active_backend())),
             format_double(best_rate / 1e6, 2) + "M",
             format_double(best_rate / psia_scalar_rate, 2) + "x",
             sum == psia_reference ? "ok" : "MISMATCH"});
    }
    simd::set_mode(simd::SimdMode::Auto);

    // --- awf: probed rates -> AWF-B weights, one node stuck on scalar -----
    // How a caller turns measured speeds into weights: measure what each
    // placement can actually sustain and hand the rates to the adaptive
    // weighting (a WF caller would pass them as HierConfig::node_weights). Node 0 reports the scalar rate, every other node the best
    // backend's rate, over the same one-second virtual window.
    const double rate_scalar =
        simd::probe_mandelbrot_rate(simd::Backend::Scalar, 0.01);
    const double rate_best = simd::probe_mandelbrot_rate(best, 0.01);
    std::vector<dls::NodeFeedback> feedback(static_cast<std::size_t>(awf_nodes));
    for (std::size_t node = 0; node < feedback.size(); ++node) {
        const double rate = node == 0 ? rate_scalar : rate_best;
        feedback[node].iterations = std::max<std::int64_t>(1, std::llround(rate));
        feedback[node].compute_seconds = 1.0;
    }
    const std::vector<double> weights =
        dls::awf_weights(dls::Technique::AWFB, feedback);

    util::TextTable awf_table({"node", "backend", "probed rate (Mpix/s)", "AWF-B weight"});
    for (std::size_t node = 0; node < weights.size(); ++node) {
        const bool scalar_node = node == 0;
        awf_table.add_row(
            {std::to_string(node),
             std::string(simd::backend_name(scalar_node ? simd::Backend::Scalar : best)),
             format_double((scalar_node ? rate_scalar : rate_best) / 1e6, 2),
             format_double(weights[node], 4)});
        json.point()
            .label("section", "awf")
            .label("node", static_cast<std::int64_t>(node))
            .label("backend",
                   std::string(simd::backend_name(scalar_node ? simd::Backend::Scalar : best)))
            .sample("awf_b_weight", weights[node]);
    }

    std::cout << "SIMD/kernel ablation (measured on this host; best backend: "
              << simd::backend_name(best) << ", " << host.sockets().size()
              << " socket(s) x " << host.total_cpus() << " cpus)\n\n"
              << "Mandelbrot " << mcfg.width << "x" << mcfg.height
              << " (max_iter=" << mcfg.max_iter << "):\n";
    const bool csv = cli.get_flag("csv");
    auto print = [&](util::TextTable& t) { csv ? t.print_csv(std::cout) : t.print(std::cout); };
    print(mandel_table);
    std::cout << "\nPSIA support filter (" << cloud.size() << " points, " << centers
              << " centers):\n";
    print(psia_table);
    std::cout << "\nAWF-B weights, node 0 forced scalar (" << awf_nodes << " nodes):\n";
    print(awf_table);
    if (!has_vector) {
        std::cout << "\n(no vector backend usable on this host: scalar-only sweep)\n";
    }
    std::cout << "\nExpected: the vector variants multiply pixel/point throughput by\n"
                 "roughly the lane width; prefetch adds on top once the cloud\n"
                 "outgrows the caches; checksums are identical everywhere; and\n"
                 "AWF-B's weight for the scalar node drops below 1 while the\n"
                 "vectorized nodes rise above it.\n";
    if (!checksums_ok) {
        std::cerr << "FAIL: backend checksum mismatch (see tables above)\n";
    }
    try {
        bench::maybe_write_json(cli, json);
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    return checksums_ok ? 0 : 1;
}
