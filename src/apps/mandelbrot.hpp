#pragma once
/// \file mandelbrot.hpp
/// The Mandelbrot application of the paper's evaluation.
///
/// Mandelbrot is the canonical high-imbalance DLS kernel: escape-time
/// iteration counts vary from a handful (far exterior) to max_iter
/// (interior points), and interior pixels cluster spatially — exactly the
/// "algorithmic variation" the paper cites as motivation. The same kernel
/// serves three roles here:
///   1. real compute kernel for the thread-backed examples/tests,
///   2. per-pixel iteration counts -> virtual-cost trace for the simulator,
///   3. image output so scheduling correctness is verifiable bit-for-bit.
///
/// The escape loop itself runs through the SIMD batch kernels (src/simd/):
/// compute_range and the cost trace dispatch whole pixel ranges to the
/// active backend (scalar / AVX2 / NEON — HDLS_SIMD), with the viewport
/// geometry hoisted once per chunk instead of recomputed per pixel. Every
/// backend produces bit-identical iteration counts, so checksums are
/// backend-invariant.

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <vector>

#include "simd/batch_kernels.hpp"

namespace hdls::apps {

/// Viewport and iteration budget of a Mandelbrot rendering.
struct MandelbrotConfig {
    int width = 1024;
    int height = 1024;
    int max_iter = 512;
    double re_min = -2.1;
    double re_max = 0.6;
    double im_min = -1.35;
    double im_max = 1.35;

    [[nodiscard]] std::int64_t pixels() const noexcept {
        return static_cast<std::int64_t>(width) * height;
    }
};

/// The chunk-invariant geometry of a config: dx/dy and the viewport
/// origin, computed once per config/chunk instead of once per pixel.
[[nodiscard]] simd::MandelbrotGeom mandelbrot_geometry(const MandelbrotConfig& cfg) noexcept;

/// Escape-time iterations of pixel (x, y): the number of z <- z^2 + c steps
/// until |z| > 2, capped at max_iter (pixel centers are sampled).
[[nodiscard]] int mandelbrot_iterations(const MandelbrotConfig& cfg, int x, int y) noexcept;

/// Same, addressed by linear pixel index (row-major) — the loop-iteration
/// space the schedulers partition.
[[nodiscard]] int mandelbrot_iterations(const MandelbrotConfig& cfg, std::int64_t pixel) noexcept;

/// Batch form: escape iterations of pixels [first_pixel, first_pixel +
/// count) written to out[0..count), N lanes at a time through the active
/// SIMD backend. Bit-identical to count calls of mandelbrot_iterations.
void mandelbrot_iterations_batch(const MandelbrotConfig& cfg, std::int64_t first_pixel,
                                 std::int64_t count, int* out) noexcept;

/// Render target accumulating per-pixel iteration counts.
class MandelbrotImage {
public:
    explicit MandelbrotImage(const MandelbrotConfig& cfg);

    /// Computes one pixel (thread-safe for distinct pixels).
    void compute_pixel(std::int64_t pixel) noexcept;

    /// Computes [begin, end) — the natural chunk body — through the SIMD
    /// batch kernel, geometry hoisted once per call.
    void compute_range(std::int64_t begin, std::int64_t end) noexcept;

    [[nodiscard]] const MandelbrotConfig& config() const noexcept { return cfg_; }
    [[nodiscard]] std::span<const int> data() const noexcept {
        return {data_.get(), static_cast<std::size_t>(cfg_.pixels())};
    }

    /// Number of pixels whose value is still the "uncomputed" sentinel.
    /// O(1): maintained as a computed-pixel count, not a full scan.
    [[nodiscard]] std::int64_t uncomputed() const noexcept;

    /// Order-independent content hash (verifies scheduler correctness).
    [[nodiscard]] std::uint64_t checksum() const noexcept;

    /// Grayscale PPM (P2) dump for eyeballing example output.
    void write_ppm(std::ostream& os) const;

private:
    MandelbrotConfig cfg_;
    std::unique_ptr<int[]> data_;
    /// Pixels whose sentinel has been overwritten (relaxed: the count is
    /// only totalled after the loop's join, never used for synchronization).
    std::atomic<std::int64_t> computed_{0};
};

/// Virtual-cost trace for the simulator: cost of loop iteration i =
/// `seconds_per_iteration` * escape iterations of pixel i. This is the
/// Mandelbrot workload of Figures 4-7.
[[nodiscard]] std::vector<double> mandelbrot_cost_trace(const MandelbrotConfig& cfg,
                                                        double seconds_per_iteration);

}  // namespace hdls::apps
