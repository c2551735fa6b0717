#include "apps/mandelbrot.hpp"

#include <algorithm>

#include "simd/dispatch.hpp"
#include "util/rng.hpp"

namespace hdls::apps {

simd::MandelbrotGeom mandelbrot_geometry(const MandelbrotConfig& cfg) noexcept {
    simd::MandelbrotGeom g;
    g.re_min = cfg.re_min;
    g.im_min = cfg.im_min;
    g.dx = (cfg.re_max - cfg.re_min) / cfg.width;
    g.dy = (cfg.im_max - cfg.im_min) / cfg.height;
    g.width = cfg.width;
    g.max_iter = cfg.max_iter;
    return g;
}

int mandelbrot_iterations(const MandelbrotConfig& cfg, int x, int y) noexcept {
    // Cardioid / period-2 bulb shortcut would keep interior pixels cheap to
    // *classify* in tests; we intentionally do NOT shortcut because the
    // expensive interior pixels are the imbalance the paper relies on.
    // The escape loop lives in simd/batch_kernels.hpp now; scalar_vec<1>
    // executes the identical operation sequence this function historically
    // inlined, so per-pixel results are unchanged bit-for-bit.
    const simd::MandelbrotGeom g = mandelbrot_geometry(cfg);
    int out = 0;
    simd::kernels::mandelbrot_block<simd::scalar_vec<1>>(
        g, static_cast<std::int64_t>(y) * cfg.width + x, &out);
    return out;
}

int mandelbrot_iterations(const MandelbrotConfig& cfg, std::int64_t pixel) noexcept {
    const int x = static_cast<int>(pixel % cfg.width);
    const int y = static_cast<int>(pixel / cfg.width);
    return mandelbrot_iterations(cfg, x, y);
}

void mandelbrot_iterations_batch(const MandelbrotConfig& cfg, std::int64_t first_pixel,
                                 std::int64_t count, int* out) noexcept {
    simd::run_mandelbrot_batch(mandelbrot_geometry(cfg), first_pixel, count, out);
}

namespace {
constexpr int kUncomputed = -1;

/// Per-call scratch block: big enough to amortize dispatch, small enough
/// to stay in L1 alongside the image cells it feeds.
constexpr std::int64_t kPixelBlock = 512;
}  // namespace

MandelbrotImage::MandelbrotImage(const MandelbrotConfig& cfg)
    : cfg_(cfg),
      data_(std::make_unique<int[]>(static_cast<std::size_t>(cfg.pixels()))) {
    std::fill_n(data_.get(), cfg.pixels(), kUncomputed);
}

void MandelbrotImage::compute_pixel(std::int64_t pixel) noexcept {
    const int v = mandelbrot_iterations(cfg_, pixel);
    int& cell = data_[static_cast<std::size_t>(pixel)];
    if (cell == kUncomputed) {
        computed_.fetch_add(1, std::memory_order_relaxed);
    }
    cell = v;
}

void MandelbrotImage::compute_range(std::int64_t begin, std::int64_t end) noexcept {
    const simd::MandelbrotGeom g = mandelbrot_geometry(cfg_);
    int block[kPixelBlock];
    for (std::int64_t at = begin; at < end; at += kPixelBlock) {
        const std::int64_t n = std::min(kPixelBlock, end - at);
        simd::run_mandelbrot_batch(g, at, n, block);
        std::int64_t newly = 0;
        for (std::int64_t l = 0; l < n; ++l) {
            int& cell = data_[static_cast<std::size_t>(at + l)];
            if (cell == kUncomputed) {
                ++newly;
            }
            cell = block[l];
        }
        if (newly > 0) {
            computed_.fetch_add(newly, std::memory_order_relaxed);
        }
    }
}

std::int64_t MandelbrotImage::uncomputed() const noexcept {
    return cfg_.pixels() - computed_.load(std::memory_order_relaxed);
}

std::uint64_t MandelbrotImage::checksum() const noexcept {
    // Position-sensitive but order-independent: hash(i, v_i) XOR-folded.
    std::uint64_t h = 0;
    const std::size_t n = static_cast<std::size_t>(cfg_.pixels());
    for (std::size_t i = 0; i < n; ++i) {
        h ^= util::mix64((static_cast<std::uint64_t>(i) << 20) ^
                         static_cast<std::uint64_t>(static_cast<std::int64_t>(data_[i]) + 1));
    }
    return h;
}

void MandelbrotImage::write_ppm(std::ostream& os) const {
    os << "P2\n" << cfg_.width << ' ' << cfg_.height << "\n255\n";
    for (int y = 0; y < cfg_.height; ++y) {
        for (int x = 0; x < cfg_.width; ++x) {
            const int v = data_[static_cast<std::size_t>(y) * cfg_.width + x];
            const int shade =
                v <= 0 ? 0 : static_cast<int>(255.0 * v / cfg_.max_iter);
            os << std::min(shade, 255) << (x + 1 == cfg_.width ? '\n' : ' ');
        }
    }
}

std::vector<double> mandelbrot_cost_trace(const MandelbrotConfig& cfg,
                                          double seconds_per_iteration) {
    const std::int64_t n = cfg.pixels();
    std::vector<int> iters(static_cast<std::size_t>(n));
    simd::run_mandelbrot_batch(mandelbrot_geometry(cfg), 0, n, iters.data());
    std::vector<double> costs(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
        // +1: even an instantly-escaping pixel costs one loop-setup unit.
        costs[static_cast<std::size_t>(i)] =
            seconds_per_iteration * (iters[static_cast<std::size_t>(i)] + 1);
    }
    return costs;
}

}  // namespace hdls::apps
