#include "dls/chunk_formulas.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace hdls::dls {

namespace {

[[nodiscard]] constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) noexcept {
    return (a + b - 1) / b;
}

struct TssShape {
    double first;
    double last;
    double delta;
    std::int64_t steps;
};

[[nodiscard]] TssShape tss_shape(const LoopParams& p) noexcept {
    const auto n = p.total_iterations;
    const auto workers = static_cast<std::int64_t>(p.workers);
    const double first =
        p.tss_first > 0 ? static_cast<double>(p.tss_first)
                        : static_cast<double>(ceil_div(n, 2 * workers));
    const double last =
        p.tss_last > 0 ? static_cast<double>(p.tss_last) : static_cast<double>(p.min_chunk);
    const double f = std::max(first, 1.0);
    const double l = std::clamp(last, 1.0, f);
    const auto steps = static_cast<std::int64_t>(
        std::ceil(2.0 * static_cast<double>(n) / (f + l)));
    const double delta = steps > 1 ? (f - l) / static_cast<double>(steps - 1) : 0.0;
    return {f, l, delta, std::max<std::int64_t>(steps, 1)};
}

}  // namespace

std::int64_t static_chunk(const LoopParams& p, std::int64_t step) noexcept {
    const auto workers = static_cast<std::int64_t>(p.workers);
    if (step >= workers || p.total_iterations <= 0) {
        return 0;
    }
    const std::int64_t base = p.total_iterations / workers;
    const std::int64_t extra = p.total_iterations % workers;
    return base + (step < extra ? 1 : 0);
}

std::int64_t gss_chunk(const LoopParams& p, std::int64_t step) noexcept {
    const auto n = static_cast<double>(p.total_iterations);
    const auto workers = static_cast<double>(p.workers);
    if (p.total_iterations <= 0) {
        return 0;
    }
    if (p.workers == 1) {
        // GSS degenerates to one chunk of N.
        return step == 0 ? p.total_iterations : p.min_chunk;
    }
    const double raw = (n / workers) * std::pow(1.0 - 1.0 / workers, static_cast<double>(step));
    const auto size = static_cast<std::int64_t>(std::ceil(raw));
    return std::max(size, p.min_chunk);
}

std::int64_t tss_chunk(const LoopParams& p, std::int64_t step) noexcept {
    if (p.total_iterations <= 0) {
        return 0;
    }
    const TssShape s = tss_shape(p);
    const double raw = s.first - s.delta * static_cast<double>(step);
    const auto size = static_cast<std::int64_t>(std::llround(raw));
    return std::max({size, static_cast<std::int64_t>(s.last), p.min_chunk});
}

std::int64_t fac2_chunk(const LoopParams& p, std::int64_t step) noexcept {
    if (p.total_iterations <= 0) {
        return 0;
    }
    const auto workers = static_cast<std::int64_t>(p.workers);
    const std::int64_t batch = step / workers;
    // 2^(batch+1); saturate the shift to avoid UB for very deep batches.
    if (batch >= 62) {
        return p.min_chunk;
    }
    const std::int64_t denom = workers << (batch + 1);
    if (denom <= 0) {
        return p.min_chunk;
    }
    return std::max(ceil_div(p.total_iterations, denom), p.min_chunk);
}

std::int64_t tfss_chunk(const LoopParams& p, std::int64_t step) noexcept {
    if (p.total_iterations <= 0) {
        return 0;
    }
    const auto workers = static_cast<std::int64_t>(p.workers);
    const TssShape s = tss_shape(p);
    const std::int64_t batch = step / workers;
    // Mean of TSS chunk sizes for steps [batch*P, batch*P + P).
    const double start_step = static_cast<double>(batch * workers);
    const double mean =
        s.first - s.delta * (start_step + static_cast<double>(workers - 1) / 2.0);
    const auto size = static_cast<std::int64_t>(std::llround(mean));
    return std::max({size, static_cast<std::int64_t>(s.last), p.min_chunk});
}

std::int64_t fsc_chunk(const LoopParams& p) noexcept {
    if (p.total_iterations <= 0) {
        return 0;
    }
    if (p.fsc_chunk > 0) {
        return p.fsc_chunk;
    }
    if (p.sigma > 0.0 && p.overhead_h > 0.0 && p.workers > 1) {
        const auto n = static_cast<double>(p.total_iterations);
        const auto workers = static_cast<double>(p.workers);
        const double num = std::numbers::sqrt2 * n * p.overhead_h;
        const double den = p.sigma * workers * std::sqrt(std::log(workers));
        const auto size = static_cast<std::int64_t>(std::ceil(std::pow(num / den, 2.0 / 3.0)));
        return std::max(size, p.min_chunk);
    }
    // Fallback when the probabilistic inputs are unknown: a quarter of the
    // STATIC chunk, a common practical choice.
    return std::max(ceil_div(p.total_iterations, 4 * static_cast<std::int64_t>(p.workers)),
                    p.min_chunk);
}

std::int64_t rnd_chunk(const LoopParams& p, std::int64_t step) noexcept {
    if (p.total_iterations <= 0) {
        return 0;
    }
    const auto workers = static_cast<std::int64_t>(p.workers);
    std::int64_t lo = p.rnd_lo > 0 ? p.rnd_lo
                                   : std::max<std::int64_t>(1, p.total_iterations / (100 * workers));
    std::int64_t hi = p.rnd_hi > 0 ? p.rnd_hi
                                   : std::max<std::int64_t>(lo, p.total_iterations / (2 * workers));
    lo = std::max(lo, p.min_chunk);
    hi = std::max(hi, lo);
    const std::uint64_t h = util::mix64(p.seed ^ util::mix64(static_cast<std::uint64_t>(step)));
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<std::int64_t>(h % span);
}

std::int64_t chunk_size_for_step(Technique t, const LoopParams& p, std::int64_t step,
                                 int /*worker*/) {
    if (step < 0) {
        throw std::invalid_argument("chunk_size_for_step: step must be >= 0");
    }
    switch (t) {
        case Technique::Static:
            return static_chunk(p, step);
        case Technique::SS:
            return p.total_iterations > 0 ? std::max<std::int64_t>(1, p.min_chunk) : 0;
        case Technique::FSC:
            return fsc_chunk(p);
        case Technique::GSS:
            return gss_chunk(p, step);
        case Technique::TSS:
            return tss_chunk(p, step);
        case Technique::FAC2:
            return fac2_chunk(p, step);
        case Technique::TFSS:
            return tfss_chunk(p, step);
        case Technique::RND:
            return rnd_chunk(p, step);
        case Technique::FAC:
        case Technique::WF:
        case Technique::AWFB:
        case Technique::AWFC:
        case Technique::AWFD:
        case Technique::AWFE:
            break;
    }
    throw std::invalid_argument(std::string("chunk_size_for_step: technique ") +
                                std::string(technique_name(t)) +
                                " has no step-indexed form (see supports_step_indexed)");
}

StepStarts::StepStarts(Technique t, const LoopParams& p) : technique_(t), params_(p) {
    (void)chunk_size_for_step(t, p, 0);  // rejects techniques without a step-indexed form
    if (p.total_iterations > 0 && (t == Technique::SS || t == Technique::FSC)) {
        fixed_ = chunk_size_for_step(t, p, 0);
    }
}

std::int64_t StepStarts::start(std::int64_t step) {
    const std::int64_t n = params_.total_iterations;
    if (n <= 0 || step <= 0) {
        return 0;
    }
    if (fixed_ > 0) {
        return step >= ceil_div(n, fixed_) ? n : step * fixed_;
    }
    if (technique_ == Technique::Static) {
        const auto workers = static_cast<std::int64_t>(params_.workers);
        return step >= workers ? n : step * (n / workers) + std::min(step, n % workers);
    }
    if (step < prefix_step_) {
        prefix_step_ = 0;
        prefix_start_ = 0;
    }
    while (prefix_step_ < step && prefix_start_ < n) {
        const std::int64_t hint = chunk_size_for_step(technique_, params_, prefix_step_);
        if (hint <= 0) {
            prefix_start_ = n;
            break;
        }
        prefix_start_ += hint;
        ++prefix_step_;
    }
    return std::min(prefix_start_, n);
}

}  // namespace hdls::dls
