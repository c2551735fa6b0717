#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hdls::util {

void OnlineStats::add(double x) noexcept {
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double OnlineStats::cov() const noexcept {
    // |mean| in the denominator: a dispersion measure must not flip sign
    // for negative-mean series.
    const double m = mean();
    return m != 0.0 ? stddev() / std::abs(m) : 0.0;
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
    if (other.n_ == 0) {
        return;
    }
    if (n_ == 0) {
        *this = other;
        return;
    }
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double percentile_sorted(std::span<const double> sorted, double q) noexcept {
    if (sorted.empty()) {
        return 0.0;
    }
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Summary summarize(std::span<const double> values) {
    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    return summarize_sorted(sorted);
}

Summary summarize_sorted(std::span<const double> sorted) {
    Summary s;
    s.count = sorted.size();
    if (sorted.empty()) {
        return s;
    }
    OnlineStats acc;
    for (const double v : sorted) {
        acc.add(v);
    }
    s.mean = acc.mean();
    s.stddev = acc.stddev();
    s.cov = acc.cov();
    s.min = sorted.front();
    s.max = sorted.back();
    s.sum = acc.sum();
    s.p25 = percentile_sorted(sorted, 0.25);
    s.median = percentile_sorted(sorted, 0.50);
    s.p75 = percentile_sorted(sorted, 0.75);
    s.p99 = percentile_sorted(sorted, 0.99);
    return s;
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
    if (!(hi > lo) || bins == 0) {
        throw std::invalid_argument("Histogram: need hi > lo and bins > 0");
    }
    counts_.assign(bins, 0);
}

void Histogram::add(double x) noexcept {
    ++total_;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    if (x >= hi_) {
        ++overflow_;
        return;
    }
    const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
    auto bin = static_cast<std::size_t>((x - lo_) / w);
    bin = std::min(bin, counts_.size() - 1);
    ++counts_[bin];
}

std::size_t Histogram::bin_count(std::size_t bin) const {
    if (bin >= counts_.size()) {
        throw std::out_of_range("Histogram::bin_count");
    }
    return counts_[bin];
}

}  // namespace hdls::util
