#pragma once
/// \file stats.hpp
/// Descriptive statistics used by the simulator reports, the benchmark
/// harness and the test suite.

#include <cstddef>
#include <span>
#include <vector>

namespace hdls::util {

/// Numerically-stable streaming accumulator (Welford's algorithm).
class OnlineStats {
public:
    void add(double x) noexcept;

    [[nodiscard]] std::size_t count() const noexcept { return n_; }
    [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
    /// Sample variance (n-1 denominator); 0 for fewer than two samples.
    [[nodiscard]] double variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;
    /// Coefficient of variation (stddev / |mean|); 0 when the mean is 0.
    [[nodiscard]] double cov() const noexcept;
    [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
    [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
    [[nodiscard]] double sum() const noexcept { return sum_; }

    /// Merge another accumulator into this one (parallel reduction support).
    void merge(const OnlineStats& other) noexcept;

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Five-number-style summary of a sample.
struct Summary {
    std::size_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double cov = 0.0;
    double min = 0.0;
    double p25 = 0.0;
    double median = 0.0;
    double p75 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
    double sum = 0.0;
};

/// Computes a Summary of `values` (copies and sorts internally).
[[nodiscard]] Summary summarize(std::span<const double> values);

/// Computes the Summary of a sample already sorted in ascending order,
/// without a copy; summarize() of the same values gives the same result.
[[nodiscard]] Summary summarize_sorted(std::span<const double> sorted);

/// Linear-interpolated percentile of a *sorted* sample, q in [0,1].
[[nodiscard]] double percentile_sorted(std::span<const double> sorted, double q) noexcept;

/// Fixed-width histogram helper (used by workload characterization tests).
class Histogram {
public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x) noexcept;
    [[nodiscard]] std::size_t bin_count(std::size_t bin) const;
    [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
    [[nodiscard]] std::size_t total() const noexcept { return total_; }
    [[nodiscard]] std::size_t underflow() const noexcept { return underflow_; }
    [[nodiscard]] std::size_t overflow() const noexcept { return overflow_; }

private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
    std::size_t underflow_ = 0;
    std::size_t overflow_ = 0;
};

}  // namespace hdls::util
