/// \file test_util.cpp
/// Unit tests for the utility layer: RNG, statistics, tables, CLI parsing,
/// the chunk clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "util/chunk_clock.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace hdls::util;

// ---------------------------------------------------------------- SplitMix64

TEST(SplitMix64Test, MatchesPublishedTestVector) {
    // First outputs for seed 0, as published with the reference
    // implementation (Vigna).
    SplitMix64 sm(0);
    EXPECT_EQ(sm.next(), 0xE220A8397B1DCDAFULL);
    EXPECT_EQ(sm.next(), 0x6E789E6AA1B965F4ULL);
}

TEST(SplitMix64Test, DistinctSeedsDistinctStreams) {
    SplitMix64 a(1);
    SplitMix64 b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(SplitMix64Test, Mix64IsStatelessAndConsistent) {
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
    SplitMix64 sm(42);
    EXPECT_EQ(sm.next(), mix64(42));
}

// ---------------------------------------------------------------- Xoshiro256

TEST(Xoshiro256Test, DeterministicForSeed) {
    Xoshiro256 a(123);
    Xoshiro256 b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Xoshiro256Test, Uniform01InRange) {
    Xoshiro256 rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Xoshiro256Test, Uniform01MeanIsHalf) {
    Xoshiro256 rng(11);
    OnlineStats s;
    for (int i = 0; i < 100000; ++i) {
        s.add(rng.uniform01());
    }
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Xoshiro256Test, UniformIntRespectsBounds) {
    Xoshiro256 rng(13);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        const auto v = rng.uniform_int(-3, 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 5);
        saw_lo |= (v == -3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Xoshiro256Test, UniformIntDegenerateRange) {
    Xoshiro256 rng(17);
    EXPECT_EQ(rng.uniform_int(4, 4), 4);
    EXPECT_EQ(rng.uniform_int(9, 2), 9);  // hi < lo clamps to lo
}

TEST(Xoshiro256Test, NormalMomentsApproximatelyCorrect) {
    Xoshiro256 rng(19);
    OnlineStats s;
    for (int i = 0; i < 200000; ++i) {
        s.add(rng.normal(10.0, 3.0));
    }
    EXPECT_NEAR(s.mean(), 10.0, 0.05);
    EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Xoshiro256Test, ExponentialMeanApproximatelyCorrect) {
    Xoshiro256 rng(23);
    OnlineStats s;
    for (int i = 0; i < 200000; ++i) {
        s.add(rng.exponential(0.25));
    }
    EXPECT_NEAR(s.mean(), 0.25, 0.01);
    EXPECT_GE(s.min(), 0.0);
}

TEST(Xoshiro256Test, JumpDecorrelatesStreams) {
    Xoshiro256 a(31);
    Xoshiro256 b(31);
    b.jump();
    int equal = 0;
    for (int i = 0; i < 1000; ++i) {
        equal += (a.next() == b.next()) ? 1 : 0;
    }
    EXPECT_EQ(equal, 0);
}

// --------------------------------------------------------------- OnlineStats

TEST(OnlineStatsTest, KnownSmallSample) {
    OnlineStats s;
    for (const double v : {1.0, 2.0, 3.0, 4.0}) {
        s.add(v);
    }
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(OnlineStatsTest, EmptyIsSafe) {
    const OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.cov(), 0.0);
}

TEST(OnlineStatsTest, MergeMatchesSequential) {
    Xoshiro256 rng(37);
    OnlineStats all;
    OnlineStats a;
    OnlineStats b;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.normal(5, 2);
        all.add(v);
        (i % 2 == 0 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStatsTest, CovIsStddevOverMean) {
    OnlineStats s;
    s.add(2.0);
    s.add(4.0);
    EXPECT_NEAR(s.cov(), s.stddev() / 3.0, 1e-12);
}

TEST(OnlineStatsTest, CovOfNegativeMeanSeriesIsPositive) {
    // Regression: cov() divided by the signed mean, so a negative-mean
    // series reported a negative coefficient of variation. Dispersion must
    // be sign-invariant: cov({-x}) == cov({x}).
    OnlineStats neg;
    OnlineStats pos;
    for (const double v : {2.0, 4.0, 9.0}) {
        neg.add(-v);
        pos.add(v);
    }
    EXPECT_GT(neg.cov(), 0.0);
    EXPECT_NEAR(neg.cov(), pos.cov(), 1e-12);
    EXPECT_NEAR(neg.cov(), neg.stddev() / 5.0, 1e-12);  // |mean| = 5
}

// ------------------------------------------------------------------ Summary

TEST(SummaryTest, PercentilesOfKnownSample) {
    const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    const Summary s = summarize(v);
    EXPECT_EQ(s.count, 10u);
    EXPECT_DOUBLE_EQ(s.median, 5.5);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 10.0);
    EXPECT_NEAR(s.p25, 3.25, 1e-12);
    EXPECT_NEAR(s.p75, 7.75, 1e-12);
    EXPECT_DOUBLE_EQ(s.sum, 55.0);
}

TEST(SummaryTest, EmptyInput) {
    const Summary s = summarize(std::span<const double>{});
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.mean, 0.0);
    EXPECT_EQ(summarize_sorted(std::span<const double>{}).count, 0u);
}

TEST(SummaryTest, SortedEntryPointMatchesSummarize) {
    const std::vector<double> v = {0.3, -2.5, 7.0, 0.1, 0.3, 1e-9, 4.25};
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    const Summary a = summarize(v);
    const Summary b = summarize_sorted(sorted);
    EXPECT_EQ(a.count, b.count);
    for (const auto field : {&Summary::mean, &Summary::stddev, &Summary::cov, &Summary::min,
                             &Summary::p25, &Summary::median, &Summary::p75, &Summary::p99,
                             &Summary::max, &Summary::sum}) {
        EXPECT_EQ(a.*field, b.*field);
    }
}

TEST(SummaryTest, PercentileSortedEdges) {
    const std::vector<double> v = {10, 20, 30};
    EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 30.0);
    EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.5), 20.0);
}

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, BinningAndOverflow) {
    Histogram h(0.0, 10.0, 5);
    h.add(0.5);   // bin 0
    h.add(3.0);   // bin 1
    h.add(9.99);  // bin 4
    h.add(-1.0);  // underflow
    h.add(10.0);  // overflow (hi is exclusive)
    EXPECT_EQ(h.bin_count(0), 1u);
    EXPECT_EQ(h.bin_count(1), 1u);
    EXPECT_EQ(h.bin_count(4), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(HistogramTest, InvalidConstructionThrows) {
    EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
    Histogram h(0, 1, 2);
    EXPECT_THROW((void)h.bin_count(2), std::out_of_range);
}

// ---------------------------------------------------------------- TextTable

TEST(TextTableTest, AlignedRendering) {
    TextTable t({"a", "bbb"});
    t.add_row({"12", "3"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find(" a  bbb\n"), std::string::npos);
    EXPECT_NE(s.find("12    3\n"), std::string::npos);
}

TEST(TextTableTest, ArityMismatchThrows) {
    TextTable t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
    EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTableTest, CsvQuoting) {
    TextTable t({"name", "value"});
    t.add_row({"with,comma", "with\"quote"});
    std::ostringstream oss;
    t.print_csv(oss);
    EXPECT_EQ(oss.str(), "name,value\n\"with,comma\",\"with\"\"quote\"\n");
}

TEST(FormatTest, FormatDoubleTrimsZeros) {
    EXPECT_EQ(format_double(12.300, 3), "12.3");
    EXPECT_EQ(format_double(4.0, 2), "4");
    EXPECT_EQ(format_double(0.125, 3), "0.125");
    EXPECT_EQ(format_double(-0.0, 2), "0");
}

TEST(FormatTest, FormatSecondsPicksUnits) {
    EXPECT_EQ(format_seconds(2.5), "2.5 s");
    EXPECT_EQ(format_seconds(0.012), "12 ms");
    EXPECT_EQ(format_seconds(3.4e-6), "3.4 us");
}

// ---------------------------------------------------------------- ArgParser

TEST(ArgParserTest, DefaultsAndOverrides) {
    ArgParser cli("prog", "test");
    cli.add_int("nodes", 16, "node count");
    cli.add_double("scale", 1.0, "scale");
    cli.add_string("name", "abc", "name");
    cli.add_flag("csv", "emit csv");
    EXPECT_TRUE(cli.parse({"--nodes", "8", "--scale=0.5"}));
    EXPECT_EQ(cli.get_int("nodes"), 8);
    EXPECT_DOUBLE_EQ(cli.get_double("scale"), 0.5);
    EXPECT_EQ(cli.get_string("name"), "abc");
    EXPECT_FALSE(cli.get_flag("csv"));
    EXPECT_TRUE(cli.provided("nodes"));
    EXPECT_FALSE(cli.provided("name"));
}

TEST(ArgParserTest, FlagForm) {
    ArgParser cli("prog", "test");
    cli.add_flag("csv", "emit csv");
    EXPECT_TRUE(cli.parse({"--csv"}));
    EXPECT_TRUE(cli.get_flag("csv"));
}

TEST(ArgParserTest, Errors) {
    ArgParser cli("prog", "test");
    cli.add_int("n", 1, "n");
    cli.add_flag("f", "f");
    EXPECT_THROW(cli.parse({"--unknown", "1"}), std::invalid_argument);
    EXPECT_THROW(cli.parse({"--n", "abc"}), std::invalid_argument);
    EXPECT_THROW(cli.parse({"--n"}), std::invalid_argument);
    EXPECT_THROW(cli.parse({"positional"}), std::invalid_argument);
    EXPECT_THROW(cli.parse({"--f=1"}), std::invalid_argument);
    EXPECT_THROW((void)cli.get_int("missing"), std::invalid_argument);
}

TEST(ArgParserTest, HelpReturnsFalse) {
    ArgParser cli("prog", "test");
    cli.add_int("n", 1, "the n value");
    testing::internal::CaptureStdout();
    EXPECT_FALSE(cli.parse({"--help"}));
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("the n value"), std::string::npos);
}

// --------------------------------------------------------------- ChunkClock

/// Every ChunkClock property holds for both sources: the host default (the
/// TSC where usable) and the forced steady_clock fallback.
class ChunkClockSources : public ::testing::TestWithParam<ChunkClock::Source> {};

TEST_P(ChunkClockSources, StampsNeverDecreasePerThread) {
    constexpr std::uint64_t kReads = 1'000'000;
    const ChunkClock shared(GetParam());
    const auto read_many = [&shared](bool& monotone, std::uint64_t& reads) {
        ChunkClock clock = shared;  // one clock per thread, on the same base
        auto prev = clock.now();
        monotone = true;
        for (std::uint64_t i = 1; i < kReads; ++i) {
            const auto t = clock.now();
            monotone = monotone && t >= prev;
            prev = t;
        }
        reads = clock.reads();
    };
    bool monotone_a = false;
    bool monotone_b = false;
    std::uint64_t reads_a = 0;
    std::uint64_t reads_b = 0;
    std::thread a([&] { read_many(monotone_a, reads_a); });
    std::thread b([&] { read_many(monotone_b, reads_b); });
    a.join();
    b.join();
    EXPECT_TRUE(monotone_a);
    EXPECT_TRUE(monotone_b);
    // reads() counts now() calls only, per clock.
    EXPECT_EQ(reads_a, kReads);
    EXPECT_EQ(reads_b, kReads);
    EXPECT_EQ(shared.reads(), 0u);
}

TEST_P(ChunkClockSources, AgreesWithSteadyClockOverASleep) {
    using Steady = std::chrono::steady_clock;
    ChunkClock clock(GetParam());
    // Each chunk-clock stamp is bracketed by steady readings, so a
    // preemption between reads only widens the accepted interval.
    const auto outer0 = Steady::now();
    const auto c0 = clock.now();
    const auto inner0 = Steady::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto inner1 = Steady::now();
    const auto c1 = clock.now();
    const auto outer1 = Steady::now();
    const double measured = std::chrono::duration<double>(c1 - c0).count();
    EXPECT_GE(measured, 0.99 * std::chrono::duration<double>(inner1 - inner0).count());
    EXPECT_LE(measured, 1.01 * std::chrono::duration<double>(outer1 - outer0).count());
}

INSTANTIATE_TEST_SUITE_P(Sources, ChunkClockSources,
                         ::testing::Values(ChunkClock::Source::Auto,
                                           ChunkClock::Source::Steady),
                         [](const ::testing::TestParamInfo<ChunkClock::Source>& info) {
                             return info.param == ChunkClock::Source::Auto ? "Auto" : "Steady";
                         });

TEST(ChunkClockTest, SourceSelection) {
    EXPECT_FALSE(ChunkClock(ChunkClock::Source::Steady).uses_tsc());
    const ChunkClock host;
    EXPECT_EQ(host.uses_tsc(), ChunkClock::tsc_usable());
    if (host.uses_tsc()) {
        EXPECT_GT(host.ns_per_tick(), 0.0);
    }
}

TEST(ChunkClockTest, NegativeTickDeltasClampToZero) {
    using namespace std::chrono_literals;
    const auto base = std::chrono::steady_clock::now();
    const ChunkClock clock(/*ns_per_tick=*/0.5, base, /*tsc_base=*/1000);
    EXPECT_EQ(clock.at_ticks(1010), base + 5ns);
    EXPECT_EQ(clock.at_ticks(1000), base);
    EXPECT_EQ(clock.at_ticks(999), base);
    EXPECT_EQ(clock.at_ticks(0), base);
    EXPECT_EQ(elapsed(base, base + 5ns), 5ns);
    EXPECT_EQ(elapsed(base + 5ns, base), 0ns);
    EXPECT_EQ(elapsed_seconds(base + 1ms, base), 0.0);
}

}  // namespace
