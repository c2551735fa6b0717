/// \file test_metrics.cpp
/// The always-on metrics subsystem: sharded counters/histograms under
/// contention, snapshot/delta semantics, Prometheus/JSON exposition, the
/// allocation-free increment path and the stall watchdog (deterministic
/// beat_at/check seams plus a real imbalanced run that must stay quiet).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/hdls.hpp"
#include "metrics/exposition.hpp"
#include "metrics/metrics.hpp"
#include "metrics/sampler.hpp"
#include "metrics/watchdog.hpp"
#include "sim/simulator.hpp"

// ------------------------------------------------- allocation instrumentation
// Global operator new/delete replacements for this test binary: when armed,
// every allocation on any thread is counted. The zero-allocation test arms
// the counter around hot-path calls running on the test thread only.

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// gcc pairs its built-in operator-new knowledge with the free() below and
// warns at every inlined delete site; the replacement pair is consistent.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
    if (g_count_allocations.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(size ? size : 1)) {
        return p;
    }
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace hdls;
using metrics::Counter;
using metrics::Gauge;
using metrics::Histogram;
using metrics::Labels;
using metrics::MetricsRegistry;
using metrics::Snapshot;
using metrics::StallWatchdog;

// ------------------------------------------------------------- hot-path math

TEST(MetricsTest, CounterSumsConcurrentIncrementsExactly) {
    MetricsRegistry reg;
    Counter& c = reg.counter("t_ops_total", "ops");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 200'000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                c.inc();
            }
        });
    }
    // Snapshots taken mid-flight must be internally consistent (no tearing
    // beyond the per-shard relaxed reads) and monotonically increasing.
    std::uint64_t last = 0;
    for (int i = 0; i < 50; ++i) {
        const Snapshot s = reg.snapshot();
        ASSERT_EQ(s.entries.size(), 1u);
        EXPECT_GE(s.entries[0].value, last);
        last = s.entries[0].value;
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(c.value(), kThreads * kPerThread);
    EXPECT_EQ(reg.snapshot().entries[0].value, kThreads * kPerThread);
}

TEST(MetricsTest, HistogramMergesConcurrentObservationsExactly) {
    MetricsRegistry reg;
    Histogram& h = reg.histogram("t_lat_ns", "latency");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50'000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h] {
            for (int i = 0; i < kPerThread; ++i) {
                h.observe(static_cast<std::uint64_t>(1) << (i % 12));  // buckets 1..12
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
    std::uint64_t expected_sum = 0;
    for (int i = 0; i < kPerThread; ++i) {
        expected_sum += static_cast<std::uint64_t>(1) << (i % 12);
    }
    EXPECT_EQ(h.sum(), expected_sum * kThreads);
    // 2^k has bit_width k+1: the observations land in buckets 1..12.
    const Snapshot s = reg.snapshot();
    std::uint64_t bucketed = 0;
    for (const std::uint64_t b : s.entries[0].buckets) {
        bucketed += b;
    }
    EXPECT_EQ(bucketed, h.count());
    EXPECT_EQ(s.entries[0].buckets[0], 0u);
    EXPECT_GT(s.entries[0].buckets[1], 0u);
    EXPECT_GT(s.entries[0].buckets[12], 0u);
}

TEST(MetricsTest, LogBucketsCoverTheFullRange) {
    EXPECT_EQ(Histogram::bucket_of(0), 0);
    EXPECT_EQ(Histogram::bucket_of(1), 1);
    EXPECT_EQ(Histogram::bucket_of(2), 2);
    EXPECT_EQ(Histogram::bucket_of(3), 2);
    EXPECT_EQ(Histogram::bucket_of(4), 3);
    EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), Histogram::kBuckets - 1);
    EXPECT_EQ(Histogram::bucket_upper(0), 0);
    EXPECT_EQ(Histogram::bucket_upper(3), 7);
}

TEST(MetricsTest, RegistryIsIdempotentPerNameAndLabelSet) {
    MetricsRegistry reg;
    Counter& a = reg.counter("t_total", "t", {{"level", "0"}});
    Counter& b = reg.counter("t_total", "t", {{"level", "0"}});
    Counter& c = reg.counter("t_total", "t", {{"level", "1"}});
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
    a.inc(5);
    c.inc(7);
    const Snapshot s = reg.snapshot();
    ASSERT_EQ(s.entries.size(), 2u);
    EXPECT_EQ(s.counter_total("t_total"), 12u);
    const auto* e0 = s.find("t_total", {{"level", "0"}});
    ASSERT_NE(e0, nullptr);
    EXPECT_EQ(e0->value, 5u);
}

TEST(MetricsTest, SnapshotDeltaSubtractsCountersAndKeepsGauges) {
    MetricsRegistry reg;
    Counter& c = reg.counter("t_total", "t");
    Gauge& g = reg.gauge("t_gauge", "g");
    Histogram& h = reg.histogram("t_ns", "h");
    c.inc(10);
    g.set(42);
    h.observe(100);
    const Snapshot base = reg.snapshot();
    c.inc(3);
    g.set(-7);
    h.observe(100);
    h.observe(200);
    const Snapshot delta = reg.snapshot().delta_since(base);
    EXPECT_EQ(delta.counter_total("t_total"), 3u);
    EXPECT_EQ(delta.find("t_gauge")->gauge, -7);
    EXPECT_EQ(delta.histogram_count("t_ns"), 2u);
    EXPECT_EQ(delta.histogram_sum("t_ns"), 300u);
}

TEST(MetricsTest, DisableSwitchTurnsIncrementsOff) {
    MetricsRegistry reg;
    Counter& c = reg.counter("t_total", "t");
    Histogram& h = reg.histogram("t_ns", "h");
    metrics::set_enabled(false);
    c.inc();
    h.observe(5);
    metrics::set_enabled(true);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    c.inc();
    EXPECT_EQ(c.value(), 1u);
}

// ---------------------------------------------------------------- exposition

TEST(MetricsTest, PrometheusExpositionMatchesGoldenFormat) {
    MetricsRegistry reg;
    Counter& plain = reg.counter("t_requests_total", "requests served");
    Counter& l0 = reg.counter("t_acquires_total", "acquires", {{"level", "0"}});
    Counter& l1 = reg.counter("t_acquires_total", "acquires", {{"level", "1"}});
    Gauge& g = reg.gauge("t_workers", "active workers");
    Histogram& h = reg.histogram("t_lat_ns", "latency");
    plain.inc(3);
    l0.inc(2);
    l1.inc(4);
    g.set(-5);
    h.observe(0);    // bucket 0 (le 0)
    h.observe(1);    // bucket 1 (le 1)
    h.observe(300);  // bucket 9 (le 511)
    h.observe(300);

    const std::string expected =
        "# HELP t_requests_total requests served\n"
        "# TYPE t_requests_total counter\n"
        "t_requests_total 3\n"
        "# HELP t_acquires_total acquires\n"
        "# TYPE t_acquires_total counter\n"
        "t_acquires_total{level=\"0\"} 2\n"
        "t_acquires_total{level=\"1\"} 4\n"
        "# HELP t_workers active workers\n"
        "# TYPE t_workers gauge\n"
        "t_workers -5\n"
        "# HELP t_lat_ns latency\n"
        "# TYPE t_lat_ns histogram\n"
        "t_lat_ns_bucket{le=\"0\"} 1\n"
        "t_lat_ns_bucket{le=\"1\"} 2\n"
        "t_lat_ns_bucket{le=\"3\"} 2\n"
        "t_lat_ns_bucket{le=\"7\"} 2\n"
        "t_lat_ns_bucket{le=\"15\"} 2\n"
        "t_lat_ns_bucket{le=\"31\"} 2\n"
        "t_lat_ns_bucket{le=\"63\"} 2\n"
        "t_lat_ns_bucket{le=\"127\"} 2\n"
        "t_lat_ns_bucket{le=\"255\"} 2\n"
        "t_lat_ns_bucket{le=\"511\"} 4\n"
        "t_lat_ns_bucket{le=\"+Inf\"} 4\n"
        "t_lat_ns_sum 601\n"
        "t_lat_ns_count 4\n";
    EXPECT_EQ(metrics::to_prometheus(reg.snapshot()), expected);
}

TEST(MetricsTest, ExpositionGroupsInterleavedFamiliesUnderOneHeader) {
    // Label sets registered interleaved across families (the shape the
    // per-level runtime families used to have) must still come out as one
    // HELP/TYPE block per family — Prometheus parsers reject duplicates.
    MetricsRegistry reg;
    for (int lv = 0; lv < 3; ++lv) {
        const Labels labels{{"level", std::to_string(lv)}};
        reg.counter("t_a_total", "a", labels).inc(static_cast<std::uint64_t>(lv) + 1);
        reg.counter("t_b_total", "b", labels).inc(1);
    }
    const std::string text = metrics::to_prometheus(reg.snapshot());
    const auto count_of = [&text](const std::string& needle) {
        std::size_t n = 0;
        for (std::size_t pos = text.find(needle); pos != std::string::npos;
             pos = text.find(needle, pos + 1)) {
            ++n;
        }
        return n;
    };
    EXPECT_EQ(count_of("# HELP t_a_total"), 1u);
    EXPECT_EQ(count_of("# TYPE t_a_total"), 1u);
    EXPECT_EQ(count_of("# HELP t_b_total"), 1u);
    EXPECT_EQ(count_of("# TYPE t_b_total"), 1u);
    // All of a family's samples sit directly under its single header.
    EXPECT_LT(text.find("t_a_total{level=\"2\"} 3"), text.find("# HELP t_b_total"));
}

TEST(MetricsTest, OverflowBucketRendersOnlyUnderInf) {
    // The last bucket is unbounded: an observation beyond the largest
    // finite edge must not be attributed to any finite le bound.
    MetricsRegistry reg;
    Histogram& h = reg.histogram("t_ns", "h");
    h.observe(~std::uint64_t{0});
    const std::string text = metrics::to_prometheus(reg.snapshot());
    const std::string top_edge =
        std::to_string(Histogram::bucket_upper(Histogram::kBuckets - 1));
    EXPECT_EQ(text.find("le=\"" + top_edge + "\""), std::string::npos);
    EXPECT_NE(text.find("t_ns_bucket{le=\"+Inf\"} 1"), std::string::npos);
    EXPECT_NE(text.find("t_ns_count 1"), std::string::npos);
    const std::string json = metrics::to_json(reg.snapshot());
    EXPECT_EQ(json.find(top_edge), std::string::npos);
}

TEST(MetricsTest, PrometheusFileWriteIsAtomicAndReadable) {
    MetricsRegistry reg;
    reg.counter("t_total", "t").inc(9);
    const std::string path = ::testing::TempDir() + "hdls_metrics_test.prom";
    ASSERT_TRUE(metrics::write_prometheus_file(reg.snapshot(), path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("# TYPE t_total counter"), std::string::npos);
    EXPECT_NE(content.str().find("t_total 9"), std::string::npos);
    std::remove(path.c_str());
}

TEST(MetricsTest, JsonExportCarriesAllThreeFamilies) {
    MetricsRegistry reg;
    reg.counter("t_total", "t", {{"level", "0"}}).inc(2);
    reg.gauge("t_gauge", "g").set(11);
    reg.histogram("t_ns", "h").observe(5);
    const std::string json = metrics::to_json(reg.snapshot());
    EXPECT_NE(json.find("\"t_total{level=\\\"0\\\"}\":2"), std::string::npos);
    EXPECT_NE(json.find("\"t_gauge\":11"), std::string::npos);
    EXPECT_NE(json.find("\"count\":1"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(MetricsTest, SamplerRetainsABoundedSeries) {
    MetricsRegistry reg;
    Counter& c = reg.counter("t_total", "t");
    metrics::MetricsSampler sampler(reg, std::chrono::milliseconds(1000),
                                    /*max_samples=*/4);
    for (int i = 0; i < 10; ++i) {
        c.inc();
        sampler.sample_now();
    }
    const auto series = sampler.series();
    ASSERT_EQ(series.size(), 4u);
    EXPECT_EQ(series.back().snapshot.counter_total("t_total"), 10u);
    EXPECT_EQ(series.front().snapshot.counter_total("t_total"), 7u);
}

TEST(MetricsTest, ConcurrentStopJoinsTheSamplerThreadExactlyOnce) {
    // Two racing stop() calls (e.g. explicit stop vs. destructor on
    // another thread) must not both join the worker — that is UB. Run the
    // race a few times; TSan in CI checks the interleavings.
    for (int round = 0; round < 20; ++round) {
        MetricsRegistry reg;
        metrics::MetricsSampler sampler(reg, std::chrono::milliseconds(1));
        sampler.start();
        std::thread a([&sampler] { sampler.stop(); });
        std::thread b([&sampler] { sampler.stop(); });
        a.join();
        b.join();
    }
}

TEST(WatchdogTest, ConcurrentStopJoinsTheCheckerThreadExactlyOnce) {
    for (int round = 0; round < 20; ++round) {
        StallWatchdog wd(1);
        wd.start(std::chrono::milliseconds(1));
        std::thread a([&wd] { wd.stop(); });
        std::thread b([&wd] { wd.stop(); });
        a.join();
        b.join();
    }
}

// ------------------------------------------------------- allocation freedom

TEST(MetricsTest, IncrementPathDoesNotAllocate) {
    MetricsRegistry reg;
    Counter& c = reg.counter("t_total", "t");
    Gauge& g = reg.gauge("t_gauge", "g");
    Histogram& h = reg.histogram("t_ns", "h");
    StallWatchdog wd(2);
    wd.enter(0);
    // Warm up thread-local shard indices outside the counted region.
    c.inc();
    h.observe(1);
    wd.beat(0, 1, 0, false, 1e-6);

    g_allocations.store(0);
    g_count_allocations.store(true);
    for (int i = 0; i < 10'000; ++i) {
        c.inc();
        g.add(1);
        h.observe(static_cast<std::uint64_t>(i));
        wd.beat(0, 1, i, false, 1e-6);
    }
    g_count_allocations.store(false);
    EXPECT_EQ(g_allocations.load(), 0u)
        << "hot-path increments (counter/gauge/histogram/beat) must not allocate";
}

// -------------------------------------------------------------- stall watchdog

TEST(WatchdogTest, FlagsInjectedStallNamingLevelAndShard) {
    StallWatchdog::Config cfg;
    cfg.k = 8.0;
    cfg.floor_ns = 1'000'000;  // 1ms
    cfg.min_beats = 2;
    StallWatchdog wd(2, cfg);
    wd.set_shard_probe([] { return std::vector<std::int64_t>{5, 0, 7}; });
    wd.enter(0);
    wd.enter(1);
    // Both workers beat twice with ~1us chunks.
    for (std::uint64_t t : {1'000ull, 2'000ull}) {
        wd.beat_at(t, 0, 2, 64, true, 1e-6);
        wd.beat_at(t, 1, 1, 128, false, 1e-6);
    }
    // Worker 1 keeps making progress; worker 0 goes silent past the floor.
    wd.beat_at(1'800'000, 1, 1, 256, false, 1e-6);
    const auto stalls = wd.check(2'000'000);
    ASSERT_EQ(stalls.size(), 1u);
    EXPECT_EQ(stalls[0].worker, 0);
    EXPECT_EQ(stalls[0].level, 2);
    EXPECT_EQ(stalls[0].last_chunk_start, 64);
    EXPECT_TRUE(stalls[0].prefetch_outstanding);
    EXPECT_EQ(stalls[0].shard_remaining, (std::vector<std::int64_t>{5, 0, 7}));
    EXPECT_EQ(wd.stalls_reported(), 1u);
    const std::string dump = wd.last_dump();
    EXPECT_NE(dump.find("worker 0 stalled"), std::string::npos);
    EXPECT_NE(dump.find("level=2"), std::string::npos);
    EXPECT_NE(dump.find("last_chunk_start=64"), std::string::npos);
    EXPECT_NE(dump.find("prefetch_outstanding=yes"), std::string::npos);
    EXPECT_NE(dump.find("shard_remaining=[5, 0, 7]"), std::string::npos);

    // One-shot per episode: the same silence does not re-report (worker 1
    // keeps beating so only the reported worker 0 is silent).
    wd.beat_at(2'400'000, 1, 1, 0, false, 1e-6);
    EXPECT_TRUE(wd.check(2'500'000).empty());
    EXPECT_EQ(wd.stalls_reported(), 1u);

    // Progress re-arms: a beat followed by a fresh stall fires again.
    wd.beat_at(3'500'000, 0, 2, 512, false, 1e-6);
    wd.beat_at(4'400'000, 1, 1, 0, false, 1e-6);
    EXPECT_TRUE(wd.check(3'600'000).empty());
    const auto again = wd.check(4'600'000);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].worker, 0);
    EXPECT_EQ(again[0].last_chunk_start, 512);
    EXPECT_EQ(wd.stalls_reported(), 2u);

    // A worker that left is exempt however long it stays silent.
    wd.leave(0);
    for (const auto& s : wd.check(900'000'000)) {
        EXPECT_NE(s.worker, 0);
    }
}

TEST(WatchdogTest, StaysSilentForSlowButProgressingWorkers) {
    StallWatchdog::Config cfg;
    cfg.k = 8.0;
    cfg.floor_ns = 1'000'000;
    cfg.min_beats = 2;
    StallWatchdog wd(1, cfg);
    wd.enter(0);
    // Two 100ms chunks: the EMA learns this worker is slow.
    wd.beat_at(100'000'000, 0, 1, 0, false, 0.1);
    wd.beat_at(200'000'000, 0, 1, 100, false, 0.1);
    // 500ms of silence is far past the floor but well inside 8x its EMA.
    EXPECT_TRUE(wd.check(700'000'000).empty());
    // Past the EMA-scaled threshold it does fire.
    EXPECT_EQ(wd.check(1'100'000'000).size(), 1u);
}

TEST(WatchdogTest, RequiresMinimumBeatsAndActiveWorkers) {
    StallWatchdog::Config cfg;
    cfg.floor_ns = 1'000;
    cfg.min_beats = 2;
    StallWatchdog wd(2, cfg);
    wd.enter(0);
    wd.beat_at(100, 0, 0, 0, false, 1e-6);  // one beat only
    EXPECT_TRUE(wd.check(1'000'000).empty());
    // Worker 1 never entered: silent forever, never flagged.
    EXPECT_TRUE(wd.check(10'000'000).empty());
}

TEST(WatchdogTest, NoFalsePositiveOnImbalancedRealRun) {
    // A deliberately imbalanced real run: the last node's chunks are ~20x
    // slower. The default EMA/floor config must not flag anyone.
    StallWatchdog wd(4);
    metrics::install_watchdog(&wd);
    wd.start(std::chrono::milliseconds(5));
    core::ClusterShape shape;
    shape.nodes = 2;
    shape.workers_per_node = 2;
    core::HierConfig cfg;
    cfg.inter = dls::Technique::SS;
    cfg.intra = dls::Technique::SS;
    const auto report = core::run_hierarchical(
        shape, core::Approach::MpiMpi, cfg, 200,
        [](std::int64_t begin, std::int64_t end) {
            for (std::int64_t i = begin; i < end; ++i) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(i % 4 == 3 ? 2000 : 100));
            }
        });
    metrics::install_watchdog(nullptr);
    wd.stop();
    EXPECT_EQ(report.executed_iterations(), 200);
    EXPECT_EQ(wd.stalls_reported(), 0u);
}

// --------------------------------------------------------------- end-to-end

TEST(MetricsTest, RealRunPopulatesTheRuntimeRegistry) {
    const Snapshot before = metrics::registry().snapshot();
    core::ClusterShape shape;
    shape.nodes = 2;
    shape.workers_per_node = 2;
    core::HierConfig cfg;
    cfg.inter = dls::Technique::GSS;
    cfg.intra = dls::Technique::GSS;
    const auto report = core::run_hierarchical(shape, core::Approach::MpiMpi, cfg, 500,
                                               [](std::int64_t, std::int64_t) {});
    const Snapshot delta = metrics::registry().snapshot().delta_since(before);
    EXPECT_GT(delta.counter_total("hdls_exec_chunks_total"), 0u);
    EXPECT_EQ(delta.counter_total("hdls_exec_iterations_total"), 500u);
    EXPECT_GT(delta.counter_total("hdls_sched_acquires_total"), 0u);
    EXPECT_GT(delta.counter_total("hdls_window_locks_total"), 0u);
    EXPECT_GT(delta.histogram_count("hdls_sched_acquire_latency_ns"), 0u);
    // The report carries the same delta and prints a metrics line.
    EXPECT_FALSE(report.metrics.empty());
    EXPECT_EQ(report.metrics.counter_total("hdls_exec_iterations_total"), 500u);
    std::ostringstream oss;
    report.print(oss);
    EXPECT_NE(oss.str().find("metrics:"), std::string::npos);
    // End-of-run gauge reads zero: every worker left.
    EXPECT_EQ(report.metrics.find("hdls_workers_active")->gauge, 0);
}

TEST(MetricsTest, SimulatedRunsCarryAMetricsDelta) {
    const sim::WorkloadTrace trace(std::vector<double>(1000, 1e-6));
    sim::ClusterSpec cluster;
    cluster.nodes = 2;
    cluster.workers_per_node = 2;
    sim::SimConfig cfg;
    cfg.inter = dls::Technique::GSS;
    cfg.intra = dls::Technique::GSS;
    const auto report = sim::simulate(sim::ExecModel::MpiMpi, cluster, cfg, trace);
    EXPECT_FALSE(report.metrics.empty());
    EXPECT_EQ(report.metrics.counter_total("hdls_exec_iterations_total"), 1000u);
    EXPECT_GT(report.metrics.counter_total("hdls_sched_acquires_total"), 0u);
}

TEST(MetricsTest, SimulationsLeaveTheExecutedWorkFamiliesUntouched) {
    const sim::WorkloadTrace trace(std::vector<double>(1000, 1e-6));
    sim::ClusterSpec cluster;
    cluster.nodes = 2;
    cluster.workers_per_node = 2;
    sim::SimConfig cfg;
    cfg.inter = dls::Technique::GSS;
    cfg.intra = dls::Technique::GSS;
    cfg.trace = true;
    const Snapshot before = metrics::registry().snapshot();
    for (const sim::ExecModel model :
         {sim::ExecModel::MpiMpi, sim::ExecModel::MpiOpenMp, sim::ExecModel::MpiOpenMpNowait}) {
        const auto report = sim::simulate(model, cluster, cfg, trace);
        EXPECT_EQ(report.metrics.counter_total("hdls_exec_iterations_total"), 1000u);
    }
    const Snapshot after = metrics::registry().snapshot();
    std::size_t exec_families = 0;
    for (const auto& e : after.entries) {
        if (e.name.rfind("hdls_exec_", 0) != 0) {
            continue;
        }
        ++exec_families;
        const metrics::SnapshotEntry* b = before.find(e.name, e.labels);
        ASSERT_NE(b, nullptr) << e.name;
        EXPECT_EQ(e.value, b->value) << e.name;
        EXPECT_EQ(e.count, b->count) << e.name;
        EXPECT_EQ(e.sum, b->sum) << e.name;
    }
    EXPECT_GE(exec_families, 2u);
}

// ---------------------------------------------------------- overlapping runs

/// PR 6 installed the watchdog into a single global slot with save/restore
/// semantics, which assumed one run at a time: two overlapping runs could
/// restore a dangling pointer on staggered exits. The registry is now a
/// refcounted install stack with removal by identity. The install/uninstall
/// dance below interleaves lifetimes in the worst order (A installs, B
/// installs, A uninstalls) — under the old guard, A's exit would have
/// reinstated its saved nullptr over B's live watchdog.
TEST(WatchdogTest, InstallRegistrySurvivesInterleavedLifetimes) {
    StallWatchdog a(2);
    StallWatchdog b(2);
    metrics::install_watchdog(&a);
    EXPECT_EQ(metrics::active_watchdog(), &a);
    metrics::install_watchdog(&b);
    EXPECT_EQ(metrics::active_watchdog(), &b);
    metrics::uninstall_watchdog(&a);  // out-of-order exit
    EXPECT_EQ(metrics::active_watchdog(), &b);
    metrics::uninstall_watchdog(&b);
    EXPECT_EQ(metrics::active_watchdog(), nullptr);
    // Idempotent: a second uninstall (the runner's RAII + explicit path)
    // is a no-op, not corruption.
    metrics::uninstall_watchdog(&b);
    EXPECT_EQ(metrics::active_watchdog(), nullptr);
}

/// Two metrics-enabled runs overlapping in time, each with its own
/// watchdog, sampler and exposition file — the multi-tenant shape the
/// JobService produces. Runs in CI under TSan: any lost-update or
/// dangling-watchdog race in the registry or the beat path is caught
/// here. Staggered starts/finishes exercise both install orders.
TEST(WatchdogTest, OverlappingMetricsRunsStayIndependent) {
    // Per-process paths: concurrent test processes on one host (two ctest
    // runs of the same build) must not share the exposition files.
    const std::string stem = (std::filesystem::temp_directory_path() /
                              ("hdls_overlap_" + std::to_string(::getpid()) + "_"))
                                 .string();
    const std::string file_a = stem + "a.prom";
    const std::string file_b = stem + "b.prom";
    struct RemoveFiles {
        std::vector<std::string> files;
        ~RemoveFiles() {
            for (const std::string& f : files) {
                std::remove(f.c_str());
            }
        }
    } cleanup{{file_a, file_b}};
    const auto run = [](const std::string& file, std::int64_t n, int sleep_us) {
        core::ClusterShape shape;
        shape.nodes = 2;
        shape.workers_per_node = 2;
        core::HierConfig cfg;
        cfg.inter = dls::Technique::GSS;
        cfg.intra = dls::Technique::SS;
        core::RunOptions opts;
        opts.metrics = true;
        opts.metrics_file = file;
        return core::run_hierarchical(
            shape, core::Approach::MpiMpi, cfg, n,
            [sleep_us](std::int64_t, std::int64_t) {
                std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
            },
            opts);
    };
    core::ExecutionReport ra;
    core::ExecutionReport rb;
    std::thread ta([&] { ra = run(file_a, 300, 50); });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::thread tb([&] { rb = run(file_b, 150, 200); });
    ta.join();
    tb.join();
    EXPECT_EQ(ra.executed_iterations(), 300);
    EXPECT_EQ(rb.executed_iterations(), 150);
    // Both watchdogs uninstalled by identity: the registry is empty.
    EXPECT_EQ(metrics::active_watchdog(), nullptr);
    // Each run wrote its own exposition file.
    for (const std::string& file : {file_a, file_b}) {
        std::ifstream in(file);
        ASSERT_TRUE(in.good()) << file;
        std::stringstream ss;
        ss << in.rdbuf();
        EXPECT_NE(ss.str().find("hdls_exec_iterations_total"), std::string::npos);
    }
}

}  // namespace
