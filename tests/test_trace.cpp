/// \file test_trace.cpp
/// Tests for the chunk-event tracing subsystem: per-worker event-log
/// growth and overflow accounting, recorder/merge semantics, exporter output structure, the
/// derived diagnostics, and end-to-end integration with both executors and
/// the simulator (event counts must agree with the execution reports).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/hdls.hpp"
#include "sim/simulator.hpp"
#include "trace/event_log.hpp"

namespace {

using namespace hdls;
using hdls::dls::Technique;
using trace::EventKind;

// -------------------------------------------------------------- event log

trace::Event numbered_event(std::int64_t i) {
    trace::Event e;
    e.t0 = static_cast<double>(i);
    e.t1 = e.t0;
    e.a = i;
    e.kind = EventKind::ChunkExecBegin;
    return e;
}

std::vector<trace::Event> held_events(const trace::EventLog& log) {
    std::vector<trace::Event> out;
    log.for_each([&](const trace::Event& e) { out.push_back(e); });
    return out;
}

TEST(EventLogTest, NothingIsAllocatedBeforeTheFirstRecord) {
    trace::EventLog log(1 << 16);
    EXPECT_EQ(log.allocated(), 0u);
    EXPECT_EQ(log.size(), 0u);
    EXPECT_TRUE(held_events(log).empty());
    ASSERT_TRUE(log.append(numbered_event(0)));
    // The first record allocates one small block, not the cap.
    EXPECT_EQ(log.allocated(), trace::EventLog::kFirstBlock);
    EXPECT_EQ(log.size(), 1u);
}

TEST(EventLogTest, CapIsExactAndOverflowIsCounted) {
    trace::EventLog log(5);  // no rounding to a power of two
    for (int i = 0; i < 13; ++i) {
        EXPECT_EQ(log.append(numbered_event(i)), i < 5);
    }
    EXPECT_EQ(log.size(), 5u);
    EXPECT_EQ(log.allocated(), 5u);
    EXPECT_EQ(log.dropped(), 8u);
    const auto out = held_events(log);
    ASSERT_EQ(out.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(out[static_cast<std::size_t>(i)].a, i);  // survivors are the oldest
    }
    // Clearing frees the storage: records succeed again, the drop count
    // persists.
    log.clear();
    EXPECT_EQ(log.allocated(), 0u);
    EXPECT_TRUE(log.append(numbered_event(99)));
    EXPECT_EQ(log.dropped(), 8u);
}

TEST(EventLogTest, OrderSurvivesBlockBoundaries) {
    // 64 + 128 + ... + 4096 = 8128 events fill the doubling blocks; the
    // remaining 1872 land in one more block, cut from 4096 to the cap.
    constexpr std::int64_t kCap = 10000;
    trace::EventLog log(kCap);
    for (std::int64_t i = 0; i < kCap; ++i) {
        ASSERT_TRUE(log.append(numbered_event(i)));
    }
    EXPECT_EQ(log.allocated(), static_cast<std::size_t>(kCap));
    EXPECT_FALSE(log.append(numbered_event(kCap)));
    EXPECT_EQ(log.dropped(), 1u);
    const auto out = held_events(log);
    ASSERT_EQ(out.size(), static_cast<std::size_t>(kCap));
    for (std::int64_t i = 0; i < kCap; ++i) {
        ASSERT_EQ(out[static_cast<std::size_t>(i)].a, i);
    }
}

// -------------------------------------------------------------- recorder

TEST(RecorderTest, DisabledTracerRecordsNothingAndCostsNoClock) {
    const trace::WorkerTracer disabled;
    EXPECT_FALSE(disabled.enabled());
    EXPECT_EQ(disabled.now(), 0.0);
    // Must be safe no-ops.
    trace::WorkerTracer copy = disabled;
    copy.record(EventKind::ChunkExecBegin, 0.0, 1.0, 0, 10);
    copy.instant(EventKind::Terminate, 2.0);
}

TEST(RecorderTest, MergeSortsAndNormalizes) {
    trace::TraceSession session(2, 16);
    auto t0 = session.tracer(0, 0);
    auto t1 = session.tracer(1, 0);
    ASSERT_TRUE(t0.enabled());
    t1.record(EventKind::LocalPop, 5.0, 6.0, 0, 4, 0.25);
    t0.instant(EventKind::ChunkExecBegin, 4.0, 0, 4);
    t0.instant(EventKind::ChunkExecEnd, 7.0, 0, 4);
    const trace::Trace merged = session.merge();
    ASSERT_EQ(merged.events.size(), 3u);
    // Sorted by start time and normalized: earliest event begins at 0.
    EXPECT_EQ(merged.events[0].kind, EventKind::ChunkExecBegin);
    EXPECT_DOUBLE_EQ(merged.events[0].t0, 0.0);
    EXPECT_EQ(merged.events[1].kind, EventKind::LocalPop);
    EXPECT_DOUBLE_EQ(merged.events[1].t0, 1.0);
    EXPECT_DOUBLE_EQ(merged.events[1].wait, 0.25);
    EXPECT_DOUBLE_EQ(merged.duration(), 3.0);
    EXPECT_EQ(merged.count(EventKind::ChunkExecEnd), 1);
    EXPECT_EQ(merged.count(EventKind::ChunkExecEnd, 0), 1);
    EXPECT_EQ(merged.count(EventKind::ChunkExecEnd, 1), 0);
    EXPECT_EQ(merged.dropped(), 0);
}

TEST(RecorderTest, MergeBreaksTimeTiesByWorkerThenRecordOrder) {
    trace::TraceSession session(3, 16);
    auto t0 = session.tracer(0, 0);
    auto t1 = session.tracer(1, 0);
    auto t2 = session.tracer(2, 0);
    t2.instant(EventKind::Terminate, 1.0, 20);
    t1.instant(EventKind::Terminate, 1.0, 10);
    t1.instant(EventKind::Terminate, 1.0, 11);
    t0.instant(EventKind::Terminate, -0.0, 0);  // ties with 0.0
    t2.instant(EventKind::Terminate, 0.0, 21);
    t0.instant(EventKind::Terminate, 1.0, 1);
    t1.instant(EventKind::Terminate, -3.5, 12);
    const trace::Trace merged = session.merge();
    std::vector<std::int64_t> order;
    for (const auto& e : merged.events) {
        order.push_back(e.a);
    }
    EXPECT_EQ(order, (std::vector<std::int64_t>{12, 0, 21, 1, 10, 11, 20}));
    EXPECT_DOUBLE_EQ(merged.events.front().t0, 0.0);  // origin = earliest event
    EXPECT_DOUBLE_EQ(merged.events.back().t0, 4.5);
}

TEST(RecorderTest, OutOfRangeWorkerYieldsDisabledTracer) {
    trace::TraceSession session(2, 16);
    EXPECT_FALSE(session.tracer(-1, 0).enabled());
    EXPECT_FALSE(session.tracer(2, 0).enabled());
}

TEST(RecorderTest, OverflowAccountingReachesTheTrace) {
    trace::TraceSession session(1, 4);
    auto t = session.tracer(0, 0);
    for (int i = 0; i < 10; ++i) {
        t.instant(EventKind::ChunkExecBegin, static_cast<double>(i));
    }
    const trace::Trace merged = session.merge();
    EXPECT_EQ(merged.events.size(), 4u);
    EXPECT_EQ(merged.dropped_per_worker[0], 6);
    EXPECT_EQ(merged.dropped(), 6);
}

// ------------------------------------------------------------- exporters

trace::Trace tiny_trace() {
    trace::TraceSession session(2, 64);
    auto t0 = session.tracer(0, 0);
    auto t1 = session.tracer(1, 0);
    t0.record(EventKind::GlobalAcquire, 0.0, 0.5e-3, 0, 64);
    t0.record(EventKind::LocalPop, 0.5e-3, 0.6e-3, 0, 16, 0.02e-3);
    t0.instant(EventKind::ChunkExecBegin, 0.6e-3, 0, 16);
    t0.instant(EventKind::ChunkExecEnd, 2.0e-3, 0, 16);
    t0.instant(EventKind::Terminate, 2.1e-3);
    t1.record(EventKind::BarrierWait, 0.0, 1.0e-3);
    t1.instant(EventKind::Terminate, 2.0e-3);
    trace::Trace tr = session.merge();
    tr.meta.approach = "MPI+MPI";
    tr.meta.inter = "GSS";
    tr.meta.intra = "SS";
    tr.meta.nodes = 1;
    tr.meta.workers_per_node = 2;
    tr.meta.total_iterations = 64;
    return tr;
}

/// Minimal structural JSON check: balanced braces/brackets outside strings.
void expect_balanced_json(const std::string& s) {
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (const char c : s) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = in_string;
            continue;
        }
        if (c == '"') {
            in_string = !in_string;
            continue;
        }
        if (in_string) {
            continue;
        }
        if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
            ASSERT_GE(depth, 0);
        }
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
}

TEST(ExportTest, ChromeJsonStructure) {
    const trace::Trace tr = tiny_trace();
    std::ostringstream oss;
    trace::export_chrome_json(tr, oss);
    const std::string json = oss.str();
    expect_balanced_json(json);
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"approach\":\"MPI+MPI\""), std::string::npos);
    // Interval events appear as complete ("X") events with microsecond ts.
    EXPECT_NE(json.find("\"name\":\"GlobalAcquire\",\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"LocalPop\",\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"BarrierWait\",\"ph\":\"X\""), std::string::npos);
    // Exec pairs appear as B/E duration events, Terminate as an instant.
    EXPECT_NE(json.find("\"name\":\"ChunkExec\",\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"ChunkExec\",\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"Terminate\",\"ph\":\"i\""), std::string::npos);
    // One JSON entry per event (plus two thread_name metadata entries).
    const auto entries = [&] {
        std::size_t count = 0;
        for (std::size_t pos = json.find("\"ph\":"); pos != std::string::npos;
             pos = json.find("\"ph\":", pos + 1)) {
            ++count;
        }
        return count;
    }();
    EXPECT_EQ(entries, tr.events.size() + 2);
}

TEST(ExportTest, CsvHasOneRowPerEvent) {
    const trace::Trace tr = tiny_trace();
    std::ostringstream oss;
    trace::export_csv(tr, oss);
    const std::string csv = oss.str();
    EXPECT_EQ(csv.rfind("kind,worker,node,level,t0,t1,wait,a,b\n", 0), 0u);
    const auto lines = static_cast<std::size_t>(
        std::count(csv.begin(), csv.end(), '\n'));
    EXPECT_EQ(lines, tr.events.size() + 1);
    EXPECT_NE(csv.find("GlobalAcquire,0,0,"), std::string::npos);
}

TEST(ExportTest, AsciiGanttRendersEveryWorkerRow) {
    const trace::Trace tr = tiny_trace();
    std::ostringstream oss;
    trace::ascii_gantt(tr, oss, 40);
    const std::string gantt = oss.str();
    EXPECT_NE(gantt.find("w0  "), std::string::npos);
    EXPECT_NE(gantt.find("w1  "), std::string::npos);
    EXPECT_NE(gantt.find('#'), std::string::npos);  // worker 0 computed
    EXPECT_NE(gantt.find('.'), std::string::npos);  // worker 1 waited
}

// ------------------------------------------------------- golden exports

/// One event, spelled out field by field (handcrafted traces bypass the
/// recorder so the exporters see exactly these values).
trace::Event make_event(EventKind kind, int worker, int node, double t0, double t1,
                        std::int64_t a = 0, std::int64_t b = 0, double wait = 0.0,
                        int level = 0) {
    trace::Event e;
    e.t0 = t0;
    e.t1 = t1;
    e.wait = wait;
    e.a = a;
    e.b = b;
    e.worker = worker;
    e.node = node;
    e.kind = kind;
    e.level = static_cast<std::int8_t>(level);
    return e;
}

/// Every EventKind, level tags from -1 to 2, non-finite, negative, signed
/// zero, tiny and huge values, and meta strings that need JSON escaping.
trace::Trace golden_single_tenant_trace() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    trace::Trace tr;
    tr.meta.approach = "MPI+MPI \"q\" \\ x";
    tr.meta.inter = "GSS\n\t";
    tr.meta.intra = std::string("SS") + '\x01';
    tr.meta.nodes = 2;
    tr.meta.workers_per_node = 2;
    tr.meta.total_iterations = 1234567890123;
    tr.dropped_per_worker = {0, 2, 0, 5};
    tr.events = {
        make_event(EventKind::GlobalAcquire, 0, 0, 0.0, 1.5e-6, 0, 64, 0.0, 0),
        make_event(EventKind::LocalPop, 0, 0, 1.5e-6, 2.0005e-6, 0, 16, -0.0, 1),
        make_event(EventKind::RefillBegin, 1, 0, 2.0e-6, 2.0e-6, 0, 0, 0.0, 1),
        make_event(EventKind::ChunkExecBegin, 0, 0, 2.25e-6, 2.25e-6, 0, 16),
        make_event(EventKind::RefillEnd, 1, 0, 3.0e-6, 3.0e-6, 64, 32, 0.0, 1),
        make_event(EventKind::BarrierWait, 2, 1, 1.0000005e-3, nan),
        make_event(EventKind::FeedbackReport, 1, 0, 4.0e-6, 4.0e-6, 16, 123456789012),
        make_event(EventKind::Steal, 3, 1, -2.5e-6, 1e12, -1,
                   std::numeric_limits<std::int64_t>::max(), 0.0, 2),
        make_event(EventKind::Prefetch, 3, 1, 5.0e-6, 5.0e-6, 1, 48, -inf, -1),
        make_event(EventKind::Reclaim, 0, 0, 1e-300, 1e-300, 100, 28),
        make_event(EventKind::ChunkExecEnd, 0, 0, 1.0, 1.0, 0, 16),
        make_event(EventKind::Terminate, 2, 1, inf, inf),
        make_event(EventKind::Prefetch, 1, 0, 0.1234565e-3, 0.1234565e-3, 0, 80,
                   6.25e-6, 1),
        make_event(EventKind::LocalPop, 2, 1, -1e9, 0.0, -1, -1, -1e8, 1),
    };
    return tr;
}

/// The exporters' exact bytes for the trace above, pinned so the output
/// format cannot drift. Chrome values are printf("%.3f") of microseconds,
/// CSV values printf("%.9g") of seconds; non-finite values render as 0.
constexpr std::string_view kGoldenSingleTenantChrome = R"golden({"displayTimeUnit":"ms","otherData":{"approach":"MPI+MPI \"q\" \\ x","inter":"GSS\n\t","intra":"SS\u0001","nodes":2,"workers_per_node":2,"total_iterations":1234567890123,"dropped_events":7},"traceEvents":[
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"worker 0"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"worker 1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"worker 2"}},
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"worker 3"}},
{"name":"GlobalAcquire","ph":"X","pid":0,"tid":0,"ts":0.000,"dur":1.500,"args":{"start":0,"size":64,"level":0}},
{"name":"LocalPop","ph":"X","pid":0,"tid":0,"ts":1.500,"dur":0.501,"args":{"begin":0,"end":16,"lock_wait_us":-0.000,"level":1}},
{"name":"Refill","ph":"B","pid":0,"tid":1,"ts":2.000},
{"name":"ChunkExec","ph":"B","pid":0,"tid":0,"ts":2.250,"args":{"begin":0,"end":16}},
{"name":"Refill","ph":"E","pid":0,"tid":1,"ts":3.000,"args":{"start":64,"size":32}},
{"name":"BarrierWait","ph":"X","pid":1,"tid":2,"ts":1000.000,"dur":0},
{"name":"FeedbackReport","ph":"i","s":"t","pid":0,"tid":1,"ts":4.000,"args":{"iterations":16,"time_ns":123456789012}},
{"name":"Steal","ph":"X","pid":1,"tid":3,"ts":-2.500,"dur":1000000000000000000.000,"args":{"start":-1,"size":9223372036854775807,"level":2}},
{"name":"Prefetch","ph":"i","s":"t","pid":1,"tid":3,"ts":5.000,"args":{"hit":1,"start":48,"hidden_us":0,"level":-1}},
{"name":"Reclaim","ph":"i","s":"t","pid":0,"tid":0,"ts":0.000,"args":{"start":100,"size":28}},
{"name":"ChunkExec","ph":"E","pid":0,"tid":0,"ts":1000000.000},
{"name":"Terminate","ph":"i","s":"t","pid":1,"tid":2,"ts":0},
{"name":"Prefetch","ph":"i","s":"t","pid":0,"tid":1,"ts":123.457,"args":{"hit":0,"start":80,"hidden_us":6.250,"level":1}},
{"name":"LocalPop","ph":"X","pid":1,"tid":2,"ts":-1000000000000000.000,"dur":1000000000000000.000,"args":{"begin":-1,"end":-1,"lock_wait_us":-100000000000000.000,"level":1}}
]}
)golden";

constexpr std::string_view kGoldenSingleTenantCsv = R"golden(kind,worker,node,level,t0,t1,wait,a,b
GlobalAcquire,0,0,0,0,1.5e-06,0,0,64
LocalPop,0,0,1,1.5e-06,2.0005e-06,-0,0,16
RefillBegin,1,0,1,2e-06,2e-06,0,0,0
ChunkExecBegin,0,0,0,2.25e-06,2.25e-06,0,0,16
RefillEnd,1,0,1,3e-06,3e-06,0,64,32
BarrierWait,2,1,0,0.0010000005,0,0,0,0
FeedbackReport,1,0,0,4e-06,4e-06,0,16,123456789012
Steal,3,1,2,-2.5e-06,1e+12,0,-1,9223372036854775807
Prefetch,3,1,-1,5e-06,5e-06,0,1,48
Reclaim,0,0,0,1e-300,1e-300,0,100,28
ChunkExecEnd,0,0,0,1,1,0,0,16
Terminate,2,1,0,0,0,0,0,0
Prefetch,1,0,1,0.0001234565,0.0001234565,6.25e-06,0,80
LocalPop,2,1,1,-1e+09,0,-100000000,-1,-1
)golden";

TEST(ExportGoldenTest, SingleTenantChromeJsonBytes) {
    std::ostringstream oss;
    trace::export_chrome_json(golden_single_tenant_trace(), oss);
    EXPECT_EQ(oss.str(), kGoldenSingleTenantChrome);
}

TEST(ExportGoldenTest, SingleTenantCsvBytes) {
    std::ostringstream oss;
    trace::export_csv(golden_single_tenant_trace(), oss);
    EXPECT_EQ(oss.str(), kGoldenSingleTenantCsv);
}

TEST(ExportGoldenTest, TracedSimulationExportsAreReproducible) {
    apps::WorkloadSpec spec;
    spec.kind = apps::WorkloadKind::Gaussian;
    spec.iterations = 2000;
    spec.mean_seconds = 1e-4;
    spec.cov = 0.5;
    const sim::WorkloadTrace workload(apps::make_workload(spec));
    sim::ClusterSpec cluster;
    cluster.nodes = 4;
    cluster.workers_per_node = 4;
    sim::SimConfig cfg;
    cfg.inter = Technique::FAC2;
    cfg.intra = Technique::SS;
    cfg.trace = true;
    const auto export_once = [&] {
        const auto r = simulate(sim::ExecModel::MpiMpi, cluster, cfg, workload);
        std::ostringstream chrome;
        std::ostringstream csv;
        trace::export_chrome_json(*r.trace, chrome);
        trace::export_csv(*r.trace, csv);
        return std::pair{chrome.str(), csv.str()};
    };
    const auto first = export_once();
    const auto second = export_once();
    EXPECT_GT(first.first.size(), 1000u);
    EXPECT_EQ(first.first, second.first);
    EXPECT_EQ(first.second, second.second);
}

TEST(ExportTest, ChromeTimestampsMatchPrintfFixed3) {
    // Magnitudes from sub-nanosecond to days, values on and next to the
    // %.3f rounding boundaries, and signed values.
    std::vector<double> seconds;
    std::uint64_t state = 42;
    const auto next = [&] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<double>(state >> 11) * 0x1p-53;
    };
    for (int i = 0; i < 4000; ++i) {
        const double scale = std::pow(10.0, -10.0 + 15.0 * next());
        seconds.push_back((next() - 0.25) * scale);
        // k + 0.5 thousandths of a microsecond, and its neighbours.
        const double tie = (std::floor(next() * 1e7) + 0.5) * 1e-9;
        seconds.push_back(tie);
        seconds.push_back(std::nextafter(tie, 0.0));
        seconds.push_back(std::nextafter(tie, 1.0));
    }
    seconds.push_back(-0.0);
    seconds.push_back(0.0);
    trace::Trace tr;
    tr.dropped_per_worker = {0};
    for (const double t : seconds) {
        tr.events.push_back(make_event(EventKind::Terminate, 0, 0, t, t));
    }
    std::ostringstream oss;
    trace::export_chrome_json(tr, oss);
    const std::string json = oss.str();
    std::size_t pos = 0;
    for (const double t : seconds) {
        char expected[64];
        std::snprintf(expected, sizeof(expected), "\"ts\":%.3f}", t * 1e6);
        pos = json.find("\"ts\":", pos);
        ASSERT_NE(pos, std::string::npos);
        ASSERT_EQ(json.compare(pos, std::strlen(expected), expected), 0)
            << "t=" << t << " expected " << expected << " got "
            << json.substr(pos, std::strlen(expected));
        ++pos;
    }
}

TEST(ExportTest, HugeValuesRenderInFull) {
    // printf("%.3f") of 1e300 us is 301 digits; no value may be cut to a
    // fixed-size buffer.
    trace::Trace tr;
    tr.dropped_per_worker = {0};
    tr.events = {make_event(EventKind::Terminate, 0, 0, 1e294, 1e294)};
    std::ostringstream oss;
    trace::export_chrome_json(tr, oss);
    std::string expected(400, '\0');
    expected.resize(static_cast<std::size_t>(
        std::snprintf(expected.data(), expected.size(), "%.3f", 1e294 * 1e6)));
    EXPECT_NE(oss.str().find("\"ts\":" + expected + "}"), std::string::npos);
}

// -------------------------------------------------------------- analysis

TEST(AnalysisTest, BreakdownMatchesHandConstructedTrace) {
    const trace::Trace tr = tiny_trace();
    const trace::TraceAnalysis a = trace::analyze(tr);
    ASSERT_EQ(a.workers.size(), 2u);
    const auto& w0 = a.workers[0];
    EXPECT_NEAR(w0.compute, 1.4e-3, 1e-12);          // 0.6ms -> 2.0ms
    EXPECT_NEAR(w0.sched_overhead, 0.6e-3, 1e-12);   // 0.5 acquire + 0.1 pop
    EXPECT_NEAR(w0.lock_wait, 0.02e-3, 1e-12);
    EXPECT_EQ(w0.chunks, 1);
    EXPECT_EQ(w0.iterations, 16);
    EXPECT_EQ(w0.global_chunks, 1);
    const auto& w1 = a.workers[1];
    EXPECT_NEAR(w1.barrier_wait, 1.0e-3, 1e-12);
    EXPECT_DOUBLE_EQ(w1.compute, 0.0);
    EXPECT_NEAR(a.makespan, 2.1e-3, 1e-12);
    EXPECT_GT(a.percent_imbalance, 0.0);
    EXPECT_GT(a.finish_cov, 0.0);
    EXPECT_EQ(a.lock_wait_stats.count, 1u);
    std::ostringstream oss;
    a.print(oss);
    EXPECT_NE(oss.str().find("makespan"), std::string::npos);
}

// ------------------------------------------------- executor integration

void check_trace_matches_report(const core::ExecutionReport& report) {
    ASSERT_TRUE(report.trace);
    const trace::Trace& tr = *report.trace;
    EXPECT_EQ(tr.dropped(), 0);
    // Every executed sub-chunk produced exactly one exec begin/end pair...
    EXPECT_EQ(tr.count(EventKind::ChunkExecEnd), report.executed_chunks());
    EXPECT_EQ(tr.count(EventKind::ChunkExecBegin), report.executed_chunks());
    // ...every global-queue chunk one successful GlobalAcquire...
    EXPECT_EQ(tr.global_chunks(), report.global_chunks());
    // ...and every worker one Terminate.
    EXPECT_EQ(tr.count(EventKind::Terminate),
              static_cast<std::int64_t>(report.workers.size()));
    // Exec events cover exactly the iteration space.
    std::int64_t iterations = 0;
    for (const auto& e : tr.events) {
        if (e.kind == EventKind::ChunkExecEnd) {
            iterations += e.b - e.a;
        }
    }
    EXPECT_EQ(iterations, report.total_iterations);
    // The analysis agrees on chunk accounting.
    const trace::TraceAnalysis a = trace::analyze(tr);
    std::int64_t chunks = 0;
    for (const auto& w : a.workers) {
        chunks += w.chunks;
    }
    EXPECT_EQ(chunks, report.executed_chunks());
}

TEST(TraceIntegrationTest, MpiMpiGssSsOn4x4EventCountsMatchReport) {
    core::HierConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::SS;
    cfg.trace = true;
    const auto report = hdls::parallel_for(
        core::ClusterShape{4, 4}, core::Approach::MpiMpi, cfg, 2000,
        [](std::int64_t, std::int64_t) {});
    EXPECT_EQ(report.executed_iterations(), 2000);
    check_trace_matches_report(report);
    EXPECT_EQ(report.trace->meta.approach, "MPI+MPI");
    EXPECT_EQ(report.trace->meta.inter, "GSS");
    EXPECT_EQ(report.trace->meta.intra, "SS");
}

TEST(TraceIntegrationTest, HybridTracingMatchesReport) {
    core::HierConfig cfg;
    cfg.inter = Technique::FAC2;
    cfg.intra = Technique::GSS;
    cfg.trace = true;
    const auto report = hdls::parallel_for(
        core::ClusterShape{2, 3}, core::Approach::MpiOpenMp, cfg, 700,
        [](std::int64_t, std::int64_t) {});
    EXPECT_EQ(report.executed_iterations(), 700);
    check_trace_matches_report(report);
    EXPECT_EQ(report.trace->meta.approach, "MPI+OpenMP");
}

TEST(TraceIntegrationTest, DisabledRecorderAddsZeroEvents) {
    core::HierConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::SS;
    cfg.trace = false;  // default, spelled out: tracing is strictly opt-in
    const auto report = hdls::parallel_for(
        core::ClusterShape{4, 4}, core::Approach::MpiMpi, cfg, 500,
        [](std::int64_t, std::int64_t) {});
    EXPECT_EQ(report.executed_iterations(), 500);
    EXPECT_EQ(report.trace, nullptr);
}

TEST(TraceIntegrationTest, TinyBufferDropsAreCountedNotFatal) {
    core::HierConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::SS;
    cfg.trace = true;
    cfg.trace_capacity = 8;  // far too small on purpose
    const auto report = hdls::parallel_for(
        core::ClusterShape{2, 2}, core::Approach::MpiMpi, cfg, 1000,
        [](std::int64_t, std::int64_t) {});
    EXPECT_EQ(report.executed_iterations(), 1000);
    ASSERT_TRUE(report.trace);
    EXPECT_GT(report.trace->dropped(), 0);
    // Per-worker logs hold at most the capacity.
    for (int w = 0; w < report.trace->workers(); ++w) {
        EXPECT_LE(report.trace->worker_events(w).size(), 8u);
    }
}

TEST(TraceIntegrationTest, MultiThreadedRunsMergeWithoutDropsOnBothTransports) {
    // Enough events per worker to cross several log blocks while every
    // rank thread records concurrently.
    for (const minimpi::TransportKind transport :
         {minimpi::TransportKind::Threads, minimpi::TransportKind::Shm}) {
        core::HierConfig cfg;
        cfg.inter = Technique::GSS;
        cfg.intra = Technique::SS;
        cfg.trace = true;
        cfg.trace_capacity = 1 << 16;
        cfg.transport = transport;
        const auto report = hdls::parallel_for(
            core::ClusterShape{2, 4}, core::Approach::MpiMpi, cfg, 20000,
            [](std::int64_t, std::int64_t) {});
        EXPECT_EQ(report.executed_iterations(), 20000) << minimpi::transport_name(transport);
        check_trace_matches_report(report);
        EXPECT_GT(report.trace->events.size(), 8 * trace::EventLog::kFirstBlock)
            << minimpi::transport_name(transport);
    }
}

// ------------------------------------------------------ sim integration

TEST(TraceIntegrationTest, SimulatorTracesMatchSimReport) {
    apps::WorkloadSpec spec;
    spec.kind = apps::WorkloadKind::Gaussian;
    spec.iterations = 800;
    spec.mean_seconds = 1e-4;
    spec.cov = 0.6;
    const sim::WorkloadTrace workload(apps::make_workload(spec));
    sim::ClusterSpec cluster;
    cluster.nodes = 2;
    cluster.workers_per_node = 4;
    sim::SimConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::Static;
    cfg.trace = true;
    for (const sim::ExecModel model :
         {sim::ExecModel::MpiMpi, sim::ExecModel::MpiOpenMp,
          sim::ExecModel::MpiOpenMpNowait}) {
        const auto r = simulate(model, cluster, cfg, workload);
        ASSERT_TRUE(r.trace) << exec_model_name(model);
        EXPECT_EQ(r.trace->dropped(), 0) << exec_model_name(model);
        EXPECT_EQ(r.trace->count(EventKind::ChunkExecEnd), r.sub_chunks())
            << exec_model_name(model);
        EXPECT_EQ(r.trace->global_chunks(), r.global_chunks()) << exec_model_name(model);
        std::int64_t iterations = 0;
        for (const auto& e : r.trace->events) {
            if (e.kind == EventKind::ChunkExecEnd) {
                iterations += e.b - e.a;
            }
        }
        EXPECT_EQ(iterations, 800) << exec_model_name(model);
        // Virtual-time events never extend past the simulated makespan.
        EXPECT_LE(r.trace->duration(), r.parallel_time + 1e-12) << exec_model_name(model);
        EXPECT_EQ(r.trace->count(EventKind::Terminate),
                  static_cast<std::int64_t>(r.workers.size()))
            << exec_model_name(model);
    }
}

TEST(TraceIntegrationTest, SimulatorTraceOffByDefault) {
    const sim::WorkloadTrace workload(std::vector<double>(100, 1e-5));
    const auto r = simulate(sim::ExecModel::MpiMpi, sim::ClusterSpec{}, sim::SimConfig{},
                            workload);
    EXPECT_EQ(r.trace, nullptr);
}

}  // namespace
