/// \file runner.cpp
/// The measuring process of the repository benchmark (perfbench/run.py
/// drives it; perfbench/README.md defines every metric).
///
///   perfbench_runner --workload sched --seed 7 --seconds 12 --out s.json
///   perfbench_runner --workload sim_paper --seed 7 --seconds 12 --out p.json
///
/// The real workloads (sched, sched_ft, mandelbrot) run their loop on the
/// thread-backed executors through run_hierarchical, one loop at a time,
/// alternating the MPI+MPI approach and the MPI+OpenMP baseline. sim_paper
/// runs the simulator on the paper's Figure 4-7 sweep. The two never share
/// a process, because sim::simulate writes into the executors' metric
/// families.
///
/// The runner measures from outside the library: it times its own calls,
/// reads each run's ExecutionReport::metrics delta and, with --spans <path>,
/// records per-rank spans through a ChunkGate and a wrapped loop body and
/// writes the last traced loop's spans to <path>. It writes the
/// raw samples (one JsonReport point per series) and leaves all aggregation
/// to run.py. Every operation (one loop, one simulation) is checked; a throw
/// or a failed check counts as a failed operation, never as a crash.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/mandelbrot.hpp"
#include "common/json_report.hpp"
#include "common/workloads.hpp"
#include "core/runner.hpp"
#include "dls/technique.hpp"
#include "sim/simulator.hpp"
#include "simd/dispatch.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
using hdls::core::Approach;
using hdls::core::ChunkBody;
using hdls::core::ExecutionReport;
using hdls::core::HierConfig;
using hdls::dls::Technique;

/// Real workloads run on 2 nodes x 2 ranks: one worker thread per core of
/// a 4-core host, so no approach is measured oversubscribed.
constexpr hdls::core::ClusterShape kShape{2, 2};
/// Fewest rounds (one loop per approach) a run makes, whatever --seconds
/// says: 11 samples are the least that leave ten beyond a reported tail.
constexpr int kMinRounds = 11;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

[[nodiscard]] double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Uniform double in [0, 1) from the top 53 bits of the stream.
[[nodiscard]] double unit_interval(hdls::util::SplitMix64& rng) {
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

/// The sample at rank round(q * (n - 1)), q in [0, 1]; reorders `v`. 0 when
/// empty.
[[nodiscard]] double percentile(std::vector<std::int64_t>& v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return static_cast<double>(v[k]);
}

/// Samples of one labelled series, collected over a run and appended to the
/// document as one point at its end.
using Series = hdls::bench::JsonReport::Point;

[[nodiscard]] Series series(
    std::initializer_list<std::pair<const char*, const char*>> labels) {
    Series s;
    for (const auto& [k, v] : labels) {
        s.label(k, v);
    }
    return s;
}

void emit(hdls::bench::JsonReport& json, std::initializer_list<const Series*> all) {
    for (const Series* s : all) {
        json.point() = *s;
    }
}

/// An output stream over one buffer the process keeps across exports, so
/// timing an export measures the exporter's work, not the growth and
/// first-touch page faults of a fresh string each time.
class ExportBuffer final : public std::streambuf {
public:
    /// Empties the buffer, keeping its memory.
    void clear() { setp(buf_.data(), buf_.data() + buf_.size()); }

protected:
    int_type overflow(int_type ch) override {
        if (traits_type::eq_int_type(ch, traits_type::eof())) {
            return traits_type::not_eof(ch);
        }
        const std::ptrdiff_t used = pptr() - pbase();
        buf_.resize(std::max<std::size_t>(2 * buf_.size(), 1 << 20));
        setp(buf_.data(), buf_.data() + buf_.size());
        pbump(static_cast<int>(used));
        *pptr() = traits_type::to_char_type(ch);
        pbump(1);
        return ch;
    }

private:
    std::vector<char> buf_;
};

/// Counts operations and failures; every check funnels through here.
struct Ops {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    void record(bool ok, const std::string& what) {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "perfbench: check failed: " << what << "\n";
        }
    }
};

// ------------------------------------------------------------ loop bodies --

/// The loop a real workload runs: its iteration count, a fresh output per
/// loop, the chunk body and the output check.
class Loop {
public:
    explicit Loop(std::int64_t n) : n_(n) {}
    virtual ~Loop() = default;
    Loop(const Loop&) = delete;
    Loop& operator=(const Loop&) = delete;

    [[nodiscard]] std::int64_t n() const noexcept { return n_; }
    /// Prepares an untouched output (not timed).
    virtual void reset() = 0;
    /// The chunk body; captures this object, which must outlive the runs.
    [[nodiscard]] virtual ChunkBody body() = 0;
    /// True when the output of the loop just run is correct.
    [[nodiscard]] virtual bool verify() const = 0;
    /// Called once after the serial reference pass.
    virtual void take_reference() {}
    /// Mandelbrot escape iterations of the whole image (0 for other loops).
    [[nodiscard]] virtual double escape_iterations() const { return 0.0; }

private:
    std::int64_t n_;
};

/// sched / sched_ft: the body only marks an exactly-once byte per
/// iteration, so the loop's time is the scheduling chain's.
class MarkLoop final : public Loop {
public:
    explicit MarkLoop(std::int64_t n) : Loop(n), seen_(static_cast<std::size_t>(n), 0) {}

    void reset() override { std::fill(seen_.begin(), seen_.end(), std::uint8_t{0}); }
    ChunkBody body() override {
        return [this](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
                ++seen_[static_cast<std::size_t>(i)];
            }
        };
    }
    bool verify() const override {
        return std::all_of(seen_.begin(), seen_.end(), [](std::uint8_t c) { return c == 1; });
    }

private:
    std::vector<std::uint8_t> seen_;
};

/// mandelbrot: the compute-bound escape-time kernel; the serial pass gives
/// the reference checksum every parallel image must match.
class MandelbrotLoop final : public Loop {
public:
    explicit MandelbrotLoop(const hdls::apps::MandelbrotConfig& cfg)
        : Loop(cfg.pixels()), cfg_(cfg) {}

    void reset() override {
        image_.reset();
        image_ = std::make_unique<hdls::apps::MandelbrotImage>(cfg_);
    }
    ChunkBody body() override {
        return [this](std::int64_t b, std::int64_t e) { image_->compute_range(b, e); };
    }
    bool verify() const override {
        return image_->uncomputed() == 0 && image_->checksum() == reference_;
    }
    void take_reference() override {
        reference_ = image_->checksum();
        escape_ = 0.0;
        for (const int v : image_->data()) {
            escape_ += v;
        }
    }
    double escape_iterations() const override { return escape_; }

private:
    hdls::apps::MandelbrotConfig cfg_;
    std::unique_ptr<hdls::apps::MandelbrotImage> image_;
    std::uint64_t reference_ = 0;
    double escape_ = 0.0;
};

/// The seeded Mandelbrot input: 2048^2 pixels, max_iter 1024, the paper
/// trace's viewport shifted by up to 0.05 and zoomed by up to 3%. The
/// expensive interior band stays past the midpoint of the row-major loop.
[[nodiscard]] hdls::apps::MandelbrotConfig mandelbrot_input(std::uint64_t seed) {
    hdls::util::SplitMix64 rng(seed ^ 0x6d616e64ULL);
    const double dx = (unit_interval(rng) - 0.5) * 0.1;
    const double dy = (unit_interval(rng) - 0.5) * 0.1;
    const double zoom = 1.0 + (unit_interval(rng) - 0.5) * 0.06;
    hdls::apps::MandelbrotConfig cfg;
    cfg.width = 2048;
    cfg.height = 2048;
    cfg.max_iter = 1024;
    cfg.re_min = -0.6 + dx - 1.5 * zoom;
    cfg.re_max = -0.6 + dx + 1.5 * zoom;
    cfg.im_min = -0.5 + dy - 1.5 * zoom;
    cfg.im_max = -0.5 + dy + 1.5 * zoom;
    return cfg;
}

/// The seeded loop size of sched/sched_ft: 2^20 plus up to 4095.
[[nodiscard]] std::int64_t mark_loop_size(std::uint64_t seed) {
    hdls::util::SplitMix64 rng(seed ^ 0x73636864ULL);
    return (std::int64_t{1} << 20) + static_cast<std::int64_t>(rng.next() % 4096);
}

/// A real workload: the loop and its MPI+MPI configuration. The MPI+OpenMP
/// baseline runs the same loop and schedule without the lease (the baseline
/// has no failure handling).
struct RealWorkload {
    std::unique_ptr<Loop> loop;
    HierConfig mpi;
    HierConfig hybrid;
};

[[nodiscard]] RealWorkload make_real_workload(const std::string& name, std::uint64_t seed) {
    RealWorkload w;
    HierConfig& c = w.mpi;
    c.pin = minimpi::PinPolicy::None;
    c.simd = hdls::simd::SimdMode::Auto;
    c.transport = minimpi::TransportKind::Threads;
    if (name == "sched" || name == "sched_ft") {
        c.inter = Technique::GSS;
        c.intra = Technique::SS;
        if (name == "sched_ft") {
            c.lease = true;
            c.prefetch = true;
            c.transport = minimpi::TransportKind::Shm;
        }
        w.loop = std::make_unique<MarkLoop>(mark_loop_size(seed));
    } else if (name == "mandelbrot") {
        c.inter = Technique::FAC2;
        c.intra = Technique::Static;
        w.loop = std::make_unique<MandelbrotLoop>(mandelbrot_input(seed));
    } else {
        throw std::invalid_argument("unknown real workload '" + name + "'");
    }
    w.hybrid = c;
    w.hybrid.lease = false;
    return w;
}

// ----------------------------------------------------------------- spans --

/// One executed chunk as seen from outside the library (steady-clock ns):
/// the gate admitted it, its body returned, the gate was told it ended.
struct Span {
    std::int64_t begin;
    std::int64_t body_end;
    std::int64_t end;
};

/// Records per-rank chunk spans through the run's ChunkGate and a wrapped
/// body. Buffers are allocated once, sized for the worst case (one rank
/// executing every iteration as its own chunk), and left uninitialized so
/// only the pages a run writes become resident.
class SpanRecorder final : public hdls::core::ChunkGate {
public:
    SpanRecorder(int ranks, std::int64_t capacity)
        : ranks_(static_cast<std::size_t>(ranks)) {
        for (RankSpans& r : ranks_) {
            r.cap = static_cast<std::size_t>(capacity);
            r.buf.reset(new Span[r.cap]);  // default-init: no page is touched here
        }
    }

    void clear() {
        for (RankSpans& r : ranks_) {
            r.n = 0;
            r.open = false;
        }
    }

    bool begin_chunk(int rank) override {
        RankSpans& r = ranks_[static_cast<std::size_t>(rank)];
        current_ = &r;
        if (r.n < r.cap) {
            r.open = true;
            r.buf[r.n].begin = now_ns();
        }
        return true;
    }

    void end_chunk(int rank, std::int64_t /*iterations*/) override {
        RankSpans& r = ranks_[static_cast<std::size_t>(rank)];
        if (r.open) {
            r.buf[r.n].end = now_ns();
            r.open = false;
            ++r.n;
        }
    }

    /// `inner` followed by a body-end stamp into the calling rank's open span.
    [[nodiscard]] static ChunkBody wrap(ChunkBody inner) {
        return [inner = std::move(inner)](std::int64_t b, std::int64_t e) {
            inner(b, e);
            RankSpans* r = current_;
            if (r != nullptr && r->open) {
                r->buf[r->n].body_end = now_ns();
            }
        };
    }

    [[nodiscard]] int ranks() const noexcept { return static_cast<int>(ranks_.size()); }
    [[nodiscard]] std::size_t count(int rank) const noexcept {
        return ranks_[static_cast<std::size_t>(rank)].n;
    }
    [[nodiscard]] const Span* spans(int rank) const noexcept {
        return ranks_[static_cast<std::size_t>(rank)].buf.get();
    }

    /// Raw dump: per rank an int64 rank id and span count, then the spans.
    void write(const std::string& path) const {
        std::FILE* f = std::fopen(path.c_str(), "wb");
        if (f == nullptr) {
            throw std::runtime_error("cannot write spans to " + path);
        }
        bool ok = true;
        for (std::size_t i = 0; i < ranks_.size(); ++i) {
            const std::int64_t header[2] = {static_cast<std::int64_t>(i),
                                            static_cast<std::int64_t>(ranks_[i].n)};
            ok = ok && std::fwrite(header, sizeof(header), 1, f) == 1;
            ok = ok && (ranks_[i].n == 0 ||
                        std::fwrite(ranks_[i].buf.get(), sizeof(Span), ranks_[i].n, f) ==
                            ranks_[i].n);
        }
        ok = std::fclose(f) == 0 && ok;
        if (!ok) {
            throw std::runtime_error("short write of spans to " + path);
        }
    }

private:
    /// Written only by its own rank's thread; padded apart.
    struct alignas(64) RankSpans {
        std::unique_ptr<Span[]> buf;
        std::size_t cap = 0;
        std::size_t n = 0;
        bool open = false;
    };

    std::vector<RankSpans> ranks_;
    /// Ranks are threads under both transports, so a rank's body runs on
    /// the thread that passed its gate.
    static thread_local RankSpans* current_;
};

thread_local SpanRecorder::RankSpans* SpanRecorder::current_ = nullptr;

/// What one traced loop's spans say (see README: the per-layer ledger).
struct SpanSummary {
    double acquire_p50_ns = 0.0;
    double acquire_p99_ns = 0.0;
    double fence_p50_ns = 0.0;
    double runner_setup_s = 0.0;
    double runner_teardown_s = 0.0;
    double ledger_gap = 0.0;
    double spans = 0.0;
};

/// `drain` says that a rank, after its own last chunk, waits until every
/// chunk of the run is committed (the lease's reclamation drain). Its ledger
/// then has one more entry: from its last end_chunk to the run's last one.
[[nodiscard]] SpanSummary summarize_spans(const SpanRecorder& rec, const ExecutionReport& rep,
                                          bool drain, std::int64_t call_ns,
                                          std::int64_t return_ns,
                                          std::vector<std::int64_t>& scratch) {
    SpanSummary out;
    std::int64_t first_begin = std::numeric_limits<std::int64_t>::max();
    std::int64_t last_end = std::numeric_limits<std::int64_t>::min();
    for (int r = 0; r < rec.ranks(); ++r) {
        if (const std::size_t n = rec.count(r); n > 0) {
            first_begin = std::min(first_begin, rec.spans(r)[0].begin);
            last_end = std::max(last_end, rec.spans(r)[n - 1].end);
        }
    }
    std::vector<std::int64_t> fences;
    scratch.clear();
    for (int r = 0; r < rec.ranks(); ++r) {
        const std::size_t n = rec.count(r);
        const Span* s = rec.spans(r);
        const double finish = rep.workers[static_cast<std::size_t>(r)].finish_seconds;
        if (n == 0) {
            out.ledger_gap = std::max(out.ledger_gap, 1.0);
            continue;
        }
        for (std::size_t k = 0; k < n; ++k) {
            fences.push_back(s[k].end - s[k].body_end);
            if (k > 0) {
                scratch.push_back(s[k].begin - s[k - 1].end);
            }
        }
        // Consecutive spans tile [first begin, last end] of the rank, so
        // their sum is that interval; what finish_seconds holds beyond it
        // (and beyond the drain) is the rank's first acquire and its
        // termination.
        const std::int64_t ledger_end = drain ? last_end : s[n - 1].end;
        const double covered = static_cast<double>(ledger_end - s[0].begin) * 1e-9;
        if (finish > 0.0) {
            out.ledger_gap = std::max(out.ledger_gap, std::abs(finish - covered) / finish);
        }
        out.spans += static_cast<double>(n);
    }
    out.acquire_p50_ns = percentile(scratch, 0.50);
    out.acquire_p99_ns = percentile(scratch, 0.99);
    out.fence_p50_ns = percentile(fences, 0.50);
    if (last_end >= first_begin) {
        out.runner_setup_s = static_cast<double>(first_begin - call_ns) * 1e-9;
        out.runner_teardown_s = static_cast<double>(return_ns - last_end) * 1e-9;
    }
    return out;
}

// -------------------------------------------------------- real workloads --

/// One run_hierarchical call: its report and when it was called and returned
/// (steady-clock ns).
struct Timed {
    ExecutionReport report;
    std::int64_t call_ns = 0;
    std::int64_t return_ns = 0;

    [[nodiscard]] double wall() const noexcept {
        return static_cast<double>(return_ns - call_ns) * 1e-9;
    }
};

/// One loop, from a fresh output to its check. Returns false (after counting
/// the failure) when the run threw or its output is wrong.
bool run_loop(Approach approach, const HierConfig& cfg, Loop& loop, const ChunkBody& body,
              hdls::core::ChunkGate* gate, Ops& ops, Timed& out) {
    loop.reset();
    hdls::core::RunOptions opts;
    opts.gate = gate;
    opts.metrics = false;
    const std::string what(hdls::core::approach_name(approach));
    try {
        out.call_ns = now_ns();
        out.report = hdls::core::run_hierarchical(kShape, approach, cfg, loop.n(), body, opts);
        out.return_ns = now_ns();
    } catch (const std::exception& e) {
        ops.record(false, what + " loop threw: " + e.what());
        return false;
    }
    const bool ok = out.report.executed_iterations() == loop.n() && loop.verify();
    ops.record(ok, what + " loop output");
    return ok;
}

void record_mpi_loop(Series& s, const Timed& t) {
    const ExecutionReport& r = t.report;
    const hdls::metrics::Snapshot& m = r.metrics;
    double busy = 0.0;
    for (const auto& w : r.workers) {
        busy += w.busy_seconds;
    }
    s.sample("loop_s", r.parallel_seconds);
    s.sample("setup_s", t.wall() - r.parallel_seconds);
    s.sample("busy_s", busy);
    s.sample("efficiency",
             busy / (static_cast<double>(r.workers.size()) * r.parallel_seconds));
    s.sample("chunks", static_cast<double>(r.executed_chunks()));
    s.sample("root_chunks", static_cast<double>(r.global_chunks()));
    s.sample("finish_cov", r.finish_cov());
    const auto counter = [&](const char* metric, const char* name) {
        s.sample(metric, static_cast<double>(m.counter_total(name)));
    };
    counter("exec_chunks", "hdls_exec_chunks_total");
    counter("refills", "hdls_sched_refills_total");
    counter("pops", "hdls_sched_pops_total");
    counter("termination_spins", "hdls_sched_termination_spins_total");
    counter("prefetch_hits", "hdls_sched_prefetch_hits_total");
    counter("prefetch_misses", "hdls_sched_prefetch_misses_total");
    counter("lease_acquires", "hdls_lease_acquires_total");
    counter("lock_epochs", "hdls_window_locks_total");
    counter("lock_retries", "hdls_window_lock_retries_total");
    counter("cas_retries", "hdls_window_cas_retries_total");
    counter("backoff_yields", "hdls_window_backoff_yields_total");
    counter("backoff_sleeps", "hdls_window_backoff_sleeps_total");
    counter("requests", "hdls_window_requests_completed_total");
    s.sample("parent_acquire_ns_sum",
             static_cast<double>(m.histogram_sum("hdls_sched_acquire_latency_ns")));
    s.sample("parent_acquires",
             static_cast<double>(m.histogram_count("hdls_sched_acquire_latency_ns")));
}

void record_hybrid_loop(Series& s, const Timed& t) {
    const ExecutionReport& r = t.report;
    s.sample("loop_s", r.parallel_seconds);
    s.sample("setup_s", t.wall() - r.parallel_seconds);
    s.sample("team_chunks",
             static_cast<double>(r.metrics.counter_total("hdls_team_chunks_total")));
    s.sample("team_idle_ns",
             static_cast<double>(r.metrics.counter_total("hdls_team_idle_ns_total")));
}

/// A real workload; with a non-empty `spans_path` each round adds a traced
/// MPI+MPI loop, and the last one's spans are written there.
void run_real(const std::string& workload, std::uint64_t seed, double seconds,
              const std::string& spans_path, hdls::bench::JsonReport& json, Ops& ops) {
    RealWorkload w = make_real_workload(workload, seed);
    Loop& loop = *w.loop;
    const ChunkBody body = loop.body();
    const bool spans = !spans_path.empty();
    json.add_param("iterations", loop.n());

    Series serial = series({{"series", "serial"}});
    Series mpi = series({{"series", "loop"}, {"approach", "MPI+MPI"}, {"spans", "0"}});
    Series traced = series({{"series", "loop"}, {"approach", "MPI+MPI"}, {"spans", "1"}});
    Series hybrid = series({{"series", "loop"}, {"approach", "MPI+OpenMP"}, {"spans", "0"}});

    // Single-threaded baseline: the reference output and the serial time
    // behind dls.speedup. Verification cost, so outside every timed metric.
    loop.reset();
    const Clock::time_point s0 = Clock::now();
    hdls::core::run_serial(loop.n(), body);
    serial.sample("serial_s", seconds_between(s0, Clock::now()));
    loop.take_reference();
    ops.record(loop.verify(), "serial reference pass");
    serial.sample("escape_iterations", loop.escape_iterations());

    std::unique_ptr<SpanRecorder> recorder;
    ChunkBody traced_body;
    std::vector<std::int64_t> scratch;
    if (spans) {
        recorder = std::make_unique<SpanRecorder>(kShape.total_workers(), loop.n());
        traced_body = SpanRecorder::wrap(body);
        scratch.reserve(static_cast<std::size_t>(loop.n()));
    }

    // Warm-up: lazy set-up (page faults, SIMD dispatch, allocator pools)
    // is paid once here, unmeasured but still checked.
    Timed t;
    (void)run_loop(Approach::MpiMpi, w.mpi, loop, body, nullptr, ops, t);
    (void)run_loop(Approach::MpiOpenMp, w.hybrid, loop, body, nullptr, ops, t);

    // One loop at a time, approaches alternating, so both see the same
    // host conditions and each report's metrics delta is its own.
    const Clock::time_point start = Clock::now();
    int rounds = 0;
    while (rounds < kMinRounds || seconds_between(start, Clock::now()) < seconds) {
        if (run_loop(Approach::MpiMpi, w.mpi, loop, body, nullptr, ops, t)) {
            record_mpi_loop(mpi, t);
        }
        if (spans) {
            recorder->clear();
            if (run_loop(Approach::MpiMpi, w.mpi, loop, traced_body, recorder.get(), ops, t)) {
                const SpanSummary ss = summarize_spans(*recorder, t.report, w.mpi.lease,
                                                       t.call_ns, t.return_ns, scratch);
                traced.sample("loop_s", t.report.parallel_seconds);
                traced.sample("acquire_p50_ns", ss.acquire_p50_ns);
                traced.sample("acquire_p99_ns", ss.acquire_p99_ns);
                traced.sample("fence_p50_ns", ss.fence_p50_ns);
                traced.sample("runner_setup_s", ss.runner_setup_s);
                traced.sample("runner_teardown_s", ss.runner_teardown_s);
                traced.sample("ledger_gap", ss.ledger_gap);
                traced.sample("spans", ss.spans);
            }
        }
        if (run_loop(Approach::MpiOpenMp, w.hybrid, loop, body, nullptr, ops, t)) {
            record_hybrid_loop(hybrid, t);
        }
        ++rounds;
    }

    if (spans) {
        recorder->write(spans_path);  // the last traced loop's spans
        emit(json, {&serial, &mpi, &traced, &hybrid});
    } else {
        emit(json, {&serial, &mpi, &hybrid});
    }
}

// ------------------------------------------------------------- sim_paper --

/// One simulation of a sweep: model, cluster, schedule and cost trace.
struct SimCase {
    std::string key;
    hdls::sim::ExecModel model = hdls::sim::ExecModel::MpiMpi;
    hdls::sim::ClusterSpec cluster;
    hdls::sim::SimConfig cfg;
    const hdls::sim::WorkloadTrace* trace = nullptr;
};

[[nodiscard]] SimCase make_case(const std::string& app, hdls::sim::ExecModel model, int nodes,
                                int workers_per_node, Technique inter, Technique intra,
                                const hdls::sim::WorkloadTrace& trace) {
    SimCase c;
    c.model = model;
    c.cluster.nodes = nodes;
    c.cluster.workers_per_node = workers_per_node;
    c.cfg.inter = inter;
    c.cfg.intra = intra;
    c.trace = &trace;
    c.key = app + "/" + std::string(hdls::dls::technique_name(inter)) + "+" +
            std::string(hdls::dls::technique_name(intra)) + "/" +
            std::string(hdls::sim::exec_model_name(model)) + "/" + std::to_string(nodes) + "x" +
            std::to_string(workers_per_node);
    return c;
}

/// The simulator's inputs and the sweeps over them.
struct SimPlan {
    std::vector<std::unique_ptr<hdls::sim::WorkloadTrace>> traces;
    std::vector<SimCase> sweep;   ///< untraced, repeated
    std::vector<SimCase> traced;  ///< each also in `sweep` (same key), traced
};

/// The set-up of sim_paper: the paper's cost traces (Mandelbrot 256^2,
/// PSIA 2^16 points), built and timed into `setup`.
[[nodiscard]] std::vector<std::unique_ptr<hdls::sim::WorkloadTrace>> build_traces(
    Series& setup) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::unique_ptr<hdls::sim::WorkloadTrace>> traces;
    traces.push_back(
        std::make_unique<hdls::sim::WorkloadTrace>(hdls::bench::mandelbrot_paper_trace(256)));
    traces.push_back(
        std::make_unique<hdls::sim::WorkloadTrace>(hdls::bench::psia_paper_trace(1 << 16)));
    setup.sample("setup_s", seconds_between(t0, Clock::now()));
    return traces;
}

/// sim_paper: Figures 4-7 at 1/16 scale, 4 inter x 5 intra x 2 models x 4
/// node counts x 2 apps, plus traced 16x16 FAC2+SS runs of both apps on
/// both models. The traces are the paper's fixed ones; the seed only orders
/// the sweep.
[[nodiscard]] SimPlan paper_plan(std::uint64_t seed, Series& setup) {
    SimPlan plan;
    plan.traces = build_traces(setup);
    const std::pair<const char*, const hdls::sim::WorkloadTrace*> apps[] = {
        {"Mandelbrot", plan.traces[0].get()}, {"PSIA", plan.traces[1].get()}};
    for (const auto& [app, trace] : apps) {
        for (const Technique inter : hdls::dls::paper_internode_techniques()) {
            for (const Technique intra : hdls::dls::paper_intranode_techniques()) {
                for (const auto model :
                     {hdls::sim::ExecModel::MpiMpi, hdls::sim::ExecModel::MpiOpenMp}) {
                    for (const int nodes : hdls::bench::kNodeCounts) {
                        plan.sweep.push_back(make_case(app, model, nodes,
                                                       hdls::bench::kWorkersPerNode, inter,
                                                       intra, *trace));
                    }
                }
            }
        }
        for (const auto model : {hdls::sim::ExecModel::MpiMpi, hdls::sim::ExecModel::MpiOpenMp}) {
            plan.traced.push_back(
                make_case(app, model, 16, 16, Technique::FAC2, Technique::SS, *trace));
        }
    }
    hdls::util::SplitMix64 rng(seed);
    for (std::size_t i = plan.sweep.size(); i > 1; --i) {
        std::swap(plan.sweep[i - 1], plan.sweep[static_cast<std::size_t>(rng.next() % i)]);
    }
    return plan;
}

/// The sim_paper workload, for `seconds`.
void run_sim(std::uint64_t seed, double seconds, hdls::bench::JsonReport& json, Ops& ops) {
#ifdef __GLIBC__
    // A traced run allocates and frees close to a gigabyte. The heap keeps
    // what it is given back (no mmap'd chunks, no trimming), so a traced
    // run's time is the tracing work, not how fast a shared host hands out
    // fresh pages; the memory shows in peak_rss_mb.
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
    Series setup = series({{"series", "setup"}});
    const SimPlan plan = paper_plan(seed, setup);

    Series sim_mpi = series({{"series", "simulate"}, {"model", "MPI+MPI"}});
    Series sim_hybrid = series({{"series", "simulate"}, {"model", "MPI+OpenMP"}});
    Series traced = series({{"series", "traced"}});

    ExportBuffer export_buffer;
    std::ostream chrome(&export_buffer);
    std::map<std::string, double> untraced_time;  // key -> priced parallel_time
    std::map<std::string, double> fastest;        // key -> fastest untraced wall

    const auto untraced_sweep = [&] {
        for (std::size_t i = 0; i < plan.sweep.size(); ++i) {
            const SimCase& c = plan.sweep[i];
            try {
                const Clock::time_point a = Clock::now();
                const hdls::sim::SimReport rep =
                    hdls::sim::simulate(c.model, c.cluster, c.cfg, *c.trace);
                const double wall = seconds_between(a, Clock::now());
                Series& by_model = c.model == hdls::sim::ExecModel::MpiMpi ? sim_mpi : sim_hybrid;
                by_model.sample("wall_s", wall);
                by_model.sample("case", static_cast<double>(i));
                double& best = fastest.try_emplace(c.key, wall).first->second;
                best = std::min(best, wall);
                untraced_time[c.key] = rep.parallel_time;
                ops.record(rep.executed_iterations() == c.trace->iterations(),
                           c.key + " executed every iteration");
            } catch (const std::exception& e) {
                ops.record(false, c.key + " threw: " + e.what());
            }
        }
    };

    // One traced configuration per call, in turn.
    std::size_t traced_runs = 0;
    const auto traced_run = [&] {
        const std::size_t i = traced_runs++ % plan.traced.size();
        const SimCase& c = plan.traced[i];
        hdls::sim::SimConfig cfg = c.cfg;
        cfg.trace = true;
        try {
            const Clock::time_point a = Clock::now();
            const hdls::sim::SimReport rep = hdls::sim::simulate(c.model, c.cluster, cfg,
                                                                 *c.trace);
            const Clock::time_point b = Clock::now();
            [[maybe_unused]] const hdls::trace::TraceAnalysis analysis =
                hdls::trace::analyze(*rep.trace);
            const Clock::time_point d = Clock::now();
            export_buffer.clear();
            hdls::trace::export_chrome_json(*rep.trace, chrome);
            const Clock::time_point e = Clock::now();
            traced.sample("case", static_cast<double>(i));
            traced.sample("total_s", seconds_between(a, e));
            traced.sample("simulate_s", seconds_between(a, b));
            traced.sample("analyze_s", seconds_between(b, d));
            traced.sample("export_s", seconds_between(d, e));
            traced.sample("events", static_cast<double>(rep.trace->events.size()));
            if (const auto f = fastest.find(c.key); f != fastest.end()) {
                traced.sample("overhead_x", seconds_between(a, b) / f->second);
            }
            // Tracing must not perturb: the traced run prices exactly
            // what its untraced twin did.
            const auto it = untraced_time.find(c.key);
            ops.record(rep.executed_iterations() == c.trace->iterations() &&
                           it != untraced_time.end() && it->second == rep.parallel_time,
                       c.key + " traced run matches its untraced twin");
        } catch (const std::exception& e) {
            ops.record(false, c.key + " traced run threw: " + e.what());
        }
    };

    // One step is one untraced sweep or one traced run. Fair share: traced
    // runs get three quarters of the time (they are few and long), untraced
    // sweeps one quarter. The untraced sweep goes first, so every traced run
    // has its twin's price to match, and a run makes at least one sweep and
    // one traced run of each traced configuration.
    double untraced_s = 0.0;
    double traced_s = 0.0;
    const auto step = [&] {
        const Clock::time_point t0 = Clock::now();
        if (untraced_s == 0.0 || (traced_s > 0.0 && 3.0 * untraced_s <= traced_s)) {
            untraced_sweep();
            untraced_s += seconds_between(t0, Clock::now());
        } else {
            traced_run();
            traced_s += seconds_between(t0, Clock::now());
            // Set-up is sampled across the whole run, so its low decile
            // does not hang on one moment of a shared host.
            (void)build_traces(setup);
        }
    };
    const Clock::time_point start = Clock::now();
    while (untraced_s == 0.0 || traced_runs < plan.traced.size() ||
           seconds_between(start, Clock::now()) < seconds) {
        step();
    }
    emit(json, {&setup, &sim_mpi, &sim_hybrid, &traced});
}

}  // namespace

int main(int argc, char** argv) {
    hdls::util::ArgParser cli(
        "perfbench_runner",
        "Measures one workload of the repository benchmark and writes its raw samples as JSON");
    cli.add_string("workload", "",
                   "sched | sched_ft | mandelbrot (the executors) or sim_paper (the simulator)");
    cli.add_int("seed", 1, "input seed");
    cli.add_double("seconds", 10.0, "measuring time (a run makes at least a minimum of samples)");
    cli.add_string("out", "", "path of the JSON samples document");
    cli.add_string("spans", "",
                   "real workloads: also run traced loops that record the benchmark's spans, "
                   "and write the last traced loop's spans to this path");
    std::string workload;
    bool real = false;
    try {
        if (!cli.parse(argc, argv)) {
            return 0;
        }
        workload = cli.get_string("workload");
        if (cli.get_string("out").empty()) {
            throw std::invalid_argument("--out is required");
        }
        real = workload == "sched" || workload == "sched_ft" || workload == "mandelbrot";
        if (!real && workload != "sim_paper") {
            throw std::invalid_argument("unknown --workload '" + workload + "'");
        }
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const double seconds = cli.get_double("seconds");

    hdls::bench::JsonReport json("perfbench");
    json.add_param("workload", workload);
    json.add_param("seed", static_cast<std::int64_t>(seed));
    json.add_param("seconds", seconds);
    json.add_param("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    json.add_param("build_type", std::string(PERFBENCH_BUILD_TYPE));
    json.add_param("simd_backend",
                   std::string(hdls::simd::backend_name(hdls::simd::active_backend())));

    Ops ops;
    try {
        if (real) {
            run_real(workload, seed, seconds, cli.get_string("spans"), json, ops);
        } else {
            run_sim(seed, seconds, json, ops);
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    json.point()
        .label("series", "process")
        .sample("attempted", static_cast<double>(ops.attempted))
        .sample("failed", static_cast<double>(ops.failed))
        .sample("peak_rss_mb", peak_rss_mb());
    try {
        json.write(cli.get_string("out"));
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
