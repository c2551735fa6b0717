#pragma once
/// \file probe.hpp
/// Probe: the one instrumentation sink of a scheduling worker.
///
/// A worker's time reaches three consumers: the opt-in trace (per-worker
/// event logs, src/trace/), the always-on metrics (metrics::rt()) and the
/// run's stall watchdog. A Probe holds the worker's handle on all three —
/// its WorkerTracer, its watchdog slot and the resolved metric handles —
/// and offers one inline call per scheduling event, so which metric
/// family, level label, trace event and watchdog slot an event maps to is
/// decided here and nowhere else. The executors, the ChunkExecutor and
/// build_hierarchy take a Probe; each ComposedWorkSource holds a
/// Probe::Level, the same sink specialized to one hierarchy level (its
/// metric handles resolved once, plus the level's coalesced
/// termination-wait span).
///
/// A Probe is a by-value handle: copies feed the same sinks, and every
/// call is safe from the one thread that owns the worker. A
/// default-constructed Probe records no trace and beats no watchdog; the
/// always-on metrics still count. Every call is inline and adds nothing to
/// the per-chunk path beyond the sink operations themselves.

#include <chrono>
#include <cstdint>
#include <optional>

#include "core/local_queue.hpp"
#include "dls/adaptive.hpp"
#include "metrics/metrics.hpp"
#include "metrics/watchdog.hpp"
#include "trace/recorder.hpp"

namespace hdls::core {

class Probe {
public:
    class Level;

    /// Disabled sink: no trace events, no watchdog beats.
    Probe() noexcept : Probe(trace::WorkerTracer{}, nullptr, -1) {}

    /// `worker` is the watchdog slot this worker beats (and its id in the
    /// tracer); `watchdog` may be null.
    Probe(trace::WorkerTracer tracer, metrics::StallWatchdog* watchdog, int worker) noexcept
        : tracer_(tracer),
          watchdog_(watchdog),
          m_exec_chunks_(metrics::rt().exec_chunks),
          m_exec_iterations_(metrics::rt().exec_iterations),
          m_chunk_exec_ns_(metrics::rt().chunk_exec_ns),
          worker_(worker),
          tracing_(tracer.enabled()) {}

    /// This worker's sink at hierarchy level `level` (>= 1 for a relay
    /// level; parent acquisitions are attributed to `level - 1`).
    [[nodiscard]] Level level(int level) const noexcept;

    /// Seconds on the trace clock; 0 when tracing is off, so a span
    /// start can be taken unconditionally.
    [[nodiscard]] double now() const noexcept { return tracer_.now(); }

    /// The run's watchdog (null when the run has none).
    [[nodiscard]] metrics::StallWatchdog* watchdog() const noexcept { return watchdog_; }

    /// The worker enters its scheduling loop: the active-worker gauge
    /// rises and its watchdog slot starts its heartbeat clock.
    void enter() noexcept {
        metrics::rt().workers_active->add(1);
        if (watchdog_ != nullptr) {
            watchdog_->enter(worker_);
        }
    }

    /// The worker leaves its loop: its Terminate event, the gauge, and the
    /// watchdog slot goes exempt from stall checks.
    void leave() noexcept {
        instant(trace::EventKind::Terminate);
        metrics::rt().workers_active->add(-1);
        if (watchdog_ != nullptr) {
            watchdog_->leave(worker_);
        }
    }

    /// Opens the trace bracket of one chunk execution [start, end).
    [[gnu::always_inline]] void chunk_begin(std::int64_t start, std::int64_t end) noexcept {
        if (tracing_) {
            tracer_.instant(trace::EventKind::ChunkExecBegin, tracer_.now(), start, end);
        }
    }

    /// Closes it: a committed chunk counts into the exec metrics; either
    /// way the worker beats its watchdog slot, stamped `at` (the body-end
    /// stamp), at `level` with `busy` as the chunk time.
    [[gnu::always_inline]] void chunk_end(std::int64_t start, std::int64_t size, bool committed,
                                          std::chrono::nanoseconds busy, double busy_seconds,
                                          std::chrono::steady_clock::time_point at, int level,
                                          bool prefetch_outstanding) noexcept {
        if (committed) {
            m_exec_chunks_->inc();
            m_exec_iterations_->inc(static_cast<std::uint64_t>(size));
            m_chunk_exec_ns_->observe(static_cast<std::uint64_t>(busy.count()));
        }
        if (watchdog_ != nullptr) {
            watchdog_->beat_at(watchdog_->ns_at(at), worker_, level, start, prefetch_outstanding,
                               busy_seconds);
        }
        if (tracing_) {
            tracer_.instant(trace::EventKind::ChunkExecEnd, tracer_.now(), start, start + size);
        }
    }

    /// An adaptive feedback flush of `iterations` executed in
    /// `busy_seconds` (after the report reached the root).
    void feedback(std::int64_t iterations, double busy_seconds) noexcept {
        metrics::rt().feedback_flushes->inc();
        instant(trace::EventKind::FeedbackReport, iterations, dls::feedback_ns(busy_seconds));
    }

    /// One round of an MPI+OpenMP team thread: the `chunks` sub-chunks it
    /// executed in the round's worksharing construct and the time it
    /// waited at the team's barriers.
    void team_round(std::int64_t chunks, std::chrono::nanoseconds idle) noexcept {
        metrics::rt().team_chunks->inc(static_cast<std::uint64_t>(chunks));
        metrics::rt().team_idle_ns->inc(static_cast<std::uint64_t>(idle.count()));
    }

    /// One failure-detector round (the lease loop's timed polls and every
    /// drain round).
    void liveness_poll() noexcept { metrics::rt().liveness_polls->inc(); }

    /// One waiting round of the lease drain: publishes the detector's
    /// dead-rank count and beats without a chunk, stamped on steady_clock
    /// so the chunk clock's reads stay per chunk.
    void drain_round(int ranks_dead, int level, bool prefetch_outstanding) noexcept {
        metrics::rt().ranks_dead->set(ranks_dead);
        if (watchdog_ != nullptr) {
            watchdog_->beat_at(watchdog_->now_ns(), worker_, level, -1, prefetch_outstanding,
                               0.0);
        }
    }

    /// Trace-only events: an instant now, and a span from `t0` (a now()
    /// value) to now.
    void instant(trace::EventKind kind, std::int64_t a = 0, std::int64_t b = 0) noexcept {
        if (tracing_) {
            tracer_.instant(kind, tracer_.now(), a, b);
        }
    }
    void span(trace::EventKind kind, double t0) noexcept {
        if (tracing_) {
            tracer_.record(kind, t0, tracer_.now());
        }
    }

private:
    trace::WorkerTracer tracer_;
    metrics::StallWatchdog* watchdog_;
    metrics::Counter* m_exec_chunks_;
    metrics::Counter* m_exec_iterations_;
    metrics::Histogram* m_chunk_exec_ns_;
    int worker_;
    bool tracing_;
};

/// One worker's sink at one hierarchy level: pops and refills carry this
/// level, parent acquisitions the parent's (level - 1), in both the trace
/// events and the per-level metric families. While the level spins in the
/// termination protocol the whole wait is one BarrierWait span, and the
/// per-poll LocalPop / GlobalAcquire / Refill markers are muted.
class Probe::Level {
public:
    Level(const Probe& probe, int level) noexcept
        : tracer_(probe.tracer_),
          m_pops_(metrics::rt().pops[index(level)]),
          m_refills_(metrics::rt().refills[index(level)]),
          m_acquires_(metrics::rt().acquires[index(level - 1)]),
          m_steals_(metrics::rt().steals[index(level - 1)]),
          m_acquire_latency_(metrics::rt().acquire_latency_ns[index(level - 1)]),
          m_prefetch_hits_(metrics::rt().prefetch_hits),
          m_prefetch_misses_(metrics::rt().prefetch_misses),
          m_termination_spins_(metrics::rt().termination_spins),
          level_(level),
          tracing_(probe.tracing_) {}

    [[nodiscard]] int level() const noexcept { return level_; }

    /// As Probe::now().
    [[nodiscard]] double now() const noexcept { return tracer_.now(); }

    /// Where a queue access reports its contention wait: `w` when tracing,
    /// else null (the queue then skips its timing).
    [[nodiscard]] double* wait_out(double& w) const noexcept { return tracing_ ? &w : nullptr; }

    /// A pop of this level's queue that began at `t0` (a now() value) and
    /// waited `wait` seconds: a found sub-chunk counts a pop and ends any
    /// termination wait; the LocalPop event carries the sub-chunk, or
    /// (-1, -1) for an empty queue.
    [[gnu::always_inline]] void pop(double t0, const std::optional<LevelQueue::SubChunk>& sub,
                                    double wait) noexcept {
        if (sub) {
            m_pops_->inc();
            close_wait(t0);
        }
        if (recording()) {
            tracer_.record(trace::EventKind::LocalPop, t0, tracer_.now(), sub ? sub->begin : -1,
                           sub ? sub->end : -1, wait, level_);
        }
    }

    /// A refill announced (RefillBegin) and its end: a pushed parent
    /// `chunk` counts a refill, and RefillEnd carries it ((0, 0) when the
    /// parent was exhausted).
    void refill_begin() noexcept {
        if (recording()) {
            tracer_.instant(trace::EventKind::RefillBegin, tracer_.now(), 0, 0, level_);
        }
    }
    template <typename Chunk>
    void refill_end(const std::optional<Chunk>& chunk) noexcept {
        if (chunk) {
            m_refills_->inc();
        }
        if (recording()) {
            tracer_.instant(trace::EventKind::RefillEnd, tracer_.now(), chunk ? chunk->start : 0,
                            chunk ? chunk->size : 0, level_);
        }
    }

    /// A parent acquisition that began at `t0` and returned `chunk` (a
    /// WorkSource::Chunk; nullopt when the parent is exhausted) after
    /// `latency`. A chunk counts as owned or stolen at the parent's level
    /// with its latency, ends any termination wait and is traced as a
    /// GlobalAcquire or Steal; an exhausted parent is traced with (0, 0).
    template <typename Chunk>
    [[gnu::always_inline]] void parent_acquire(const std::optional<Chunk>& chunk, double t0,
                                               std::chrono::nanoseconds latency) noexcept {
        if (chunk) {
            m_acquire_latency_->observe(static_cast<std::uint64_t>(latency.count()));
            (chunk->stolen ? m_steals_ : m_acquires_)->inc();
            close_wait(t0);
        }
        if (recording()) {
            tracer_.record(chunk && chunk->stolen ? trace::EventKind::Steal
                                                  : trace::EventKind::GlobalAcquire,
                           t0, tracer_.now(), chunk ? chunk->start : 0, chunk ? chunk->size : 0,
                           0.0, level_ - 1);
        }
    }

    /// A try_acquire served from the prefetch slot (`hit`, the slot having
    /// hidden `fill_seconds`) or one that found it empty (0 seconds).
    void prefetch(bool hit, std::int64_t start, double fill_seconds) noexcept {
        (hit ? m_prefetch_hits_ : m_prefetch_misses_)->inc();
        if (tracing_) {
            const double t = tracer_.now();
            tracer_.record(trace::EventKind::Prefetch, t, t, hit ? 1 : 0, start, fill_seconds,
                           level_);
        }
    }

    /// One polling round of the termination protocol; the first opens the
    /// coalesced wait span.
    void termination_spin() noexcept {
        if (tracing_ && wait_start_ < 0.0) {
            wait_start_ = tracer_.now();
        }
        m_termination_spins_->inc();
    }

    /// Closes an open wait span (call once after the final acquire).
    void finish() noexcept { close_wait(tracer_.now()); }

private:
    [[nodiscard]] static std::size_t index(int level) noexcept {
        return static_cast<std::size_t>(metrics::RuntimeMetrics::level_index(level));
    }

    /// Tracing, and not inside a coalesced termination wait.
    [[nodiscard]] bool recording() const noexcept { return tracing_ && wait_start_ < 0.0; }

    /// `end` is the start of the transaction that found work, so the wait
    /// span never overlaps the recorded LocalPop/GlobalAcquire epoch.
    void close_wait(double end) noexcept {
        if (tracing_ && wait_start_ >= 0.0) {
            tracer_.record(trace::EventKind::BarrierWait, wait_start_, end);
            wait_start_ = -1.0;
        }
    }

    trace::WorkerTracer tracer_;
    metrics::Counter* m_pops_;
    metrics::Counter* m_refills_;
    metrics::Counter* m_acquires_;
    metrics::Counter* m_steals_;
    metrics::Histogram* m_acquire_latency_;
    metrics::Counter* m_prefetch_hits_;
    metrics::Counter* m_prefetch_misses_;
    metrics::Counter* m_termination_spins_;
    int level_;
    bool tracing_;
    double wait_start_ = -1.0;
};

inline Probe::Level Probe::level(int level) const noexcept { return Level(*this, level); }

}  // namespace hdls::core
