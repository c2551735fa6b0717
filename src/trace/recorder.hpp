#pragma once
/// \file recorder.hpp
/// Live recording: a TraceSession owns one growable EventLog per worker and
/// hands each worker a WorkerTracer — a trivially-copyable handle that is
/// a complete no-op when default-constructed (the disabled state), so
/// executors thread it through unconditionally at zero cost.
///
/// Two clock modes share one API:
///  * real executors stamp events with `now()` (steady-clock seconds since
///    the session epoch);
///  * the discrete-event simulator passes its own virtual timestamps to
///    `record()` / `instant()` directly.

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/event.hpp"
#include "trace/event_log.hpp"
#include "trace/trace.hpp"

namespace hdls::trace {

/// Per-worker recording handle. Cheap to copy; safe to use from exactly
/// one thread at a time (the log's single producer).
class WorkerTracer {
public:
    using Clock = std::chrono::steady_clock;

    /// Disabled handle: every record call is a no-op, `enabled()` is false.
    WorkerTracer() = default;

    [[nodiscard]] bool enabled() const noexcept { return log_ != nullptr; }

    /// Seconds since the session epoch (0 when disabled — callers guard
    /// clock reads behind enabled() so disabled tracing costs nothing).
    [[nodiscard]] double now() const noexcept {
        if (!enabled()) {
            return 0.0;
        }
        return std::chrono::duration<double>(Clock::now() - epoch_).count();
    }

    /// Records an interval event [t0, t1] (drop-counted past the cap).
    /// `level` tags the scheduling-hierarchy level (see Event::level).
    void record(EventKind kind, double t0, double t1, std::int64_t a = 0, std::int64_t b = 0,
                double wait = 0.0, int level = 0) noexcept {
        if (!enabled()) {
            return;
        }
        Event e;
        e.t0 = t0;
        e.t1 = t1;
        e.wait = wait;
        e.a = a;
        e.b = b;
        e.worker = worker_;
        e.node = node_;
        e.job = job_;
        e.kind = kind;
        e.level = static_cast<std::int8_t>(level);
        (void)log_->append(e);
    }

    /// Records an instant event at time t.
    void instant(EventKind kind, double t, std::int64_t a = 0, std::int64_t b = 0,
                 int level = 0) noexcept {
        record(kind, t, t, a, b, 0.0, level);
    }

private:
    friend class TraceSession;
    WorkerTracer(EventLog* log, Clock::time_point epoch, std::int32_t worker, std::int32_t node,
                 std::int32_t job) noexcept
        : log_(log), epoch_(epoch), worker_(worker), node_(node), job_(job) {}

    EventLog* log_ = nullptr;
    Clock::time_point epoch_{};
    std::int32_t worker_ = -1;
    std::int32_t node_ = -1;
    std::int32_t job_ = -1;
};

/// Owns the per-worker event logs of one traced run.
///
///   TraceSession session(shape.total_workers());
///   ... each worker records through session.tracer(w, node) ...
///   Trace trace = session.merge();   // after all workers finished
class TraceSession {
public:
    static constexpr std::size_t kDefaultCapacity = 1 << 14;  ///< event cap per worker

    /// Each worker keeps at most `capacity_per_worker` events; its log
    /// allocates nothing until the worker records. `job` >= 0 makes this
    /// a per-job session: every recorded event is stamped with the id, so
    /// merge_job_traces needs no rewriting pass and partial traces stay
    /// attributable.
    explicit TraceSession(int workers, std::size_t capacity_per_worker = kDefaultCapacity,
                          std::int32_t job = -1);

    [[nodiscard]] int workers() const noexcept { return static_cast<int>(logs_.size()); }

    /// Handle for one worker. Thread-safe (the logs exist from
    /// construction on); each handle must then be used by a single thread.
    [[nodiscard]] WorkerTracer tracer(int worker, int node) noexcept;

    /// Moves every log's events into a time-sorted, origin-normalized
    /// Trace. Call only after all producers have stopped recording.
    [[nodiscard]] Trace merge();

    /// merge() plus metadata, wrapped for a report: the one-liner every
    /// run owner (runner, sim engines) ends a traced run with.
    [[nodiscard]] std::shared_ptr<const Trace> finish(TraceMeta meta);

private:
    std::vector<std::unique_ptr<EventLog>> logs_;
    WorkerTracer::Clock::time_point epoch_;
    std::int32_t job_ = -1;
};

}  // namespace hdls::trace
