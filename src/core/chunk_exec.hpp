#pragma once
/// \file chunk_exec.hpp
/// ChunkExecutor: the one chunk-execution step of the MPI+MPI loop, its
/// lease reclamation drain and the MPI+OpenMP team threads, so both
/// approaches time, commit and report a chunk the same way. run() owns
/// the ChunkExecBegin/End trace bracket, the two chunk-clock stamps around
/// the body, the lease completion fence, the committed chunk's accounting
/// (WorkerStats and the exec metrics) and the watchdog beat; callers keep
/// the gate, the liveness poll, the chaos seam, reclamation and feedback.
/// run() is forced inline: an out-of-line call on the per-chunk path
/// measurably slows loops with near-empty bodies.

#include <chrono>
#include <cstdint>

#include "core/lease_board.hpp"
#include "core/report.hpp"
#include "core/types.hpp"
#include "metrics/metrics.hpp"
#include "metrics/watchdog.hpp"
#include "trace/recorder.hpp"
#include "util/chunk_clock.hpp"

namespace hdls::core {

class ChunkExecutor {
public:
    using time_point = util::ChunkClock::time_point;

    struct Result {
        /// False when the lease fence was lost (a survivor reclaimed the
        /// chunk mid-body): the execution is discarded, not accounted.
        bool committed = true;
        time_point b0{};  ///< body start stamp
        time_point b1{};  ///< body end stamp
        std::chrono::nanoseconds busy{0};
    };

    /// One per worker, on its stack. `board` is null outside lease mode;
    /// `worker` is the watchdog slot the beats go to.
    ChunkExecutor(const ChunkBody& body, util::ChunkClock& clock, WorkerStats& stats,
                  const trace::WorkerTracer& tracer, LeaseBoard* board, int worker,
                  metrics::StallWatchdog* watchdog) noexcept
        : body_(body),
          clock_(clock),
          stats_(stats),
          tracer_(tracer),
          board_(board),
          watchdog_(watchdog),
          m_(metrics::rt()),
          worker_(worker),
          tracing_(tracer.enabled()) {}

    /// Executes [start, start + size) once; `level` and
    /// `prefetch_outstanding` go into the watchdog beat.
    [[gnu::always_inline]] Result run(std::int64_t start, std::int64_t size, int level,
                                      bool prefetch_outstanding) {
        const std::int64_t end = start + size;
        if (tracing_) {
            tracer_.instant(trace::EventKind::ChunkExecBegin, tracer_.now(), start, end);
        }
        Result r;
        r.b0 = clock_.now();
        body_(start, end);
        r.b1 = clock_.now();
        r.busy = util::elapsed(r.b0, r.b1);
        const double busy_seconds = std::chrono::duration<double>(r.busy).count();
        r.committed = board_ == nullptr || board_->complete(start, r.b1);
        if (r.committed) {
            stats_.busy_seconds += busy_seconds;
            stats_.iterations += size;
            ++stats_.chunks;
            m_.exec_chunks->inc();
            m_.exec_iterations->inc(static_cast<std::uint64_t>(size));
            m_.chunk_exec_ns->observe(static_cast<std::uint64_t>(r.busy.count()));
        }
        metrics::worker_beat(worker_, level, start, prefetch_outstanding, busy_seconds, r.b1,
                             watchdog_);
        if (tracing_) {
            tracer_.instant(trace::EventKind::ChunkExecEnd, tracer_.now(), start, end);
        }
        return r;
    }

private:
    const ChunkBody& body_;
    util::ChunkClock& clock_;
    WorkerStats& stats_;
    trace::WorkerTracer tracer_;
    LeaseBoard* board_;
    metrics::StallWatchdog* watchdog_;
    const metrics::RuntimeMetrics& m_;
    int worker_;
    bool tracing_;
};

}  // namespace hdls::core
