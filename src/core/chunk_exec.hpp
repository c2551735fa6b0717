#pragma once
/// \file chunk_exec.hpp
/// ChunkExecutor: the one chunk-execution step of the MPI+MPI loop, its
/// lease reclamation drain and the MPI+OpenMP team threads, so both
/// approaches time, commit and report a chunk the same way. run() owns
/// the two chunk-clock stamps around the body, the lease completion
/// fence and the committed chunk's WorkerStats; the worker's Probe gets
/// the trace bracket, the exec metrics and the watchdog beat. Callers
/// keep the gate, the liveness poll, the chaos seam, reclamation and
/// feedback. run() is forced inline: an out-of-line call on the per-chunk
/// path measurably slows loops with near-empty bodies.

#include <chrono>
#include <cstdint>

#include "core/lease_board.hpp"
#include "core/probe.hpp"
#include "core/report.hpp"
#include "core/types.hpp"
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

    /// One per worker, on its stack. `board` is null outside lease mode.
    ChunkExecutor(const ChunkBody& body, util::ChunkClock& clock, WorkerStats& stats,
                  LeaseBoard* board, const Probe& probe) noexcept
        : body_(body), clock_(clock), stats_(stats), board_(board), probe_(probe) {}

    /// Executes [start, start + size) once; `level` and
    /// `prefetch_outstanding` go into the watchdog beat.
    [[gnu::always_inline]] Result run(std::int64_t start, std::int64_t size, int level,
                                      bool prefetch_outstanding) {
        probe_.chunk_begin(start, start + size);
        Result r;
        r.b0 = clock_.now();
        body_(start, start + size);
        r.b1 = clock_.now();
        r.busy = util::elapsed(r.b0, r.b1);
        const double busy_seconds = std::chrono::duration<double>(r.busy).count();
        r.committed = board_ == nullptr || board_->complete(start, r.b1);
        if (r.committed) {
            stats_.busy_seconds += busy_seconds;
            stats_.iterations += size;
            ++stats_.chunks;
        }
        probe_.chunk_end(start, size, r.committed, r.busy, busy_seconds, r.b1, level,
                         prefetch_outstanding);
        return r;
    }

private:
    const ChunkBody& body_;
    util::ChunkClock& clock_;
    WorkerStats& stats_;
    LeaseBoard* board_;
    Probe probe_;
};

}  // namespace hdls::core
