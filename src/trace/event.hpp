#pragma once
/// \file event.hpp
/// The chunk-lifecycle event model of the tracing subsystem.
///
/// A trace is a flat sequence of Events, each stamped with the recording
/// worker and its node. Two shapes coexist:
///  * interval events (t0 < t1): GlobalAcquire (request -> return of the
///    distributed chunk calculation), LocalPop (one access to a level
///    queue; `wait` isolates its contention: the lock-grant latency of an
///    epoch — a push, a sharded-relay access, a simulated pop — or the
///    time a lock-free pop spent in failed claim attempts, the quantity
///    the paper's lock-polling discussion revolves around)
///    and BarrierWait (entering -> leaving a wait for work or a barrier);
///  * instant events (t0 == t1): RefillBegin/RefillEnd bracketing a refill
///    announcement, ChunkExecBegin/ChunkExecEnd bracketing one sub-chunk's
///    loop-body execution, and Terminate when the worker leaves the loop.
///
/// Timestamps are seconds relative to the trace origin (the earliest
/// recorded event after merging); the simulator records virtual time with
/// the same schema, so every exporter and analysis works on both.

#include <cstdint>
#include <string_view>

namespace hdls::trace {

enum class EventKind : std::uint8_t {
    GlobalAcquire,   ///< global-queue chunk acquisition (a=start, b=size; b==0: exhausted probe)
    LocalPop,        ///< node-queue pop epoch (a=begin, b=end of sub-chunk; a==b==-1: empty)
    RefillBegin,     ///< refill announced (in-flight counter raised)
    RefillEnd,       ///< refill completed/withdrawn (a=start, b=size pushed; b==0: none)
    ChunkExecBegin,  ///< loop body entered for [a, b)
    ChunkExecEnd,    ///< loop body left for [a, b)
    BarrierWait,     ///< waiting: team barrier / work not yet visible / termination spin
    Terminate,       ///< worker left the scheduling loop
    FeedbackReport,  ///< adaptive feedback posted (a=iterations, b=the rate denominator in
                     ///< ns: pure body time under MPI+MPI, node wall time under MPI+OpenMP
                     ///< whose funneled master reports whole chunks)
    Steal,           ///< level-1 work steal under the sharded backend (a=start, b=size
                     ///< carved from a peer shard; the victim is recoverable from the
                     ///< range, shard boundaries being deterministic)
    Prefetch,        ///< prefetch-slot outcome at acquire time: a=1 hit (the chunk was
                     ///< already in the slot, acquired ahead of demand; `wait` holds the
                     ///< acquisition seconds spent filling it, b the chunk start) or a=0
                     ///< miss (the slot was empty; the acquisition ran on demand). Under
                     ///< the simulators' overlap pricing the hit's `wait` is latency
                     ///< hidden behind chunk execution — genuinely off the critical
                     ///< path; the thread-backed real executor repositions that work
                     ///< rather than removing it (its RMA has no flight time to hide)
    Reclaim,         ///< lease reclaimed from a dead owner and re-executed by the
                     ///< recording worker (a=start, b=size of the reclaimed chunk;
                     ///< docs/fault-tolerance.md)
};

inline constexpr int kEventKinds = 12;

[[nodiscard]] constexpr std::string_view event_kind_name(EventKind k) noexcept {
    switch (k) {
        case EventKind::GlobalAcquire:
            return "GlobalAcquire";
        case EventKind::LocalPop:
            return "LocalPop";
        case EventKind::RefillBegin:
            return "RefillBegin";
        case EventKind::RefillEnd:
            return "RefillEnd";
        case EventKind::ChunkExecBegin:
            return "ChunkExecBegin";
        case EventKind::ChunkExecEnd:
            return "ChunkExecEnd";
        case EventKind::BarrierWait:
            return "BarrierWait";
        case EventKind::Terminate:
            return "Terminate";
        case EventKind::FeedbackReport:
            return "FeedbackReport";
        case EventKind::Steal:
            return "Steal";
        case EventKind::Prefetch:
            return "Prefetch";
        case EventKind::Reclaim:
            return "Reclaim";
    }
    return "?";
}

/// One recorded event. Kept POD and small: it is the unit the per-worker
/// event logs store on the executors' hot path (the `level` tag fits the
/// existing padding, so the struct stays 56 bytes).
struct Event {
    double t0 = 0.0;        ///< seconds since trace origin (start of the span)
    double t1 = 0.0;        ///< end of the span (== t0 for instant events)
    double wait = 0.0;      ///< contention inside the span (LocalPop; see above)
    std::int64_t a = 0;     ///< payload: iteration-range begin / chunk start
    std::int64_t b = 0;     ///< payload: iteration-range end / chunk size
    std::int32_t worker = 0;
    std::int32_t node = 0;
    EventKind kind{};
    /// Scheduling-hierarchy level the event belongs to: the level of the
    /// queue acquired from (GlobalAcquire/Steal) or popped/refilled
    /// (LocalPop, Refill*). 0 = the root; in the classic two-level tree
    /// GlobalAcquire is level 0 and LocalPop level 1.
    std::int8_t level = 0;

    [[nodiscard]] double duration() const noexcept { return t1 - t0; }
};

}  // namespace hdls::trace
