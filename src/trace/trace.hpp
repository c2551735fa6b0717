#pragma once
/// \file trace.hpp
/// The merged, immutable result of one traced run.

#include <cstdint>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace hdls::trace {

/// What was traced — filled by whoever owns the run (runner, simulator,
/// bench) so exporters can label the output.
struct TraceMeta {
    std::string approach;  ///< "MPI+MPI", "MPI+OpenMP", sim model name, ...
    std::string inter;     ///< inter-node technique name
    std::string intra;     ///< intra-node technique name
    int nodes = 0;
    int workers_per_node = 0;
    std::int64_t total_iterations = 0;
};

/// Merged trace: events of every worker, sorted by (t0, worker) and
/// normalized so the earliest event starts at t=0.
class Trace {
public:
    TraceMeta meta;
    std::vector<Event> events;                    ///< sorted by (t0, worker)
    std::vector<std::int64_t> dropped_per_worker; ///< events dropped past the per-worker cap

    [[nodiscard]] int workers() const noexcept {
        return static_cast<int>(dropped_per_worker.size());
    }

    /// Total events the per-worker logs had to discard (0 = complete trace).
    [[nodiscard]] std::int64_t dropped() const noexcept;

    /// Number of events of one kind.
    [[nodiscard]] std::int64_t count(EventKind kind) const noexcept;

    /// Number of events of one kind recorded by one worker.
    [[nodiscard]] std::int64_t count(EventKind kind, int worker) const noexcept;

    /// Successful global-queue acquisitions (GlobalAcquire with size > 0).
    [[nodiscard]] std::int64_t global_chunks() const noexcept;

    /// End of the last event (the traced makespan).
    [[nodiscard]] double duration() const noexcept;

    /// Events of one worker, in time order.
    [[nodiscard]] std::vector<Event> worker_events(int worker) const;
};

}  // namespace hdls::trace
