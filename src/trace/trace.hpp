#pragma once
/// \file trace.hpp
/// The merged, immutable result of one traced run.

#include <cstdint>
#include <string>
#include <utility>
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
    /// Job identity when this trace belongs to one JobService job
    /// (-1 / "" for classic single-tenant runs).
    int job = -1;
    std::string job_name;
    /// For multi-job traces built by merge_job_traces: the ids and names
    /// of every job present, in merge order. Exporters switch to per-job
    /// grouping when this is non-empty.
    std::vector<std::pair<int, std::string>> jobs;
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

    /// Events of one job, in time order (job < 0 selects untagged events).
    [[nodiscard]] std::vector<Event> job_events(int job) const;
};

/// One per-job trace feeding a multi-job merge. `t_offset` realigns the
/// job's private origin (each TraceSession normalizes t=0 to its own
/// earliest event) onto a shared service clock — typically the job's run
/// start measured from the service epoch.
struct JobTraceInput {
    int job = 0;
    std::string name;
    const Trace* trace = nullptr;
    double t_offset = 0.0;
};

/// Merges per-job traces into one multi-job timeline: every event is
/// stamped with its job id, shifted by its job's offset, the union is
/// re-sorted and re-normalized to the earliest event, and meta.jobs lists
/// the jobs present (meta.approach/... are taken from the first input).
/// Worker ids are kept as-is — concurrent jobs share the physical worker
/// slots, so lane w shows every job's activity on that slot; use
/// Event::job (or analyze()'s per-job breakdown) to disentangle them.
[[nodiscard]] Trace merge_job_traces(const std::vector<JobTraceInput>& inputs);

}  // namespace hdls::trace
