#pragma once
/// \file runner.hpp
/// One-call entry point: execute a loop hierarchically on a simulated
/// cluster and collect the execution report.

#include <optional>
#include <string>

#include "core/exec_hooks.hpp"
#include "core/report.hpp"
#include "core/types.hpp"

namespace hdls::core {

/// Validates a (shape, approach, config) combination; throws
/// std::invalid_argument / UnsupportedCombination with a actionable
/// message if the combination cannot run.
void validate_combination(const ClusterShape& shape, Approach approach, const HierConfig& cfg);

/// Per-run options beyond the scheduling config — the seams the
/// JobService (and tests) thread into a run without touching HierConfig:
/// the multi-tenant chunk gate, a job id for trace stamping, and explicit
/// metrics-sampler overrides (so concurrent runs get separate watchdogs /
/// exposition files regardless of process-wide env state).
struct RunOptions {
    /// Consulted between chunk acquisition and execution (see ChunkGate).
    /// Must outlive the call. Null = ungated (classic single-tenant run).
    ChunkGate* gate = nullptr;
    /// Job id stamped on every trace event of this run (-1 = untagged);
    /// lets merge_job_traces build a multi-job timeline without rewriting.
    int job = -1;
    /// Override HDLS_METRICS for this run (sampler + stall watchdog).
    std::optional<bool> metrics;
    /// Override HDLS_METRICS_FILE (only read when the sampler runs).
    std::optional<std::string> metrics_file;
};

/// Runs the loop [0, n) under the given approach on a thread-backed
/// cluster of shape.nodes x shape.workers_per_node and returns the merged
/// report. `body` must be thread-safe across disjoint ranges.
[[nodiscard]] ExecutionReport run_hierarchical(const ClusterShape& shape, Approach approach,
                                               const HierConfig& cfg, std::int64_t n,
                                               const ChunkBody& body);

/// As above, with per-run execution options. Safe to call concurrently
/// from several threads of one process: each run owns its watchdog (when
/// metrics are on) and every worker beats only its own run's watchdog,
/// through its Probe; the metrics delta attached to the report is the *process-wide* delta over
/// the run's span — concurrent runs therefore see each other's counts in
/// their deltas (the registry is process-global by design; per-job
/// attribution comes from the JobService's labeled job metrics and
/// per-job traces instead).
[[nodiscard]] ExecutionReport run_hierarchical(const ClusterShape& shape, Approach approach,
                                               const HierConfig& cfg, std::int64_t n,
                                               const ChunkBody& body, const RunOptions& opts);

/// Serial reference execution (for correctness comparisons).
void run_serial(std::int64_t n, const ChunkBody& body);

}  // namespace hdls::core
