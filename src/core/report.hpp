#pragma once
/// \file report.hpp
/// Execution reports: what a hierarchical run did and how balanced it was.

#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "core/types.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace hdls::core {

/// Per-worker accounting (a worker is an MPI rank under MPI+MPI, a thread
/// under MPI+OpenMP).
struct WorkerStats {
    int node = 0;
    int worker_in_node = 0;
    std::int64_t iterations = 0;     ///< loop iterations executed
    std::int64_t chunks = 0;         ///< chunks/sub-chunks executed
    std::int64_t global_refills = 0; ///< level-1 chunks this worker fetched
    double busy_seconds = 0.0;       ///< time inside the loop body
    double finish_seconds = 0.0;     ///< time from loop start to this worker's end
    std::int64_t clock_reads = 0;    ///< util::ChunkClock reads (per-chunk cost gate)
};

/// Result of one hierarchical loop execution.
struct ExecutionReport {
    Approach approach{};
    ClusterShape shape{};
    /// Level-0 and leaf techniques (the paper's "X + Y" shorthand; equal
    /// to levels.front()/levels.back()).
    dls::Technique inter{};
    dls::Technique intra{};
    dls::InterBackend inter_backend{};
    /// Which minimpi substrate carried the run (threads unless the config
    /// or HDLS_TRANSPORT selected shm).
    minimpi::TransportKind transport = minimpi::TransportKind::Threads;
    /// Whether asynchronous chunk prefetching was enabled for the run.
    bool prefetch = false;
    /// The SIMD policy the run requested (HDLS_SIMD / HierConfig::simd)
    /// and the backend it resolved to on this host.
    simd::SimdMode simd_mode = simd::SimdMode::Auto;
    simd::Backend simd_backend = simd::Backend::Scalar;
    /// Thread/rank placement policy (HDLS_PIN / HierConfig::pin).
    minimpi::PinPolicy pin = minimpi::PinPolicy::None;
    /// The machine tree the run scheduled over (outermost level first) and
    /// the effective per-level plan — what resolve_hierarchy produced,
    /// sharded fallbacks already applied.
    std::vector<minimpi::TopologyLevel> topology;
    std::vector<LevelConfig> levels;
    std::int64_t total_iterations = 0;
    double parallel_seconds = 0.0;  ///< max worker finish time (the paper's metric)
    std::vector<WorkerStats> workers;
    /// Merged chunk-lifecycle event trace; null unless HierConfig::trace
    /// was set for the run.
    std::shared_ptr<const trace::Trace> trace;
    /// Always-on runtime metrics, as the run's delta over the process-wide
    /// registry (counters/histograms count only this run's events; gauges
    /// are end-of-run readings). Export with metrics::to_json /
    /// metrics::to_prometheus.
    metrics::Snapshot metrics;

    /// Sum of per-worker iteration counts (must equal total_iterations).
    [[nodiscard]] std::int64_t executed_iterations() const noexcept;

    /// Total level-1 chunks fetched from the global queue.
    [[nodiscard]] std::int64_t global_chunks() const noexcept;

    /// Total chunks/sub-chunks executed.
    [[nodiscard]] std::int64_t executed_chunks() const noexcept;

    /// Coefficient of variation of worker finish times — the load-imbalance
    /// metric of the DLS literature (0 = perfectly balanced).
    [[nodiscard]] double finish_cov() const noexcept;

    /// Number of distinct workers that performed at least one global refill
    /// (> 1 demonstrates the paper's "fastest worker refills" property).
    [[nodiscard]] int distinct_refillers() const noexcept;

    /// Human-readable one-run summary.
    void print(std::ostream& os) const;
};

}  // namespace hdls::core
