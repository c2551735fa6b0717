#pragma once
/// \file report.hpp
/// Simulation results.

#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "dls/technique.hpp"
#include "metrics/metrics.hpp"
#include "minimpi/topology.hpp"
#include "trace/trace.hpp"

namespace hdls::sim {

/// Per-worker virtual-time accounting.
struct SimWorker {
    int node = 0;
    int worker_in_node = 0;
    double busy = 0.0;       ///< loop-body compute time
    double overhead = 0.0;   ///< scheduling: locks, RMA, dequeues, bookkeeping
    double lock_wait = 0.0;  ///< part of overhead: waiting for the local lock/counter
    double idle = 0.0;       ///< barrier waits / waiting for work to appear
    double finish = 0.0;     ///< virtual time the worker left the loop
    std::int64_t iterations = 0;
    std::int64_t sub_chunks = 0;
    std::int64_t global_refills = 0;
};

/// Result of one simulated execution.
struct SimReport {
    int nodes = 0;
    int workers_per_node = 0;
    /// The machine tree the run scheduled over (outermost level first;
    /// always set — the classic run carries the implied {nodes, cores}).
    std::vector<minimpi::TopologyLevel> topology;
    std::int64_t total_iterations = 0;
    double parallel_time = 0.0;  ///< the paper's metric: max worker finish time
    /// Iterations re-queued from a killed node's local queue onto the
    /// survivors (SimConfig::failure); 0 when no failure was injected or
    /// the model had nothing to reclaim.
    std::int64_t reclaimed_iterations = 0;
    std::vector<SimWorker> workers;
    /// Virtual-time chunk-lifecycle events; null unless SimConfig::trace.
    std::shared_ptr<const trace::Trace> trace;
    /// This simulation's metrics (executed chunks and iterations, level-0
    /// acquires and refills) under the executors' family names, so sim and
    /// real runs export through the same Prometheus/JSON pipeline. Built
    /// per report: a simulation never touches the process-wide registry.
    metrics::Snapshot metrics;

    [[nodiscard]] std::int64_t executed_iterations() const noexcept;
    [[nodiscard]] std::int64_t global_chunks() const noexcept;
    [[nodiscard]] std::int64_t sub_chunks() const noexcept;
    [[nodiscard]] double total_busy() const noexcept;
    [[nodiscard]] double total_overhead() const noexcept;
    [[nodiscard]] double total_lock_wait() const noexcept;
    [[nodiscard]] double total_idle() const noexcept;
    /// busy / (parallel_time * workers): 1.0 = perfect scaling.
    [[nodiscard]] double efficiency() const noexcept;
    /// CoV of worker finish times (load-imbalance metric).
    [[nodiscard]] double finish_cov() const noexcept;

    void print(std::ostream& os) const;
};

}  // namespace hdls::sim
