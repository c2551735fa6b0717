#pragma once
/// \file engines.hpp
/// Internal: the two simulation engines behind sim::simulate(), which
/// resolves the run's level plan once, sets up the run's EngineRun and
/// hands both to the engine of the model (non-empty loops only).
/// Not part of the public API.

#include "sim/engine_trace.hpp"
#include "sim/simulator.hpp"

namespace hdls::sim::detail {

/// Worker-level engine, the paper's MPI+MPI model: every worker pops
/// sub-chunks from its node's shared queue under MPI_Win_lock
/// (PollingLock), and any rank whose pop finds the queue drained refills
/// it from the level above.
void simulate_shared_queue(EngineRun& run, const ClusterSpec& cluster, const SimConfig& config,
                           const dls::LevelPlan& plan, const WorkloadTrace& workload);

/// Node-level engine: per node, a master fetches level-1 chunks and a
/// thread team executes each under the intra schedule with an implicit
/// barrier per chunk — the MPI+OpenMP baseline (paper Figure 2).
void simulate_hybrid_barrier(EngineRun& run, const ClusterSpec& cluster,
                             const SimConfig& config, const dls::LevelPlan& plan,
                             const WorkloadTrace& workload);

}  // namespace hdls::sim::detail
