#pragma once
/// \file engines.hpp
/// Internal: the two simulation engines behind sim::simulate(), which
/// resolves the run's level plan once, sets up the run's EngineRun and
/// hands both to the engine of the model (non-empty loops only).
/// Not part of the public API.

#include "sim/engine_trace.hpp"
#include "sim/simulator.hpp"

namespace hdls::sim::detail {

/// Worker-level engine: every worker independently pops sub-chunks from its
/// node's shared queue and refills it from the global queue.
///  * MpiMpi -> queue access via MPI_Win_lock (PollingLock), and any rank
///    refills: the paper's MPI+MPI model.
///  * MpiOpenMpNowait -> queue access via an atomic counter (FcfsResource),
///    and only worker 0 of each node refills (MPI_THREAD_FUNNELED): the
///    OpenMP-nowait future-work model.
void simulate_shared_queue(EngineRun& run, ExecModel model, const ClusterSpec& cluster,
                           const SimConfig& config, const dls::LevelPlan& plan,
                           const WorkloadTrace& workload);

/// Node-level engine: per node, a master fetches level-1 chunks and a
/// thread team executes each under the intra schedule with an implicit
/// barrier per chunk — the MPI+OpenMP baseline (paper Figure 2).
void simulate_hybrid_barrier(EngineRun& run, const ClusterSpec& cluster,
                             const SimConfig& config, const dls::LevelPlan& plan,
                             const WorkloadTrace& workload);

}  // namespace hdls::sim::detail
