#pragma once
/// \file engines.hpp
/// Internal: the two simulation engines behind sim::simulate(), which
/// resolves the run's level plan once and hands it to them.
/// Not part of the public API.

#include "sim/simulator.hpp"

namespace hdls::sim::detail {

/// Worker-level engine: every worker independently pops sub-chunks from its
/// node's shared queue and refills it from the global queue.
///  * polling_lock = true  -> queue access via MPI_Win_lock (PollingLock):
///    the paper's MPI+MPI model.
///  * polling_lock = false -> queue access via an atomic counter
///    (FcfsResource): the OpenMP-nowait future-work model.
///  * any_rank_refills = false restricts global-queue access to worker 0 of
///    each node (MPI_THREAD_FUNNELED).
[[nodiscard]] SimReport simulate_shared_queue(const ClusterSpec& cluster, const SimConfig& config,
                                              const dls::LevelPlan& plan,
                                              const WorkloadTrace& workload, bool polling_lock,
                                              bool any_rank_refills);

/// Node-level engine: per node, a master fetches level-1 chunks and a
/// thread team executes each under the intra schedule with an implicit
/// barrier per chunk — the MPI+OpenMP baseline (paper Figure 2).
[[nodiscard]] SimReport simulate_hybrid_barrier(const ClusterSpec& cluster,
                                                const SimConfig& config,
                                                const dls::LevelPlan& plan,
                                                const WorkloadTrace& workload);

}  // namespace hdls::sim::detail
