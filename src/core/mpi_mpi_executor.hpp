#pragma once
/// \file mpi_mpi_executor.hpp
/// The paper's proposed approach: hierarchical DLS with a single
/// programming model (MPI+MPI).
///
/// Every worker is an MPI rank. Ranks on one node share a NodeWorkQueue
/// (an MPI_Win_allocate_shared window); all nodes share the GlobalWorkQueue
/// (an RMA window on world rank 0). A free rank first tries a sub-chunk
/// from its node queue; if the node queue is drained, *whichever rank got
/// there first* refills it from the global queue — no implicit barrier
/// exists anywhere, which is the property Figures 3/5/6/7 credit for the
/// MPI+MPI wins with intra-node STATIC.

#include "core/exec_hooks.hpp"
#include "core/hierarchy.hpp"
#include "core/probe.hpp"
#include "core/report.hpp"
#include "core/types.hpp"
#include "minimpi/minimpi.hpp"

namespace hdls::core {

/// Executes the calling rank's share of the hierarchical loop [0, n)
/// through the scheduling chain `rh` describes (any depth; the classic
/// two-level run is the {nodes, cores} instance). Collective over
/// ctx.world(); every rank must call it with identical arguments. Returns
/// this rank's statistics (finish time is measured from the common
/// post-setup barrier). Every scheduling event of the rank goes to
/// `probe`: a default-constructed one records no trace and beats no
/// watchdog; one built over a trace session and the run's watchdog records
/// the rank's level-tagged chunk-lifecycle events and beats its slot.
/// `gate` (may be null) is the multi-tenant chunk gate, consulted between
/// acquisition and execution; a false begin_chunk cancels this rank's
/// loop.
[[nodiscard]] WorkerStats run_mpi_mpi_rank(minimpi::Context& ctx, std::int64_t n,
                                           const HierConfig& cfg, const ResolvedHierarchy& rh,
                                           const ChunkBody& body, Probe probe = {},
                                           ChunkGate* gate = nullptr);

}  // namespace hdls::core
