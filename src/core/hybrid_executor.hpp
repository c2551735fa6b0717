#pragma once
/// \file hybrid_executor.hpp
/// The baseline the paper compares against: hierarchical DLS implemented
/// with the hybrid MPI+OpenMP model.
///
/// One MPI rank per compute node plays the node master. The rank's OpenMP-
/// style thread team executes each level-1 chunk under a worksharing
/// schedule; only thread 0 performs MPI calls (the funneled model the
/// paper describes), and every chunk ends with the implicit barrier of the
/// worksharing construct — the idle time illustrated by the paper's
/// Figure 2.

#include <vector>

#include "core/exec_hooks.hpp"
#include "core/hierarchy.hpp"
#include "core/probe.hpp"
#include "core/report.hpp"
#include "core/types.hpp"
#include "minimpi/minimpi.hpp"

namespace hdls::core {

/// Thrown when a scheduling combination is not expressible in the chosen
/// model (e.g. TSS at the intra level of MPI+OpenMP with extensions
/// disabled — the paper's Intel-stack limitation).
class UnsupportedCombination : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Executes the calling node-master rank's share of the hierarchical loop
/// [0, n) with a team of one thread per entry of `probes`. Collective over
/// ctx.world() (which must contain one rank per leaf group, i.e. topology
/// ranks_per_node == 1). The masters pull chunks through the scheduling
/// chain of `rh` truncated above its leaf (for the classic depth-2 tree
/// that is just the root backend; deeper trees add relay levels between
/// the masters), and the thread team workshares each chunk under the leaf
/// technique. Returns one WorkerStats per thread of this node. Thread t
/// reports every scheduling event to probes[t] (the master's chain
/// included, through probes[0]). `gate`, when set, is consulted by the
/// master around each team chunk (the whole team counts as one rank — the
/// funneled model admits no finer grain).
[[nodiscard]] std::vector<WorkerStats> run_hybrid_rank(minimpi::Context& ctx, std::int64_t n,
                                                       const HierConfig& cfg,
                                                       const ResolvedHierarchy& rh,
                                                       const ChunkBody& body,
                                                       const std::vector<Probe>& probes,
                                                       ChunkGate* gate = nullptr);

}  // namespace hdls::core
