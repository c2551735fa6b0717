#pragma once
/// \file simulator.hpp
/// Entry point of the discrete-event cluster simulator.
///
/// The simulator executes the paper's two hierarchical execution models in
/// virtual time over a per-iteration cost trace. It is deterministic: the
/// same inputs always produce the same report, independent of host machine
/// and thread count (everything runs on the calling thread).
///
/// Execution models:
///  * MpiMpi — the paper's proposal: every worker is a rank; node-local
///    shared queue guarded by a PollingLock (MPI_Win_lock); any rank
///    refills from the global queue (distributed chunk calculation).
///  * MpiOpenMp — the baseline: one master per node fetches chunks; a
///    thread team executes each chunk under the intra schedule with an
///    implicit barrier per chunk (Figure 2).
///
/// Both models have an executor (core/), and the simulator prices only
/// what those executors run. Every acquisition is priced synchronously:
/// the executor's prefetch slot moves an acquisition earlier but hides no
/// flight time, which neither transport has.
///
/// simulate() resolves the level plan, sets up the run's report and trace
/// (sim/engine_trace.hpp) and hands them to one of two engines: the
/// worker-level shared-queue engine (MpiMpi) or the node-level team
/// engine (MpiOpenMp). Both take every acquisition above the leaf from
/// one HierarchicalSource (sim/inter_source.hpp). The simulated cluster
/// never fails: fail-stop is exercised on the real executor (lease mode
/// and its chaos drill, docs/fault-tolerance.md).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "dls/sharding.hpp"
#include "dls/technique.hpp"
#include "sim/cost_model.hpp"
#include "sim/report.hpp"
#include "sim/workload.hpp"

namespace hdls::sim {

enum class ExecModel {
    MpiMpi,
    MpiOpenMp,
};

[[nodiscard]] std::string_view exec_model_name(ExecModel m) noexcept;
[[nodiscard]] std::optional<ExecModel> exec_model_from_string(std::string_view name) noexcept;

/// Scheduling combination "inter + intra" (paper notation X+Y).
struct SimConfig {
    dls::Technique inter = dls::Technique::GSS;
    dls::Technique intra = dls::Technique::GSS;
    /// Which level-1 implementation serves `inter`: the centralized rank-0
    /// window or per-node shards with CAS work stealing (mirrors
    /// HierConfig::inter_backend; unsupported techniques fall back to
    /// centralized).
    dls::InterBackend inter_backend = dls::InterBackend::Centralized;
    std::int64_t min_chunk = 1;
    /// Static per-node weights for WF at the inter-node level (empty =
    /// equal; otherwise size must equal the cluster's node count).
    std::vector<double> inter_weights;
    /// FAC probabilistic inputs (stddev/mean of iteration time, seconds).
    double fac_sigma = 0.0;
    double fac_mu = 1.0;
    /// Per-level technique/backend choices for a deep ClusterSpec::tree,
    /// one per tree level, resolved by dls::resolve_level_plan exactly as
    /// HierConfig::levels is.
    std::vector<dls::LevelScheme> levels;
    /// Record virtual-time chunk-lifecycle events into SimReport::trace
    /// (the real executors' schema, so every exporter and analysis in
    /// src/trace/ applies; docs/observability.md names the kinds only the
    /// executors record).
    bool trace = false;
    /// Per-worker cap on recorded trace events (exact). A worker's log
    /// grows on demand up to it; overflow drops events and counts the
    /// drops.
    std::size_t trace_capacity = 1 << 16;
};

/// Simulates one loop execution; throws std::invalid_argument for
/// combinations without a step-indexed form (see dls::supports_step_indexed).
[[nodiscard]] SimReport simulate(ExecModel model, const ClusterSpec& cluster,
                                 const SimConfig& config, const WorkloadTrace& trace);

}  // namespace hdls::sim
