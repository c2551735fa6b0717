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
///  * MpiOpenMpNowait — the paper's Section-6 future work: worksharing
///    without the implicit barrier, modelled as a node-local chunk pool
///    with cheap atomic dequeues; only the master thread may refill
///    (MPI_THREAD_FUNNELED), unlike MPI+MPI's any-rank refill.

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
    MpiOpenMpNowait,
};

[[nodiscard]] std::string_view exec_model_name(ExecModel m) noexcept;
[[nodiscard]] std::optional<ExecModel> exec_model_from_string(std::string_view name) noexcept;

/// Fail-stop fault injection for the simulated cluster — the virtual-time
/// mirror of the real executor's HDLS_CHAOS seam. Node `node` dies at the
/// first event after `at_fraction` of the iteration space has been
/// assigned; its workers leave the loop at their next chunk boundary (the
/// sub-chunk they are computing completes, matching the real seam's
/// boundary placement). Under the shared-queue engines the unassigned
/// remainders of the dead node's local queue are re-queued on the
/// surviving nodes after `detect_delay_s` of virtual detection latency
/// (the heartbeat-timeout analogue) and counted in
/// SimReport::reclaimed_iterations. The hybrid baseline has no node-local
/// queue content to reclaim: the dead node simply stops fetching and the
/// remaining global work drains through the survivors.
struct SimFailure {
    int node = -1;  ///< node to kill; -1 disables the injection
    double at_fraction = 0.5;   ///< progress trigger, fraction of N assigned
    double detect_delay_s = 0.0;  ///< virtual failure-detection latency
    [[nodiscard]] bool enabled() const noexcept { return node >= 0; }
};

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
    /// one per tree level (mirrors HierConfig::levels). Empty derives
    /// {inter + inter_backend, [inter + inter_backend ...,] intra}; when
    /// set, the size must equal the tree depth and `inter`/`intra` are
    /// ignored. An unset backend inherits `inter_backend` (interior
    /// levels).
    std::vector<dls::LevelScheme> levels;
    /// Asynchronous chunk prefetching (mirrors HierConfig::prefetch): an
    /// upper-level acquisition that follows a computed chunk is priced as
    /// overlapped — CostModel::prefetch_issue_us plus only the part of the
    /// acquire latency that exceeds the chunk's compute time — instead of
    /// the full synchronous latency. Chunk sequences are unchanged; only
    /// the pricing (and the recorded Prefetch hit/miss events) differ.
    bool prefetch = false;
    /// Record virtual-time chunk-lifecycle events into SimReport::trace
    /// (same schema as the real executors' traces, so every exporter and
    /// analysis in src/trace/ applies).
    bool trace = false;
    /// Per-worker cap on recorded trace events (exact). A worker's log
    /// grows on demand up to it; overflow drops events and counts the
    /// drops.
    std::size_t trace_capacity = 1 << 16;
    /// Fail-stop fault injection (disabled by default); prices the cost of
    /// losing a node mid-loop under each execution model.
    SimFailure failure;
};

/// Simulates one loop execution; throws std::invalid_argument for
/// combinations without a step-indexed form (see dls::supports_step_indexed).
[[nodiscard]] SimReport simulate(ExecModel model, const ClusterSpec& cluster,
                                 const SimConfig& config, const WorkloadTrace& trace);

}  // namespace hdls::sim
