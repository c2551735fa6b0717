#pragma once
/// \file types.hpp
/// Public configuration types of the hierarchical DLS library.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "dls/sharding.hpp"
#include "dls/technique.hpp"
#include "minimpi/host_topology.hpp"
#include "minimpi/topology.hpp"
#include "minimpi/transport.hpp"
#include "simd/dispatch.hpp"

namespace hdls::core {

/// Per-level scheduling choice of a topology tree (see HierConfig::levels).
using LevelConfig = dls::LevelScheme;

/// Which hierarchical implementation executes the loop.
enum class Approach {
    MpiMpi,     ///< the paper's proposal: MPI ranks + shared-memory windows
    MpiOpenMp,  ///< the baseline: one rank per node + OpenMP-style threads
};

[[nodiscard]] constexpr std::string_view approach_name(Approach a) noexcept {
    switch (a) {
        case Approach::MpiMpi:
            return "MPI+MPI";
        case Approach::MpiOpenMp:
            return "MPI+OpenMP";
    }
    return "?";
}

/// Simulated cluster shape: `nodes` compute nodes with `workers_per_node`
/// processing elements each (MPI ranks for MPI+MPI, threads for
/// MPI+OpenMP). The paper's evaluation uses 2..16 nodes x 16.
struct ClusterShape {
    int nodes = 2;
    int workers_per_node = 16;

    [[nodiscard]] int total_workers() const noexcept { return nodes * workers_per_node; }
};

/// Fault-injection spec (HDLS_CHAOS="kill:<rank>@<pct>%"): rank
/// `kill_rank` fail-stops — abandons its leases, stops heartbeating and
/// leaves the scheduling loop — once loop progress passes `at_fraction`
/// of the iteration space. The in-process approximation of a machine
/// death: the rank still joins the final collective teardown (a truly
/// absent process is item 1's multi-process launch), but contributes
/// nothing to the loop from the kill point on. MPI+MPI only; see
/// docs/fault-tolerance.md.
struct ChaosSpec {
    int kill_rank = -1;        ///< world rank to kill (-1 = no injection)
    double at_fraction = 0.5;  ///< loop-progress trigger in [0, 1]

    [[nodiscard]] bool enabled() const noexcept { return kill_rank >= 0; }
};

/// The scheduling combination "X + Y" of the paper: X at the inter-node
/// level (over nodes), Y at the intra-node level (over a node's workers).
struct HierConfig {
    dls::Technique inter = dls::Technique::GSS;
    dls::Technique intra = dls::Technique::GSS;
    /// Which level-1 implementation serves `inter`: the centralized rank-0
    /// window, or per-node shards with CAS work stealing (removes the
    /// rank-0 hotspot; techniques without a sharded form — FAC, AWF-* —
    /// fall back to centralized with a warning). Env: HDLS_INTER_BACKEND.
    dls::InterBackend inter_backend = dls::InterBackend::Centralized;
    /// Smallest chunk either level may produce.
    std::int64_t min_chunk = 1;
    /// Asynchronous chunk prefetching: while a worker executes its current
    /// chunk, the next acquisition is already in flight (a double-buffered
    /// slot on the worker's top WorkSource, filled through the nonblocking
    /// window ops). Exact tiling is preserved — a prefetched run hands out
    /// the same chunk multiset as a synchronous one — and the adaptive
    /// techniques keep their feedback-flush ordering (acquisitions that
    /// would cross a refill whose flush must see the in-flight chunk's
    /// feedback are not prefetched). Env: HDLS_PREFETCH.
    bool prefetch = false;
    /// Record the chunk-lifecycle event trace of the run (see src/trace/).
    /// When false (the default) the executors carry a disabled recorder and
    /// the run pays nothing; when true ExecutionReport::trace holds the
    /// merged events.
    bool trace = false;
    /// Per-worker cap on recorded trace events (exact). A worker's log
    /// grows on demand up to it; overflow drops events and counts the
    /// drops.
    std::size_t trace_capacity = 1 << 14;
    /// Static per-node speeds for WF at the inter-node level (empty = all
    /// equal). When non-empty the size must equal the node count; only
    /// ratios matter. Ignored by every other technique.
    std::vector<double> node_weights;
    /// FAC probabilistic inputs: stddev and mean of the per-iteration
    /// execution time (seconds). The defaults degenerate FAC to a single
    /// bootstrap batch, matching the theory for variance-free loops.
    double fac_sigma = 0.0;
    double fac_mu = 1.0;
    /// Machine tree the scheduling hierarchy follows, outermost level
    /// first (e.g. racks=2, nodes=4, cores=8). Empty means the classic
    /// two-level {nodes, cores} tree derived from the ClusterShape. When
    /// set, the fan-outs must multiply to the shape's total worker count
    /// and the innermost fan-out must equal shape.workers_per_node.
    /// Env: HDLS_TOPOLOGY ("name=fanout,name=fanout,...").
    std::vector<minimpi::TopologyLevel> topology;
    /// Per-level technique/backend choices, one per topology level: level
    /// 0 schedules the root (whole loop) among the outermost groups, the
    /// last level slices within the innermost (shared-memory) group.
    /// Empty derives them from `inter`, `intra` and `inter_backend`; the
    /// rules are dls::resolve_level_plan's.
    std::vector<LevelConfig> levels;
    /// Communication substrate of the MPI+MPI runtime: in-process thread
    /// mailboxes (Threads) or one POSIX shared-memory segment (Shm). Unset
    /// defers to HDLS_TRANSPORT (default: threads). The chunk multiset a
    /// HierConfig produces is transport-invariant. Ignored by MPI+OpenMP.
    std::optional<minimpi::TransportKind> transport;
    /// SIMD backend policy of the batch kernels the loop body may dispatch
    /// through (simd::run_mandelbrot_batch & co): Auto picks the widest
    /// usable backend, ForceScalar pins the scalar reference kernels,
    /// Native demands a vector backend (set_mode throws otherwise). Every
    /// backend is bit-identical, so this knob changes speed, never results.
    /// Unset defers to HDLS_SIMD (default: auto).
    std::optional<simd::SimdMode> simd;
    /// Lease-based fault tolerance (MPI+MPI): every chunk handed to a
    /// worker is leased on a shared lease board (owner + deadline = k x
    /// the worker's chunk-time EMA); a rank whose heartbeat word goes
    /// stale is declared dead and its unfinished leases are reclaimed and
    /// re-executed by survivors, with a completion fence guaranteeing
    /// exactly-once commitment. Env: HDLS_LEASE. Off by default — the
    /// lease write/CAS per chunk is only worth paying when ranks can die.
    bool lease = false;
    /// Lease-deadline multiplier: deadline = now + max(k x chunk-time EMA,
    /// a 100 ms floor). Env: HDLS_LEASE_K.
    double lease_k = 8.0;
    /// Failure-detector timeout: a rank whose heartbeat word has not moved
    /// for this long is declared dead. The MPI+MPI loop polls the detector
    /// at most once per timeout / 16, so a declaration can come that much
    /// later. Env: HDLS_HEARTBEAT_TIMEOUT_MS.
    std::chrono::milliseconds heartbeat_timeout{1000};
    /// Fault injection for chaos testing (HDLS_CHAOS); disabled unless
    /// kill_rank >= 0. Requires lease mode to keep the run exactly-once.
    ChaosSpec chaos;
    /// Thread/rank placement over the host's sockets (minimpi::PinPolicy):
    /// Compact fills a socket before spilling, Scatter round-robins across
    /// sockets, None leaves placement to the OS. Under MPI+OpenMP the leaf
    /// ThreadTeams pin their members; under MPI+MPI (threads transport) the
    /// rank threads are pinned. Pinning never changes scheduling: a WF run
    /// with empty node_weights keeps WF's equal weights, pinned or not
    /// (callers wanting measured speeds pass node_weights). Unset defers
    /// to HDLS_PIN (none).
    std::optional<minimpi::PinPolicy> pin;
};

/// Loop body executed chunk-wise. MUST be thread-safe across disjoint
/// ranges: chunks run concurrently on all workers of the cluster.
using ChunkBody = std::function<void(std::int64_t begin, std::int64_t end)>;

}  // namespace hdls::core
