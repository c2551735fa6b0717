#pragma once
/// \file sharding.hpp
/// Per-level scheduling plans and the shard math of the *sharded* backend.
///
/// A run's plan is one machine tree plus one LevelScheme per tree level.
/// resolve_level_plan is the single resolver behind both front ends —
/// core::resolve_hierarchy (the real executors) and sim::simulate (the
/// simulator) — so the derivation, backend inheritance, capability checks
/// and sharded fallback are one rule set.
///
/// The centralized level-1 queues serialize every acquisition through one
/// rank-0 RMA window. The sharded backend removes that hotspot the way
/// "A Distributed Chunk Calculation Approach for Self-scheduling of
/// Parallel Applications on Distributed-memory Systems" (Eleliemy &
/// Ciorba, 2021) does: the iteration space is pre-partitioned over the
/// nodes (by static node weight), each node self-schedules its own shard
/// through the step-indexed formulas, and an idle node steals half the
/// remainder of the most-loaded victim's shard with one CAS.
///
/// The shard functions are pure arithmetic shared by the real queue
/// (core::ShardedInterQueue) and the simulator's virtual-time source
/// (sim::detail::ShardedInterSource), so the two cannot drift:
///  * shard_partition  — largest-remainder apportionment of N by weight;
///  * shard_chunk_hint — the within-shard step-indexed chunk size;
///  * steal_amount     — the thief's half-remainder share.
/// All three are deterministic, and every carve (owner or thief) removes
/// `min(hint, R)` from a single per-shard remaining count R, so the shard
/// tiles exactly no matter how acquisitions and steals interleave.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "dls/technique.hpp"
#include "minimpi/topology.hpp"

namespace hdls::dls {

/// Which level-1 queue implementation serves the inter-node level.
enum class InterBackend {
    Centralized,  ///< one rank-0 window (GlobalWorkQueue / AdaptiveGlobalQueue)
    Sharded,      ///< one window per node + CAS work stealing (ShardedInterQueue)
};

/// Canonical lower-case name ("centralized" / "sharded").
[[nodiscard]] std::string_view inter_backend_name(InterBackend b) noexcept;

/// Scheduling choice of one level of a topology tree: the technique that
/// partitions a group's work among its children, and (for levels backed by
/// a queue window) which backend implementation serves it. An unset
/// backend inherits the run's default (HierConfig/SimConfig::inter_backend
/// for interior levels; the leaf level is always the shared local queue).
struct LevelScheme {
    Technique technique = Technique::GSS;
    std::optional<InterBackend> backend;
};

/// Parses a canonical name (case-insensitive); std::nullopt if unknown.
[[nodiscard]] std::optional<InterBackend> inter_backend_from_string(
    std::string_view name) noexcept;

/// The validated per-level plan of one run.
struct LevelPlan {
    /// Machine tree, outermost level first; depth >= 2.
    std::vector<minimpi::TopologyLevel> tree;
    /// One entry per tree level. Interior backends are engaged and final:
    /// a sharded request for a technique without a sharded form has
    /// already fallen back to Centralized. The leaf entry's backend is
    /// disengaged — the leaf is always the group's shared local queue.
    std::vector<LevelScheme> levels;

    [[nodiscard]] int depth() const noexcept { return static_cast<int>(tree.size()); }

    /// The minimpi topology of the full tree (MPI+MPI rank layout).
    [[nodiscard]] minimpi::Topology topology() const { return minimpi::Topology::tree(tree); }
};

/// The classic two-level {nodes, cores} tree.
[[nodiscard]] std::vector<minimpi::TopologyLevel> classic_tree(int nodes,
                                                               int workers_per_node);

/// Checks a machine tree for a cluster of `total_workers` workers,
/// `workers_per_node` per leaf group: at least two levels, non-empty
/// names, fan-outs >= 1, innermost fan-out == workers_per_node and
/// fan-out product == total_workers. Throws std::invalid_argument with a
/// one-line "topology: ..." message otherwise; allocates nothing when the
/// tree is valid.
void validate_tree(const std::vector<minimpi::TopologyLevel>& tree, int workers_per_node,
                   std::int64_t total_workers);

/// Resolves the level plan over `tree` (which must pass validate_tree).
/// An empty `levels` derives {inter + inter_backend, [inter +
/// inter_backend, ...,] intra} — `inter`/`intra` are sugar for it;
/// otherwise its size must equal the tree depth, and an unset interior
/// backend inherits `inter_backend`. The root needs a distributed form;
/// a sharded request without a sharded form falls back to Centralized
/// with a warning; an interior centralized relay needs a step-indexed
/// form. Throws std::invalid_argument with a one-line message otherwise.
/// Leaf-level requirements depend on the execution model and stay with
/// the callers.
[[nodiscard]] LevelPlan resolve_level_plan(std::vector<minimpi::TopologyLevel> tree,
                                           const std::vector<LevelScheme>& levels,
                                           Technique inter, Technique intra,
                                           InterBackend inter_backend);

/// True if the technique can be served by the sharded backend: every
/// step-indexed technique, plus WF (whose static weights become the shard
/// partition, with FAC2 halving inside each shard — weighted factoring by
/// construction). The adaptive family and FAC need the exact *global*
/// remaining count and stay centralized.
[[nodiscard]] bool supports_sharded(Technique t) noexcept;

/// The backend a level running `t` gets for a `requested` backend: a
/// sharded request for a technique without a sharded form falls back to
/// Centralized. The one statement of the fallback rule.
[[nodiscard]] InterBackend effective_backend(Technique t, InterBackend requested) noexcept;

/// The step-indexed formula used *within* a shard: the technique itself,
/// except WF which maps to FAC2 (its weight already shaped the shard).
/// Precondition: supports_sharded(t).
[[nodiscard]] Technique shard_formula(Technique t);

/// Largest-remainder apportionment of `total` iterations over `nodes`
/// shards proportional to `weights` (empty = equal; negative entries or a
/// size mismatch throw std::invalid_argument). The returned sizes are
/// non-negative and sum to exactly `total`; ties go to the lower node id.
[[nodiscard]] std::vector<std::int64_t> shard_partition(std::int64_t total,
                                                        std::vector<double> weights,
                                                        int nodes);

/// Chunk-size hint for scheduling step `step` within a shard of
/// `shard_size` iterations; `level_workers` is P in the formulas, so each
/// shard runs the technique's full decreasing schedule over its own range.
/// That is deliberately finer-grained than the centralized per-node
/// subsequence (FAC2's first sharded chunk is S/2P, not the centralized
/// N/2P = S/2): shard acquisitions are cheap node-local atomics, and the
/// smaller carves keep a remainder available to thieves for longer.
/// Returns 0 when the formula has run dry (e.g. STATIC past its P
/// chunks) — the caller then takes the remainder.
[[nodiscard]] std::int64_t shard_chunk_hint(Technique t, std::int64_t shard_size,
                                            int level_workers, std::int64_t min_chunk,
                                            std::int64_t step);

/// Iterations a thief removes from a shard with `remaining` unassigned
/// iterations: half of the remainder (rounded up), or all of it once the
/// remainder is at most `min_chunk` (no point leaving a crumb behind).
/// 0 when nothing remains — a CAS with this in its transform is a no-op.
[[nodiscard]] std::int64_t steal_amount(std::int64_t remaining,
                                        std::int64_t min_chunk) noexcept;

}  // namespace hdls::dls
