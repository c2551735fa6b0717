#pragma once
/// \file hierarchy.hpp
/// Building the recursive scheduling hierarchy from a topology tree.
///
/// resolve_hierarchy turns a HierConfig (+ ClusterShape) into the concrete
/// per-level plan — the machine tree and one effective LevelConfig per
/// level — validating everything up front with one-line errors. The plan
/// type and its rules are dls::LevelPlan / dls::resolve_level_plan, the
/// same the simulator resolves its runs with.
/// build_hierarchy then assembles, per rank, the WorkSource chain that
/// plan describes: the root inter-backend over the whole loop, one relay
/// queue + ComposedWorkSource per deeper level (each over the rank's
/// group communicator at that depth), the leaf being the paper's
/// node-local shared queue. The classic two-level {nodes, cores} run is
/// exactly the depth-2 instance of this construction — same queues, same
/// chunk sequences — and the MPI+OpenMP baseline uses the same chain
/// truncated above its thread-team leaf.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/inter_queue.hpp"
#include "core/types.hpp"
#include "core/work_source.hpp"
#include "minimpi/minimpi.hpp"

namespace hdls::core {

/// The validated per-level plan of one run.
using ResolvedHierarchy = dls::LevelPlan;

/// The ClusterShape a topology tree implies: workers_per_node = the
/// innermost fan-out, nodes = the product of the outer fan-outs (the
/// leaf-group count). Lets callers that take the tree as primary input
/// (HDLS_TOPOLOGY) derive the matching shape instead of hand-rolling the
/// products.
[[nodiscard]] ClusterShape shape_from_topology(
    const std::vector<minimpi::TopologyLevel>& tree);

/// Resolves cfg.topology / cfg.levels against the cluster shape (the
/// classic {nodes, cores} tree when cfg.topology is unset): the tree
/// passes dls::validate_tree, the levels dls::resolve_level_plan. Throws
/// std::invalid_argument with a one-line message otherwise. Leaf-level
/// requirements are approach-specific and stay in validate_combination.
[[nodiscard]] ResolvedHierarchy resolve_hierarchy(const ClusterShape& shape,
                                                  const HierConfig& cfg);

/// One rank's view of the assembled chain. Movable; collective teardown
/// via free() (which releases the whole chain root-last).
class Hierarchy {
public:
    /// The source executors acquire from (the deepest level built).
    [[nodiscard]] WorkSource& top() noexcept {
        return composed_.empty() ? *root_ : *composed_.back();
    }

    /// The top as a composed source, or nullptr when the chain is only the
    /// root (the depth-2 MPI+OpenMP case).
    [[nodiscard]] ComposedWorkSource* top_composed() noexcept {
        return composed_.empty() ? nullptr : composed_.back().get();
    }

    /// The root backend (level 0).
    [[nodiscard]] WorkSource& root() noexcept { return *root_; }

    /// Attaches the adaptive-feedback flush to the level-1 source, so
    /// accumulated rates are published right before every root acquisition
    /// (the only level whose decisions read them). No-op for root-only
    /// chains, whose callers flush around their own acquires.
    void set_feedback_flush(std::function<void()> flush) {
        if (!composed_.empty()) {
            composed_.front()->set_before_refill(std::move(flush));
        }
    }

    /// Closes open termination-wait spans chain-wide (the worker's
    /// Terminate event is Probe::leave's).
    void finish() {
        for (auto& c : composed_) {
            c->finish();
        }
    }

    /// Collective teardown of every level's queue and the root.
    void free() { top().free(); }

private:
    friend Hierarchy build_hierarchy(const minimpi::Comm&, std::int64_t,
                                     const ResolvedHierarchy&, const HierConfig&,
                                     const Probe&, bool);

    std::unique_ptr<WorkSource> root_;
    std::vector<std::unique_ptr<LevelQueue>> queues_;
    std::vector<std::unique_ptr<ComposedWorkSource>> composed_;
};

/// Collectively builds the rank's chain over `world`. With `include_leaf`
/// the chain spans every tree level (MPI+MPI: the caller executes leaf
/// sub-chunks directly); without it the chain stops one level short
/// (MPI+OpenMP: `world` holds one master rank per leaf group and the
/// thread team workshares the chain's chunks). Each composed source
/// reports into `probe` at its own level; the probe's trace session must
/// outlive the returned Hierarchy.
[[nodiscard]] Hierarchy build_hierarchy(const minimpi::Comm& world,
                                        std::int64_t total_iterations,
                                        const ResolvedHierarchy& rh, const HierConfig& cfg,
                                        const Probe& probe, bool include_leaf);

}  // namespace hdls::core
