#include "core/hierarchy.hpp"

#include <stdexcept>
#include <utility>

#include "core/sharded_relay.hpp"

namespace hdls::core {

ClusterShape shape_from_topology(const std::vector<minimpi::TopologyLevel>& tree) {
    if (tree.size() < 2) {
        throw std::invalid_argument(
            "topology: at least two levels are required (an inter level and the leaf)");
    }
    ClusterShape shape;
    shape.workers_per_node = tree.back().fan_out;
    shape.nodes = 1;
    for (std::size_t d = 0; d + 1 < tree.size(); ++d) {
        shape.nodes *= tree[d].fan_out;
    }
    return shape;
}

ResolvedHierarchy resolve_hierarchy(const ClusterShape& shape, const HierConfig& cfg) {
    std::vector<minimpi::TopologyLevel> tree =
        cfg.topology.empty() ? dls::classic_tree(shape.nodes, shape.workers_per_node)
                             : cfg.topology;
    dls::validate_tree(tree, shape.workers_per_node, shape.total_workers());
    return dls::resolve_level_plan(std::move(tree), cfg.levels, cfg.inter, cfg.intra,
                                   cfg.inter_backend);
}

Hierarchy build_hierarchy(const minimpi::Comm& world, std::int64_t total_iterations,
                          const ResolvedHierarchy& rh, const HierConfig& cfg,
                          const Probe& probe, bool include_leaf) {
    // Coordinate math over the levels the ranks of `world` actually span:
    // the full tree for MPI+MPI, the tree minus its thread-team leaf for
    // the MPI+OpenMP masters.
    std::vector<minimpi::TopologyLevel> span = rh.tree;
    if (!include_leaf) {
        span.pop_back();
    }
    const minimpi::Topology coords = minimpi::Topology::tree(span);
    if (coords.tree_ranks() != world.size()) {
        throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                             "build_hierarchy: topology does not match the world size");
    }
    const int rank = world.rank();
    const int last = static_cast<int>(span.size()) - 1;

    Hierarchy h;
    {
        // The root backend schedules [0, N) among the level-0 groups; the
        // factory keys off HierConfig, so hand it the resolved level plan.
        HierConfig root_cfg = cfg;
        root_cfg.inter = rh.levels.front().technique;
        root_cfg.inter_backend =
            rh.levels.front().backend.value_or(dls::InterBackend::Centralized);
        h.root_ = make_inter_queue(world, total_iterations, root_cfg, rh.tree.front().fan_out,
                                   coords.coord_of(rank, 0));
    }

    WorkSource* parent = h.root_.get();
    for (int d = 1; d <= last; ++d) {
        const LevelConfig& lc = rh.levels[static_cast<std::size_t>(d)];
        const int fan_out = rh.tree[static_cast<std::size_t>(d)].fan_out;
        minimpi::Comm gcomm = world.split(coords.group_of(rank, d), rank);
        std::unique_ptr<LevelQueue> queue;
        if (lc.backend == dls::InterBackend::Sharded) {
            queue = std::make_unique<ShardedRelayQueue>(gcomm, lc.technique, cfg.min_chunk,
                                                        fan_out, coords.coord_of(rank, d));
        } else {
            queue = std::make_unique<NodeWorkQueue>(gcomm, lc.technique, cfg.min_chunk,
                                                    fan_out);
        }
        auto composed = std::make_unique<ComposedWorkSource>(*queue, *parent, probe.level(d));
        parent = composed.get();
        h.queues_.push_back(std::move(queue));
        h.composed_.push_back(std::move(composed));
    }
    // Asynchronous prefetching lives on the chain's top: that is the
    // handle whose acquisitions sit between the caller's chunk executions
    // (deeper levels are only reached through it). Root-only chains (the
    // depth-2 MPI+OpenMP master) have no slot to buffer in — the funneled
    // master cannot overlap its own worksharing — so prefetch is a no-op
    // there.
    if (cfg.prefetch && !h.composed_.empty()) {
        h.composed_.back()->set_prefetch(true);
    }
    return h;
}

}  // namespace hdls::core
