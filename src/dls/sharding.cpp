#include "dls/sharding.hpp"

#include <algorithm>
#include <cctype>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "dls/adaptive.hpp"
#include "dls/chunk_formulas.hpp"
#include "util/log.hpp"

namespace hdls::dls {

std::string_view inter_backend_name(InterBackend b) noexcept {
    switch (b) {
        case InterBackend::Centralized:
            return "centralized";
        case InterBackend::Sharded:
            return "sharded";
    }
    return "?";
}

std::optional<InterBackend> inter_backend_from_string(std::string_view name) noexcept {
    std::string lower;
    lower.reserve(name.size());
    for (const char ch : name) {
        lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
    }
    if (lower == "centralized" || lower == "central") {
        return InterBackend::Centralized;
    }
    if (lower == "sharded" || lower == "shard") {
        return InterBackend::Sharded;
    }
    return std::nullopt;
}

bool supports_sharded(Technique t) noexcept {
    return supports_step_indexed(t) || t == Technique::WF;
}

InterBackend effective_backend(Technique t, InterBackend requested) noexcept {
    return requested == InterBackend::Sharded && !supports_sharded(t)
               ? InterBackend::Centralized
               : requested;
}

std::vector<minimpi::TopologyLevel> classic_tree(int nodes, int workers_per_node) {
    return {{"nodes", nodes}, {"cores", workers_per_node}};
}

void validate_tree(const std::vector<minimpi::TopologyLevel>& tree, int workers_per_node,
                   std::int64_t total_workers) {
    if (tree.size() < 2) {
        throw std::invalid_argument(
            "topology: at least two levels are required (an inter level and the leaf)");
    }
    std::int64_t product = 1;
    for (const minimpi::TopologyLevel& lv : tree) {
        if (lv.name.empty()) {
            throw std::invalid_argument("topology: level names must be non-empty");
        }
        if (lv.fan_out < 1) {
            throw std::invalid_argument("topology: level '" + lv.name +
                                        "' fan-out must be >= 1 (got " +
                                        std::to_string(lv.fan_out) + ")");
        }
        product *= lv.fan_out;
    }
    if (tree.back().fan_out != workers_per_node) {
        throw std::invalid_argument(
            "topology: innermost fan-out (" + std::to_string(tree.back().fan_out) +
            ") must equal workers_per_node (" + std::to_string(workers_per_node) + ")");
    }
    if (product != total_workers) {
        throw std::invalid_argument("topology: level fan-outs multiply to " +
                                    std::to_string(product) + " but the cluster has " +
                                    std::to_string(total_workers) + " workers");
    }
}

LevelPlan resolve_level_plan(std::vector<minimpi::TopologyLevel> tree,
                             const std::vector<LevelScheme>& levels, Technique inter,
                             Technique intra, InterBackend inter_backend) {
    LevelPlan plan;
    plan.tree = std::move(tree);
    const int depth = plan.depth();
    if (levels.empty()) {
        plan.levels.assign(static_cast<std::size_t>(depth), LevelScheme{inter, inter_backend});
        plan.levels.back() = LevelScheme{intra, std::nullopt};
    } else {
        if (static_cast<int>(levels.size()) != depth) {
            throw std::invalid_argument("levels: got " + std::to_string(levels.size()) +
                                        " level configs for a depth-" +
                                        std::to_string(depth) + " topology");
        }
        plan.levels = levels;
        for (int d = 0; d < depth - 1; ++d) {
            auto& lv = plan.levels[static_cast<std::size_t>(d)];
            if (!lv.backend) {
                lv.backend = inter_backend;
            }
        }
        plan.levels.back().backend.reset();
    }

    // Capability checks + sharded fallback, so the plan (and every report
    // quoting it) states what actually runs.
    const auto level_label = [&plan](int d) {
        return "level " + std::to_string(d) + " ('" +
               plan.tree[static_cast<std::size_t>(d)].name + "')";
    };
    for (int d = 0; d < depth - 1; ++d) {
        auto& lv = plan.levels[static_cast<std::size_t>(d)];
        if (d == 0 && !supports_internode(lv.technique)) {
            throw std::invalid_argument(
                std::string("level 0 technique ") + std::string(technique_name(lv.technique)) +
                " has neither a step-indexed nor a remaining-count-based distributed form");
        }
        if (effective_backend(lv.technique, *lv.backend) != *lv.backend) {
            if (d == 0) {
                util::log_warn("sharded backend cannot serve ", technique_name(lv.technique),
                               " at level 0; falling back to the centralized queue");
            } else {
                util::log_warn("sharded backend cannot serve ", technique_name(lv.technique),
                               " at ", level_label(d), "; falling back to the centralized relay");
            }
            lv.backend = InterBackend::Centralized;
        }
        if (d > 0 && lv.backend == InterBackend::Centralized &&
            !supports_step_indexed(lv.technique)) {
            throw std::invalid_argument(
                level_label(d) + " technique " + std::string(technique_name(lv.technique)) +
                " cannot relay parent chunks (needs a step-indexed or sharded form)");
        }
    }
    return plan;
}

Technique shard_formula(Technique t) {
    if (!supports_sharded(t)) {
        throw std::invalid_argument(
            "shard_formula: technique has no sharded form (needs the global remaining count)");
    }
    return t == Technique::WF ? Technique::FAC2 : t;
}

std::vector<std::int64_t> shard_partition(std::int64_t total, std::vector<double> weights,
                                          int nodes) {
    if (nodes < 1) {
        throw std::invalid_argument("shard_partition: nodes must be >= 1");
    }
    if (total < 0) {
        throw std::invalid_argument("shard_partition: total must be >= 0");
    }
    // Mean-1 normalization (same canonicalization WF uses), so node i's
    // ideal share is total * w_i / nodes.
    const std::vector<double> w = normalize_static_weights(std::move(weights), nodes);
    std::vector<std::int64_t> sizes(static_cast<std::size_t>(nodes), 0);
    std::vector<double> fractions(static_cast<std::size_t>(nodes), 0.0);
    std::int64_t assigned = 0;
    for (int i = 0; i < nodes; ++i) {
        const double ideal = static_cast<double>(total) * w[static_cast<std::size_t>(i)] /
                             static_cast<double>(nodes);
        const auto floor_share = static_cast<std::int64_t>(ideal);
        sizes[static_cast<std::size_t>(i)] = floor_share;
        fractions[static_cast<std::size_t>(i)] = ideal - static_cast<double>(floor_share);
        assigned += floor_share;
    }
    // Largest remainder: hand the leftover iterations out one by one, by
    // descending fractional part, ties to the lower node id.
    std::vector<int> order(static_cast<std::size_t>(nodes));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return fractions[static_cast<std::size_t>(a)] > fractions[static_cast<std::size_t>(b)];
    });
    const std::int64_t leftover = total - assigned;
    for (std::int64_t k = 0; k < leftover; ++k) {
        ++sizes[static_cast<std::size_t>(order[static_cast<std::size_t>(k % nodes)])];
    }
    return sizes;
}

std::int64_t shard_chunk_hint(Technique t, std::int64_t shard_size, int level_workers,
                              std::int64_t min_chunk, std::int64_t step) {
    if (shard_size <= 0) {
        return 0;
    }
    LoopParams p;
    p.total_iterations = shard_size;
    p.workers = level_workers;
    p.min_chunk = min_chunk;
    const std::int64_t hint = chunk_size_for_step(shard_formula(t), p, step);
    return hint > 0 ? hint : 0;
}

std::int64_t steal_amount(std::int64_t remaining, std::int64_t min_chunk) noexcept {
    if (remaining <= 0) {
        return 0;
    }
    if (remaining <= min_chunk) {
        return remaining;
    }
    return remaining - remaining / 2;  // ceil(R / 2)
}

}  // namespace hdls::dls
