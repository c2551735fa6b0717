#include "sim/simulator.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <string>
#include <utility>

#include "metrics/metrics.hpp"
#include "sim/engines.hpp"

namespace hdls::sim {

namespace {

/// A simulation's own metrics, under the executors' family names so a
/// SimReport exports through the same Prometheus/JSON pipeline. Built
/// locally: simulated work never lands in the process-wide registry,
/// whose hdls_exec_* families count executed work only.
metrics::Snapshot simulated_metrics(const SimReport& report) {
    const auto counter = [](std::string name, std::string help, metrics::Labels labels,
                            std::int64_t value) {
        metrics::SnapshotEntry e;
        e.name = std::move(name);
        e.help = std::move(help);
        e.type = metrics::MetricType::Counter;
        e.labels = std::move(labels);
        e.value = static_cast<std::uint64_t>(value);
        return e;
    };
    // Level 0 = the inter-node queue, the leaf = sub-chunk execution.
    const metrics::Labels root{{"level", "0"}};
    metrics::Snapshot snap;
    snap.entries = {
        counter("hdls_exec_chunks_total", "Chunks executed by workers", {},
                report.sub_chunks()),
        counter("hdls_exec_iterations_total", "Loop iterations executed by workers", {},
                report.executed_iterations()),
        counter("hdls_sched_acquires_total",
                "Chunks acquired from the parent work source (own share)", root,
                report.global_chunks()),
        counter("hdls_sched_refills_total", "Refill transactions performed by a level", root,
                report.global_chunks()),
    };
    return snap;
}

}  // namespace

std::string_view exec_model_name(ExecModel m) noexcept {
    switch (m) {
        case ExecModel::MpiMpi:
            return "MPI+MPI";
        case ExecModel::MpiOpenMp:
            return "MPI+OpenMP";
    }
    return "?";
}

std::optional<ExecModel> exec_model_from_string(std::string_view name) noexcept {
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (lower == "mpi+mpi" || lower == "mpimpi") {
        return ExecModel::MpiMpi;
    }
    if (lower == "mpi+openmp" || lower == "mpiopenmp") {
        return ExecModel::MpiOpenMp;
    }
    return std::nullopt;
}

SimReport simulate(ExecModel model, const ClusterSpec& cluster, const SimConfig& config,
                   const WorkloadTrace& trace) {
    cluster.validate();
    if (config.min_chunk < 1) {
        throw std::invalid_argument("simulate: min_chunk must be >= 1");
    }
    // Per-level plan, resolved once per run: level count, root capability,
    // sharded fallback and interior relay forms (cluster.validate() has
    // checked the tree).
    dls::LevelPlan plan;
    try {
        plan = dls::resolve_level_plan(cluster.effective_tree(), config.levels, config.inter,
                                       config.intra, config.inter_backend);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string("simulate: ") + e.what());
    }
    if (!dls::supports_step_indexed(plan.levels.back().technique)) {
        throw std::invalid_argument(
            std::string("simulate: intra-node technique ") +
            std::string(dls::technique_name(plan.levels.back().technique)) +
            " lacks a step-indexed form and cannot run under the distributed protocol");
    }
    if (!config.inter_weights.empty() &&
        config.inter_weights.size() !=
            static_cast<std::size_t>(plan.tree.front().fan_out)) {
        throw std::invalid_argument(
            "simulate: inter_weights size must equal the number of level-0 entities");
    }
    for (const double w : config.inter_weights) {
        if (w < 0.0) {
            throw std::invalid_argument("simulate: inter_weights must be >= 0");
        }
    }
    if (config.fac_sigma < 0.0) {
        throw std::invalid_argument("simulate: fac_sigma must be >= 0");
    }
    if (config.fac_mu <= 0.0) {
        throw std::invalid_argument("simulate: fac_mu must be > 0");
    }
    detail::EngineRun run(model, cluster, config, plan, trace);
    if (trace.iterations() > 0) {
        switch (model) {
            case ExecModel::MpiMpi:
                detail::simulate_shared_queue(run, cluster, config, plan, trace);
                break;
            case ExecModel::MpiOpenMp:
                detail::simulate_hybrid_barrier(run, cluster, config, plan, trace);
                break;
            default:
                throw std::invalid_argument("simulate: unknown execution model");
        }
    }
    SimReport report = run.finish();
    report.metrics = simulated_metrics(report);
    return report;
}

}  // namespace hdls::sim
