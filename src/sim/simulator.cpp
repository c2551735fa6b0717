#include "sim/simulator.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <string>
#include <utility>

#include "metrics/metrics.hpp"
#include "sim/engines.hpp"
#include "sim/inter_source.hpp"

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
        case ExecModel::MpiOpenMpNowait:
            return "MPI+OpenMP-nowait";
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
    if (lower == "mpi+openmp-nowait" || lower == "nowait") {
        return ExecModel::MpiOpenMpNowait;
    }
    return std::nullopt;
}

SimReport simulate(ExecModel model, const ClusterSpec& cluster, const SimConfig& config,
                   const WorkloadTrace& trace) {
    cluster.validate();
    if (config.min_chunk < 1) {
        throw std::invalid_argument("simulate: min_chunk must be >= 1");
    }
    // Per-level plan: tree/levels consistency, root capability and interior
    // relay forms (throws its own one-line errors).
    const detail::SimPlan plan = detail::resolve_sim_plan(cluster, config);
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
    if (config.failure.enabled()) {
        if (config.failure.node >= cluster.nodes) {
            throw std::invalid_argument("simulate: failure.node is outside the cluster");
        }
        if (cluster.nodes < 2) {
            throw std::invalid_argument(
                "simulate: failure injection needs at least one surviving node");
        }
        if (!(config.failure.at_fraction >= 0.0 && config.failure.at_fraction <= 1.0)) {
            throw std::invalid_argument(
                "simulate: failure.at_fraction must be in [0, 1]");
        }
        if (config.failure.detect_delay_s < 0.0) {
            throw std::invalid_argument("simulate: failure.detect_delay_s must be >= 0");
        }
    }
    SimReport report;
    switch (model) {
        case ExecModel::MpiMpi:
            report = detail::simulate_shared_queue(cluster, config, trace,
                                                   /*polling_lock=*/true,
                                                   /*any_rank_refills=*/true);
            break;
        case ExecModel::MpiOpenMpNowait:
            report = detail::simulate_shared_queue(cluster, config, trace,
                                                   /*polling_lock=*/false,
                                                   /*any_rank_refills=*/false);
            break;
        case ExecModel::MpiOpenMp:
            report = detail::simulate_hybrid_barrier(cluster, config, trace);
            break;
        default:
            throw std::invalid_argument("simulate: unknown execution model");
    }
    report.metrics = simulated_metrics(report);
    return report;
}

}  // namespace hdls::sim
