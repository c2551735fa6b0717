#include "core/runner.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/env_config.hpp"
#include "core/hierarchy.hpp"
#include "core/hybrid_executor.hpp"
#include "core/inter_queue.hpp"
#include "core/mpi_mpi_executor.hpp"
#include "metrics/metrics.hpp"
#include "metrics/sampler.hpp"
#include "metrics/watchdog.hpp"
#include "minimpi/minimpi.hpp"
#include "ompsim/schedule.hpp"
#include "trace/recorder.hpp"
#include "util/log.hpp"

namespace hdls::core {

namespace {

/// The checks that need the resolved per-level plan; shared between
/// validate_combination and run_hierarchical so a run resolves (and logs
/// any per-level fallback) exactly once.
void validate_resolved(Approach approach, const HierConfig& cfg, const ResolvedHierarchy& rh) {
    if (!cfg.node_weights.empty() &&
        cfg.node_weights.size() != static_cast<std::size_t>(rh.tree.front().fan_out)) {
        throw std::invalid_argument(
            "run_hierarchical: node_weights size must equal the number of level-0 entities (" +
            std::to_string(rh.tree.front().fan_out) + ")");
    }
    for (const double w : cfg.node_weights) {
        if (w < 0.0) {
            throw std::invalid_argument("run_hierarchical: node_weights must be >= 0");
        }
    }
    if (cfg.fac_sigma < 0.0) {
        throw std::invalid_argument("run_hierarchical: fac_sigma must be >= 0");
    }
    if (cfg.fac_mu <= 0.0) {
        throw std::invalid_argument("run_hierarchical: fac_mu must be > 0");
    }
    const dls::Technique leaf = rh.levels.back().technique;
    switch (approach) {
        case Approach::MpiMpi:
            if (!dls::supports_step_indexed(leaf)) {
                throw std::invalid_argument(
                    std::string("run_hierarchical: intra-node technique ") +
                    std::string(dls::technique_name(leaf)) +
                    " lacks a step-indexed form (required by the MPI+MPI local queue)");
            }
            break;
        case Approach::MpiOpenMp:
            if (!ompsim::extended_equivalent(leaf)) {
                throw UnsupportedCombination(
                    std::string("run_hierarchical: MPI+OpenMP cannot schedule ") +
                    std::string(dls::technique_name(leaf)) + " at the intra-node level");
            }
            break;
    }
}

/// Shape/scalar checks plus the topology resolution, returning the plan.
[[nodiscard]] ResolvedHierarchy validate_and_resolve(const ClusterShape& shape,
                                                     Approach approach,
                                                     const HierConfig& cfg) {
    if (shape.nodes < 1 || shape.workers_per_node < 1) {
        throw std::invalid_argument("run_hierarchical: cluster shape must be positive");
    }
    if (cfg.min_chunk < 1) {
        throw std::invalid_argument("run_hierarchical: min_chunk must be >= 1");
    }
    // Topology tree + per-level plan: fan-outs, products, level count and
    // interior technique capabilities (throws its own one-line errors).
    ResolvedHierarchy rh;
    try {
        rh = resolve_hierarchy(shape, cfg);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string("run_hierarchical: ") + e.what());
    }
    validate_resolved(approach, cfg, rh);
    return rh;
}

}  // namespace

void validate_combination(const ClusterShape& shape, Approach approach, const HierConfig& cfg) {
    (void)validate_and_resolve(shape, approach, cfg);
}

ExecutionReport run_hierarchical(const ClusterShape& shape, Approach approach,
                                 const HierConfig& cfg, std::int64_t n, const ChunkBody& body) {
    return run_hierarchical(shape, approach, cfg, n, body, RunOptions{});
}

ExecutionReport run_hierarchical(const ClusterShape& shape, Approach approach,
                                 const HierConfig& cfg, std::int64_t n, const ChunkBody& body,
                                 const RunOptions& opts) {
    const ResolvedHierarchy rh = validate_and_resolve(shape, approach, cfg);
    if (n < 0) {
        throw std::invalid_argument("run_hierarchical: n must be >= 0");
    }
    if (!body) {
        throw std::invalid_argument("run_hierarchical: body must not be empty");
    }

    // The minimpi substrate: an explicit HierConfig choice wins, otherwise
    // HDLS_TRANSPORT (strict parse — resolved before any thread launches).
    const minimpi::TransportKind transport =
        cfg.transport ? *cfg.transport : minimpi::transport_from_env();

    // SIMD backend policy and thread placement, same precedence. set_mode
    // throws here (before any thread launches) when Native is demanded on
    // a scalar-only host.
    const simd::SimdMode simd_mode = cfg.simd ? *cfg.simd : simd_mode_from_env();
    simd::set_mode(simd_mode);
    const minimpi::PinPolicy pin = cfg.pin ? *cfg.pin : pin_from_env();

    // Executors see the resolved knobs.
    HierConfig effective = cfg;
    effective.simd = simd_mode;
    effective.pin = pin;
    // Lease-based fault tolerance + fault injection (strict parses, all
    // resolved before any rank launches): an explicit HierConfig choice
    // wins, otherwise the HDLS_LEASE / HDLS_LEASE_K /
    // HDLS_HEARTBEAT_TIMEOUT_MS / HDLS_CHAOS environment.
    effective.lease = cfg.lease || lease_from_env();
    effective.lease_k = lease_k_from_env(cfg.lease_k);
    effective.heartbeat_timeout = heartbeat_timeout_from_env(cfg.heartbeat_timeout);
    effective.chaos = cfg.chaos.enabled() ? cfg.chaos : chaos_from_env();
    if (effective.lease && approach != Approach::MpiMpi) {
        util::log_warn(
            "run_hierarchical: lease-based fault tolerance is MPI+MPI only; "
            "ignoring HDLS_LEASE under MPI+OpenMP");
        effective.lease = false;
    }
    if (effective.chaos.enabled()) {
        if (approach != Approach::MpiMpi) {
            throw std::invalid_argument(
                "run_hierarchical: HDLS_CHAOS fault injection requires the MPI+MPI "
                "approach (the MPI+OpenMP baseline has no failure handling to drill)");
        }
        if (!effective.lease) {
            throw std::invalid_argument(
                "run_hierarchical: HDLS_CHAOS requires HDLS_LEASE=1 — killing a rank "
                "without lease reclamation would silently lose iterations");
        }
        if (effective.chaos.kill_rank >= shape.total_workers()) {
            throw std::invalid_argument(
                "run_hierarchical: HDLS_CHAOS kill rank " +
                std::to_string(effective.chaos.kill_rank) + " is outside the world (" +
                std::to_string(shape.total_workers()) + " ranks)");
        }
    }
    // Rank placement of MPI+MPI runs: one CPU per rank from the same plan
    // a leaf ThreadTeam would use (ranks are threads or forked processes
    // depending on the transport; pinning works for both).
    std::vector<int> rank_pin_plan;
    if (pin != minimpi::PinPolicy::None && approach == Approach::MpiMpi) {
        rank_pin_plan =
            minimpi::HostTopology::detect().plan(pin, 0, shape.total_workers());
    }

    ExecutionReport report;
    report.approach = approach;
    report.shape = shape;
    report.inter = rh.levels.front().technique;
    report.intra = rh.levels.back().technique;
    report.inter_backend =
        rh.levels.front().backend.value_or(dls::InterBackend::Centralized);
    report.transport = transport;
    // Report what actually ran: the depth-2 MPI+OpenMP chain is root-only
    // (no composed source to buffer in), so the knob is a no-op there.
    report.prefetch =
        cfg.prefetch && (approach == Approach::MpiMpi || rh.depth() > 2);
    report.simd_mode = simd_mode;
    report.simd_backend = simd::active_backend();
    report.pin = pin;
    report.topology = rh.tree;
    report.levels = rh.levels;
    report.total_iterations = n;
    report.workers.assign(static_cast<std::size_t>(shape.total_workers()), WorkerStats{});

    std::mutex merge_mutex;

    // Opt-in event tracing: one event log per worker, merged after the
    // run. A null session means every executor carries a disabled recorder.
    std::unique_ptr<trace::TraceSession> session;
    if (cfg.trace) {
        session = std::make_unique<trace::TraceSession>(shape.total_workers(),
                                                        cfg.trace_capacity);
    }

    // Always-on metrics: the run's delta over the process-wide registry is
    // attached to the report below. HDLS_METRICS=1 (or the RunOptions
    // override) additionally runs the background sampler (Prometheus
    // exposition file, HDLS_METRICS_FILE) and the stall watchdog for the
    // duration of the run, both on the HDLS_METRICS_PERIOD_MS cadence.
    // Concurrent runs are safe: each run owns its watchdog instance and
    // every worker's Probe beats that one (a run without metrics beats
    // none). The snapshot delta below remains process-wide — overlapping
    // runs see each other's counts.
    const metrics::Snapshot metrics_before = metrics::registry().snapshot();
    std::unique_ptr<metrics::MetricsSampler> sampler;
    std::unique_ptr<metrics::StallWatchdog> watchdog;
    if (opts.metrics.value_or(metrics_from_env())) {
        const std::chrono::milliseconds period = metrics_period_from_env();
        sampler = std::make_unique<metrics::MetricsSampler>(metrics::registry(), period);
        sampler->set_exposition_file(opts.metrics_file ? *opts.metrics_file
                                                       : metrics_file_from_env());
        sampler->start();
        watchdog = std::make_unique<metrics::StallWatchdog>(shape.total_workers());
        watchdog->start(period);
    }
    // Each worker's instrumentation sink: its event log (when tracing),
    // this run's watchdog slot and the runtime metrics.
    const auto probe_for = [&](int worker, int node) {
        return Probe(session ? session->tracer(worker, node) : trace::WorkerTracer{},
                     watchdog.get(), worker);
    };

    switch (approach) {
        case Approach::MpiMpi: {
            const minimpi::Topology topo = rh.topology();
            minimpi::Runtime::run(shape.total_workers(), topo, transport,
                                  [&](minimpi::Context& ctx) {
                if (!rank_pin_plan.empty()) {
                    minimpi::pin_current_thread(
                        rank_pin_plan[static_cast<std::size_t>(ctx.rank())]);
                }
                const WorkerStats stats = run_mpi_mpi_rank(
                    ctx, n, effective, rh, body, probe_for(ctx.rank(), ctx.node()), opts.gate);
                const std::lock_guard<std::mutex> lock(merge_mutex);
                report.workers[static_cast<std::size_t>(ctx.rank())] = stats;
            });
            break;
        }
        case Approach::MpiOpenMp: {
            minimpi::Topology topo;  // one master rank per leaf group
            topo.ranks_per_node = 1;
            // Validated above: the leaf's worksharing schedule exists.
            const ompsim::ForOptions schedule = *ompsim::extended_equivalent(report.intra);
            minimpi::Runtime::run(shape.nodes, topo, transport, [&](minimpi::Context& ctx) {
                std::vector<Probe> probes;
                for (int t = 0; t < shape.workers_per_node; ++t) {
                    probes.push_back(
                        probe_for(ctx.rank() * shape.workers_per_node + t, ctx.node()));
                }
                const auto stats =
                    run_hybrid_rank(ctx, n, effective, rh, schedule, body, probes, opts.gate);
                const std::lock_guard<std::mutex> lock(merge_mutex);
                for (int t = 0; t < shape.workers_per_node; ++t) {
                    report.workers[static_cast<std::size_t>(
                        ctx.rank() * shape.workers_per_node + t)] =
                        stats[static_cast<std::size_t>(t)];
                }
            });
            break;
        }
    }

    if (watchdog) {
        watchdog->stop();
    }
    if (sampler) {
        sampler->stop();  // final sample + exposition-file write
    }
    report.metrics = metrics::registry().snapshot().delta_since(metrics_before);

    if (session) {
        report.trace = session->finish({.approach = std::string(approach_name(approach)),
                                        .inter = std::string(dls::technique_name(report.inter)),
                                        .intra = std::string(dls::technique_name(report.intra)),
                                        .nodes = shape.nodes,
                                        .workers_per_node = shape.workers_per_node,
                                        .total_iterations = n});
    }

    double max_finish = 0.0;
    for (const auto& w : report.workers) {
        max_finish = std::max(max_finish, w.finish_seconds);
    }
    report.parallel_seconds = max_finish;
    return report;
}

void run_serial(std::int64_t n, const ChunkBody& body) {
    if (n > 0) {
        body(0, n);
    }
}

}  // namespace hdls::core
