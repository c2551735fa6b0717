#pragma once
/// \file engine_trace.hpp
/// Internal: the per-run scaffolding both simulation engines share — the
/// report's workers, the virtual-time trace session, the event queue and
/// the one place an executed sub-chunk is charged and traced. The single
/// simulation thread is the sole producer for every per-worker event log
/// and timestamps are the simulator's virtual clock.

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "trace/recorder.hpp"

namespace hdls::sim::detail {

/// An engine event: entity `id` (a worker or a node) is ready at `time`.
/// The queue pops the earliest, ties going to the lower id.
struct ReadyEvent {
    double time;
    int id;
    friend bool operator>(const ReadyEvent& a, const ReadyEvent& b) {
        return a.time != b.time ? a.time > b.time : a.id > b.id;
    }
};
using ReadyQueue =
    std::priority_queue<ReadyEvent, std::vector<ReadyEvent>, std::greater<ReadyEvent>>;

class EngineRun {
public:
    /// One SimWorker per worker; the trace session (one tracer per worker)
    /// only when config.trace is set, otherwise every tracer is a disabled
    /// no-op.
    EngineRun(ExecModel model, const ClusterSpec& cluster, const SimConfig& config,
              const dls::LevelPlan& plan, const WorkloadTrace& workload)
        : cluster_(cluster), workload_(workload) {
        const int workers = cluster.total_workers();
        report_.nodes = cluster.nodes;
        report_.workers_per_node = cluster.workers_per_node;
        report_.topology = plan.tree;
        report_.total_iterations = workload.iterations();
        report_.workers.resize(static_cast<std::size_t>(workers));
        tracers_.resize(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w) {
            report_.workers[static_cast<std::size_t>(w)].node = w / cluster.workers_per_node;
            report_.workers[static_cast<std::size_t>(w)].worker_in_node =
                w % cluster.workers_per_node;
        }
        if (!config.trace) {
            return;
        }
        meta_ = {.approach = std::string(exec_model_name(model)),
                 .inter = std::string(dls::technique_name(config.inter)),
                 .intra = std::string(dls::technique_name(config.intra)),
                 .nodes = cluster.nodes,
                 .workers_per_node = cluster.workers_per_node,
                 .total_iterations = workload.iterations()};
        session_ = std::make_unique<trace::TraceSession>(workers, config.trace_capacity);
        for (int w = 0; w < workers; ++w) {
            tracers_[static_cast<std::size_t>(w)] =
                session_->tracer(w, w / cluster.workers_per_node);
        }
    }

    [[nodiscard]] SimWorker& worker(int w) noexcept {
        return report_.workers[static_cast<std::size_t>(w)];
    }

    [[nodiscard]] trace::WorkerTracer& tracer(int w) noexcept {
        return tracers_[static_cast<std::size_t>(w)];
    }

    /// Charges worker `w` one executed sub-chunk [begin, end) whose
    /// bookkeeping starts at `t`: the fixed chunk overhead, then the body
    /// at the node's speed, recorded as ChunkExecBegin/End. Returns the
    /// compute time. The caller advances its own clock: how that sum
    /// associates is part of each site's pricing.
    double run_sub_chunk(int w, double t, std::int64_t begin, std::int64_t end) {
        SimWorker& sw = worker(w);
        const double compute = workload_.range_cost(begin, end) / cluster_.speed(sw.node);
        sw.busy += compute;
        sw.overhead += cluster_.costs.chunk_overhead_s();
        sw.iterations += end - begin;
        ++sw.sub_chunks;
        trace::WorkerTracer& tr = tracer(w);
        if (tr.enabled()) {
            const double exec0 = t + cluster_.costs.chunk_overhead_s();
            tr.instant(trace::EventKind::ChunkExecBegin, exec0, begin, end);
            tr.instant(trace::EventKind::ChunkExecEnd, exec0 + compute, begin, end);
        }
        return compute;
    }

    /// Sets the parallel time to the latest worker finish, merges the
    /// recorded events and hands the report over.
    [[nodiscard]] SimReport finish() {
        for (const SimWorker& w : report_.workers) {
            report_.parallel_time = std::max(report_.parallel_time, w.finish);
        }
        if (session_) {
            report_.trace = session_->finish(meta_);
        }
        return std::move(report_);
    }

private:
    const ClusterSpec& cluster_;
    const WorkloadTrace& workload_;
    SimReport report_;
    trace::TraceMeta meta_;
    std::unique_ptr<trace::TraceSession> session_;
    std::vector<trace::WorkerTracer> tracers_;
};

}  // namespace hdls::sim::detail
