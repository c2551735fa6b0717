#pragma once
/// \file engine_trace.hpp
/// Internal: shared virtual-time tracing scaffolding of the simulation
/// engines. The single simulation thread is the sole producer for every
/// per-worker event log and timestamps are the simulator's virtual clock.

#include <memory>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "trace/recorder.hpp"

namespace hdls::sim::detail {

class EngineTrace {
public:
    /// Creates the session (and one tracer per worker) only when
    /// config.trace is set; otherwise every tracer is a disabled no-op.
    EngineTrace(const ClusterSpec& cluster, const SimConfig& config) {
        tracers_.resize(static_cast<std::size_t>(cluster.total_workers()));
        if (!config.trace) {
            return;
        }
        session_ = std::make_unique<trace::TraceSession>(cluster.total_workers(),
                                                         config.trace_capacity);
        for (int w = 0; w < cluster.total_workers(); ++w) {
            tracers_[static_cast<std::size_t>(w)] =
                session_->tracer(w, w / cluster.workers_per_node);
        }
    }

    [[nodiscard]] trace::WorkerTracer& tracer(int worker) noexcept {
        return tracers_[static_cast<std::size_t>(worker)];
    }

    /// Merges the recorded events into report.trace (no-op when disabled).
    void attach(SimReport& report, ExecModel model, const ClusterSpec& cluster,
                const SimConfig& config, std::int64_t total_iterations) {
        if (!session_) {
            return;
        }
        report.trace = session_->finish(
            {.approach = std::string(exec_model_name(model)),
             .inter = std::string(dls::technique_name(config.inter)),
             .intra = std::string(dls::technique_name(config.intra)),
             .nodes = cluster.nodes,
             .workers_per_node = cluster.workers_per_node,
             .total_iterations = total_iterations,
             .job = -1,
             .job_name = {},
             .jobs = {}});
    }

private:
    std::unique_ptr<trace::TraceSession> session_;
    std::vector<trace::WorkerTracer> tracers_;
};

}  // namespace hdls::sim::detail
