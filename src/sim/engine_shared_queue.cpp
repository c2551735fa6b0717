/// \file engine_shared_queue.cpp
/// Worker-level simulation engine (the MPI+MPI model).
///
/// Discrete-event scheme: every worker is a process; the event queue holds
/// (ready-time, worker) pairs and always advances the globally earliest
/// worker, so shared-state mutations happen in virtual-time order. Each
/// event processes one *transaction*: a queue access, optionally followed
/// by a global refill and the execution of the obtained sub-chunk.
/// Serialization points (the node queue lock, the global queue target)
/// are modelled as resources whose busy-until times chain transactions in
/// processing order.

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/engines.hpp"
#include "sim/inter_source.hpp"
#include "sim/resources.hpp"

namespace hdls::sim::detail {

namespace {

/// A node's leaf queue: the sliced chunks behind MPI_Win_lock
/// (PollingLock). The queue state is inspected as of a lock grant.
struct NodeState {
    NodeState(const CostModel& costs, dls::Technique leaf, int workers, std::int64_t min_chunk)
        : queue(leaf, workers, min_chunk),
          lock(costs.lock_hold_s(), costs.lock_poll_s(), costs.lock_attempt_s()) {}

    SlicedChunkQueue queue;
    PollingLock lock;
};

}  // namespace

void simulate_shared_queue(EngineRun& run, const ClusterSpec& cluster, const SimConfig& config,
                           const dls::LevelPlan& plan, const WorkloadTrace& workload) {
    const CostModel& costs = cluster.costs;
    const int total_workers = cluster.total_workers();

    // The whole hierarchy above the leaf queues (root backend + any relay
    // levels of a deep tree), priced per level in one shared place.
    const int leaf_level = plan.depth() - 1;
    HierarchicalSource source(cluster, config, plan, workload.iterations());

    std::vector<NodeState> nodes(
        static_cast<std::size_t>(cluster.nodes),
        NodeState(costs, plan.levels.back().technique, cluster.workers_per_node,
                  config.min_chunk));

    ReadyQueue events;
    for (int w = 0; w < total_workers; ++w) {
        events.push({0.0, w});
    }

    // Waiting spans are coalesced per worker: one BarrierWait event from
    // the first empty-handed wake-up to the wake-up that found work (or
    // terminated), mirroring the real executor's recording.
    std::vector<double> wait_from(static_cast<std::size_t>(total_workers), -1.0);
    // Per-worker "accumulated feedback not yet flushed" flag, mirroring
    // the real executor's flush-before-refill cadence.
    std::vector<char> feedback_pending(static_cast<std::size_t>(total_workers), 0);

    int finished = 0;
    while (finished < total_workers) {
        const ReadyEvent ev = events.top();
        events.pop();
        SimWorker& w = run.worker(ev.id);
        NodeState& node = nodes[static_cast<std::size_t>(w.node)];
        const double t = ev.time;
        trace::WorkerTracer& tracer = run.tracer(ev.id);
        const bool tracing = tracer.enabled();
        double& waiting_since = wait_from[static_cast<std::size_t>(ev.id)];
        const bool record_probe = tracing && waiting_since < 0.0;
        const auto close_wait = [&](double end) {
            if (tracing && waiting_since >= 0.0) {
                tracer.record(trace::EventKind::BarrierWait, waiting_since, end);
                waiting_since = -1.0;
            }
        };
        // Executes the sub-chunk a queue access that began at `from`
        // popped, releasing the worker at `released`, and schedules the
        // worker's next transaction after it.
        const auto execute = [&](const SlicedChunkQueue::Slice& sub, double from,
                                 double released) {
            const double compute = run.run_sub_chunk(ev.id, released, sub.begin, sub.end);
            if (source.wants_feedback()) {
                // Local accumulation in the real executor: free here; the
                // flush is priced at the next refill.
                source.report(w.node, sub.end - sub.begin, compute,
                              released - from + costs.chunk_overhead_s());
                feedback_pending[static_cast<std::size_t>(ev.id)] = 1;
            }
            events.push({released + costs.chunk_overhead_s() + compute, ev.id});
        };

        // ---- stage 2: try to pop a sub-chunk from the node queue --------
        const PollingLock::Grant acc = node.lock.acquire(t);
        w.lock_wait += acc.wait;
        w.overhead += acc.released - t;
        if (const auto sub = node.queue.pop(0, acc.acquired)) {
            close_wait(t);
            if (tracing) {
                tracer.record(trace::EventKind::LocalPop, t, acc.released, sub->begin, sub->end,
                              acc.wait, leaf_level);
            }
            execute(*sub, t, acc.released);
            continue;
        }
        if (record_probe) {
            tracer.record(trace::EventKind::LocalPop, t, acc.released, -1, -1, acc.wait,
                          leaf_level);
        }

        double now = acc.released;

        // ---- stage 1: queue drained; refill from the level above --------
        if (!source.exhausted(w.node)) {
            if (feedback_pending[static_cast<std::size_t>(ev.id)] != 0) {
                // Pre-acquire feedback flush: three accumulator RMA updates
                // (the AWF weight-refresh reads ride the priced global
                // acquisition below — a deliberate simplification).
                const double flush = feedback_flush_s(costs);
                w.overhead += flush;
                now += flush;
                feedback_pending[static_cast<std::size_t>(ev.id)] = 0;
            }
            if (record_probe) {
                tracer.instant(trace::EventKind::RefillBegin, now, 0, 0, leaf_level);
            }
            double done = now;
            double retry_at = 0.0;
            const auto take = source.acquire(w.node, now, &done, &retry_at);
            w.overhead += done - now;
            if (!take && std::isfinite(retry_at)) {
                // Work is in flight somewhere up the branch (pushed but not
                // yet visible at our inspection time): wake when it lands.
                if (record_probe) {
                    tracer.instant(trace::EventKind::RefillEnd, done, 0, 0, leaf_level);
                }
                const double next = std::max(done, retry_at);
                w.idle += next - done;
                if (tracing && waiting_since < 0.0) {
                    waiting_since = done;
                }
                events.push({next, ev.id});
                continue;
            }
            if (!take) {
                if (record_probe) {
                    tracer.record(trace::EventKind::GlobalAcquire, now, done, 0, 0);
                    tracer.instant(trace::EventKind::RefillEnd, done, 0, 0, leaf_level);
                }
                now = done;
            } else {
                ++w.global_refills;
                close_wait(now);
                if (tracing) {
                    tracer.record(take->stolen ? trace::EventKind::Steal
                                               : trace::EventKind::GlobalAcquire,
                                  now, done, take->start, take->size, 0.0, take->level);
                }
                now = done;
                // Push + pop own first sub-chunk in one queue access. The
                // fresh, non-empty chunk is visible to us inside the epoch,
                // so the pop always finds work.
                const PollingLock::Grant push = node.lock.acquire(now);
                w.lock_wait += push.wait;
                w.overhead += push.released - now;
                node.queue.push(take->start, take->size, push.released);
                const auto sub = node.queue.pop(0, push.released);
                if (tracing) {
                    tracer.record(trace::EventKind::LocalPop, now, push.released, sub->begin,
                                  sub->end, push.wait, leaf_level);
                    tracer.instant(trace::EventKind::RefillEnd, push.released, take->start,
                                   take->size, leaf_level);
                }
                execute(*sub, now, push.released);
                continue;
            }
        }

        // ---- wait for in-flight work or terminate -----------------------
        if (node.queue.unfinished()) {
            // Work exists but was not yet visible at our inspection time;
            // wake when the earliest pending push completes.
            const double next = std::max(now, node.queue.earliest_visible());
            w.idle += next - now;
            if (tracing && waiting_since < 0.0) {
                waiting_since = now;
            }
            events.push({next, ev.id});
            continue;
        }
        close_wait(now);
        if (tracing) {
            tracer.instant(trace::EventKind::Terminate, now);
        }
        w.finish = now;
        ++finished;
    }
}

}  // namespace hdls::sim::detail
