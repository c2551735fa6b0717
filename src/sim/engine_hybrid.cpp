/// \file engine_hybrid.cpp
/// Node-level simulation engine for the MPI+OpenMP baseline.
///
/// Nodes interact only through the global work queue, so the event loop
/// advances whole node "rounds": the node whose master is ready earliest
/// fetches the next chunk (global accesses thus serialize in virtual-time
/// order), then its thread team executes the chunk under the intra
/// schedule, and the implicit end-of-worksharing barrier (paper Figure 2)
/// synchronizes the team before the next fetch.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "dls/chunk_formulas.hpp"
#include "sim/engines.hpp"
#include "sim/inter_source.hpp"
#include "sim/resources.hpp"

namespace hdls::sim::detail {

void simulate_hybrid_barrier(EngineRun& run, const ClusterSpec& cluster,
                             const SimConfig& config, const dls::LevelPlan& plan,
                             const WorkloadTrace& workload) {
    const CostModel& costs = cluster.costs;
    const int team = cluster.workers_per_node;

    // The whole hierarchy above the thread-team leaves (root backend + any
    // relay levels of a deep tree), priced per level in one shared place.
    const dls::Technique leaf_technique = plan.levels.back().technique;
    HierarchicalSource source(cluster, config, plan, workload.iterations());

    // Per-node, per-thread virtual time.
    std::vector<std::vector<double>> clocks(static_cast<std::size_t>(cluster.nodes),
                                            std::vector<double>(static_cast<std::size_t>(team)));

    const auto worker_of = [&](int node, int tid) -> SimWorker& {
        return run.worker(node * team + tid);
    };

    /// Team barrier at the end of a phase: everyone waits for the slowest,
    /// then pays the barrier cost. The wait is the Figure-2 idle time.
    const auto barrier = [&](int node) {
        std::vector<double>& clock = clocks[static_cast<std::size_t>(node)];
        double latest = 0.0;
        for (const double c : clock) {
            latest = std::max(latest, c);
        }
        const double done = latest + costs.barrier_s(team);
        for (int tid = 0; tid < team; ++tid) {
            SimWorker& w = worker_of(node, tid);
            w.idle += latest - clock[static_cast<std::size_t>(tid)];
            w.overhead += costs.barrier_s(team);
            auto& tracer = run.tracer(node * team + tid);
            if (tracer.enabled()) {
                tracer.record(trace::EventKind::BarrierWait, clock[static_cast<std::size_t>(tid)],
                              done);
            }
            clock[static_cast<std::size_t>(tid)] = done;
        }
        return done;
    };

    /// Executes one level-1 chunk on the node's team under the intra
    /// schedule (no barrier here; the caller adds it).
    const auto workshare = [&](int node, std::int64_t start, std::int64_t size) {
        std::vector<double>& clock = clocks[static_cast<std::size_t>(node)];
        if (leaf_technique == dls::Technique::Static) {
            // schedule(static): one contiguous slice per thread, no shared
            // counter, no dequeue cost.
            const std::int64_t base = size / team;
            const std::int64_t extra = size % team;
            std::int64_t begin = start;
            for (int tid = 0; tid < team; ++tid) {
                const std::int64_t len = base + (tid < extra ? 1 : 0);
                if (len > 0) {
                    double& c = clock[static_cast<std::size_t>(tid)];
                    const double compute = run.run_sub_chunk(node * team + tid, c, begin,
                                                             begin + len);
                    c += costs.chunk_overhead_s() + compute;
                    begin += len;
                }
            }
            return;
        }
        // Self-scheduled kinds (dynamic/guided/tss/fac2 <-> SS/GSS/TSS/FAC2):
        // a shared counter serializes dequeues; threads advance min-clock
        // first, which is the order their requests would issue.
        dls::LoopParams p;
        p.total_iterations = size;
        p.workers = team;
        p.min_chunk = config.min_chunk;
        FcfsResource counter(costs.omp_dequeue_s());
        std::int64_t step = 0;
        std::int64_t scheduled = 0;
        std::vector<bool> done(static_cast<std::size_t>(team), false);
        int remaining_threads = team;
        while (remaining_threads > 0) {
            int tid = -1;
            double best = std::numeric_limits<double>::infinity();
            for (int i = 0; i < team; ++i) {
                if (!done[static_cast<std::size_t>(i)] &&
                    clock[static_cast<std::size_t>(i)] < best) {
                    best = clock[static_cast<std::size_t>(i)];
                    tid = i;
                }
            }
            SimWorker& w = worker_of(node, tid);
            auto& tracer = run.tracer(node * team + tid);
            const double before = counter.busy_until();
            const double completion = counter.acquire(best);
            const double dequeue_wait = std::max(0.0, before - best);
            w.lock_wait += dequeue_wait;
            w.overhead += completion - best;
            const std::int64_t hint = dls::chunk_size_for_step(leaf_technique, p, step);
            if (hint <= 0 || scheduled >= size) {
                // Failed dequeue: the thread leaves the construct.
                if (tracer.enabled()) {
                    tracer.record(trace::EventKind::LocalPop, best, completion, -1, -1,
                                  dequeue_wait, plan.depth() - 1);
                }
                clock[static_cast<std::size_t>(tid)] = completion;
                done[static_cast<std::size_t>(tid)] = true;
                --remaining_threads;
                continue;
            }
            ++step;
            const std::int64_t take = std::min(hint, size - scheduled);
            const std::int64_t begin = start + scheduled;
            scheduled += take;
            if (tracer.enabled()) {
                tracer.record(trace::EventKind::LocalPop, best, completion, begin, begin + take,
                              dequeue_wait, plan.depth() - 1);
            }
            const double compute =
                run.run_sub_chunk(node * team + tid, completion, begin, begin + take);
            clock[static_cast<std::size_t>(tid)] = completion + costs.chunk_overhead_s() + compute;
        }
    };

    ReadyQueue events;
    for (int node = 0; node < cluster.nodes; ++node) {
        events.push({0.0, node});
    }
    int finished_nodes = 0;
    while (finished_nodes < cluster.nodes) {
        const int node = events.top().id;
        events.pop();
        std::vector<double>& clock = clocks[static_cast<std::size_t>(node)];
        SimWorker& master = worker_of(node, 0);

        // Master (thread 0) fetches the next chunk: MPI_THREAD_FUNNELED.
        const double t0 = clock[0];
        auto& master_tracer = run.tracer(node * team);
        std::optional<std::pair<std::int64_t, std::int64_t>> chunk;
        double fetch_overhead = 0.0;
        if (!source.exhausted(node)) {
            double done = t0;
            double retry_at = 0.0;
            const auto take = source.acquire(node, t0, &done, &retry_at);
            master.overhead += done - t0;
            clock[0] = done;
            if (!take && std::isfinite(retry_at)) {
                // Work is in flight up the branch but not yet visible: the
                // master idles until it lands and retries (no barrier — the
                // team is still waiting for the publish).
                const double next = std::max(done, retry_at);
                master.idle += next - done;
                clock[0] = next;
                events.push({next, node});
                continue;
            }
            if (!take) {
                if (master_tracer.enabled()) {
                    master_tracer.record(trace::EventKind::GlobalAcquire, t0, done, 0, 0);
                }
            } else {
                chunk = std::pair{take->start, take->size};
                fetch_overhead = done - t0;
                ++master.global_refills;
                if (master_tracer.enabled()) {
                    master_tracer.record(take->stolen ? trace::EventKind::Steal
                                                      : trace::EventKind::GlobalAcquire,
                                         t0, done, chunk->first, chunk->second, 0.0,
                                         take->level);
                }
            }
        }

        // Publish barrier: the team learns the chunk bounds (and pays for
        // the funneled fetch by idling).
        const double published = barrier(node);

        if (!chunk) {
            for (int tid = 0; tid < team; ++tid) {
                worker_of(node, tid).finish = published;
                auto& tracer = run.tracer(node * team + tid);
                if (tracer.enabled()) {
                    tracer.instant(trace::EventKind::Terminate, published);
                }
            }
            ++finished_nodes;
            continue;
        }

        workshare(node, chunk->first, chunk->second);
        double joined = barrier(node);  // the implicit barrier
        if (source.wants_feedback()) {
            // The master posts the chunk's feedback before the next fetch:
            // the node's wall time for the chunk is its rate denominator.
            // Priced as the real report(): three accumulator RMA updates.
            source.report(node, chunk->second, joined - published, fetch_overhead);
            const double flush = feedback_flush_s(costs);
            master.overhead += flush;
            clock[0] += flush;
            joined += flush;
        }
        events.push({joined, node});
    }
}

}  // namespace hdls::sim::detail
