#include "core/hybrid_executor.hpp"

#include <chrono>
#include <optional>
#include <string>

#include "core/chunk_exec.hpp"
#include "core/hierarchy.hpp"
#include "dls/adaptive.hpp"
#include "metrics/metrics.hpp"
#include "metrics/watchdog.hpp"
#include "ompsim/team.hpp"
#include "util/chunk_clock.hpp"

namespace hdls::core {

namespace {
using Clock = std::chrono::steady_clock;

[[nodiscard]] ompsim::ForOptions intra_schedule_or_throw(dls::Technique intra) {
    if (const auto std_opt = ompsim::openmp_equivalent(intra)) {
        return *std_opt;
    }
    if (const auto ext = ompsim::extended_equivalent(intra)) {
        return *ext;
    }
    throw UnsupportedCombination(
        std::string("MPI+OpenMP cannot schedule ") + std::string(dls::technique_name(intra)) +
        " at the intra-node level (neither the OpenMP schedule clause nor the libGOMP-style "
        "extensions express it)");
}
}  // namespace

std::vector<WorkerStats> run_hybrid_rank(minimpi::Context& ctx, int threads_per_node,
                                         std::int64_t n, const HierConfig& cfg,
                                         const ResolvedHierarchy& rh, const ChunkBody& body,
                                         trace::TraceSession* session, const RankHooks& hooks) {
    if (ctx.topology().ranks_per_node != 1) {
        throw UnsupportedCombination(
            "run_hybrid_rank: the MPI+OpenMP model maps exactly one rank per leaf group");
    }
    const dls::Technique intra = rh.levels.back().technique;
    const ompsim::ForOptions schedule = intra_schedule_or_throw(intra);
    const minimpi::Comm& world = ctx.world();

    std::vector<WorkerStats> stats(static_cast<std::size_t>(threads_per_node));
    std::vector<trace::WorkerTracer> tracers(static_cast<std::size_t>(threads_per_node));
    for (int t = 0; t < threads_per_node; ++t) {
        stats[static_cast<std::size_t>(t)].node = ctx.node();
        stats[static_cast<std::size_t>(t)].worker_in_node = t;
        if (session != nullptr) {
            tracers[static_cast<std::size_t>(t)] =
                session->tracer(ctx.rank() * threads_per_node + t, ctx.node());
        }
    }

    // The masters' chain: the tree truncated above the thread-team leaf.
    // Depth 2 leaves just the root backend; deeper trees add relay levels
    // whose ComposedWorkSources record the master's pop/refill events,
    // level-tagged, on top of the acquire events the master records below.
    Hierarchy hier =
        build_hierarchy(world, n, rh, cfg, tracers[0], /*include_leaf=*/false);
    WorkSource& chain = hier.top();
    // The master plays the leaf's puller role: it records the acquire-side
    // event for every chunk it pulls off the chain, tagged with the level
    // it pulled from (the chain top's own level, or the root at depth 2) —
    // exactly what a leaf ComposedWorkSource records under MPI+MPI.
    const int pull_level = hier.top_composed() != nullptr ? hier.top_composed()->level() : 0;
    const bool feedback = chain.wants_feedback();
    // Leaf placement: this rank's team occupies worker slots
    // [rank*T, rank*T + T) of the host-wide plan, so co-located ranks
    // interleave over the sockets instead of stacking onto core 0.
    ompsim::ThreadTeam::Placement placement;
    placement.policy = cfg.pin.value_or(minimpi::PinPolicy::None);
    placement.first_worker = ctx.rank() * threads_per_node;
    ompsim::ThreadTeam team(threads_per_node, placement);

    const metrics::RuntimeMetrics& m = metrics::rt();
    // At depth 2 the chain is the bare root backend, so nothing below has
    // counted the master's acquisitions; deeper chains count their own
    // pops/refills inside the ComposedWorkSources.
    const bool count_master_acquire = hier.top_composed() == nullptr;
    const auto midx =
        static_cast<std::size_t>(metrics::RuntimeMetrics::level_index(pull_level));

    // Every thread copies this clock onto its own stack (a clock counts
    // its reads in a plain integer, so threads never share one): body
    // stamps, the master's acquire and feedback timing and watchdog beats
    // read the copies. The loop's start and finish stay on steady_clock.
    util::ChunkClock start_clock;
    world.barrier();  // common start line
    start_clock.rebase();
    const Clock::time_point t0 = Clock::now();

    // Shared between the team's threads within the region below.
    std::optional<WorkSource::Chunk> current;
    // Feedback bookkeeping (master thread only): the previous chunk's
    // bounds, when its execution started, and the acquire time that
    // obtained it (the overhead AWF-D/E fold into their rates).
    Clock::time_point chunk_t0 = t0;
    double acquire_seconds = 0.0;

    team.parallel([&](int tid) {
        auto& mine = stats[static_cast<std::size_t>(tid)];
        util::ChunkClock clock = start_clock;
        trace::WorkerTracer& tracer = tracers[static_cast<std::size_t>(tid)];
        const bool tracing = tracer.enabled();
        const int worker = ctx.rank() * threads_per_node + tid;
        // for_chunks calls its body on the calling thread: this executor.
        ChunkExecutor exec(body, clock, mine, tracer, /*board=*/nullptr, worker, hooks.watchdog);
        metrics::worker_enter(worker, hooks.watchdog);
        for (;;) {
            if (tid == 0) {
                // The join barrier below serialized the team, so the
                // previous chunk is fully executed here: report it before
                // fetching the next (funneled model — master talks to MPI).
                if (feedback && current) {
                    const double elapsed = util::elapsed_seconds(chunk_t0, clock.now());
                    chain.report(current->size, elapsed, acquire_seconds);
                    if (tracing) {
                        tracer.instant(trace::EventKind::FeedbackReport, tracer.now(),
                                       current->size, dls::feedback_ns(elapsed));
                    }
                }
                const double acq_t0 = tracing ? tracer.now() : 0.0;
                const Clock::time_point a0 = clock.now();
                current = chain.try_acquire();
                // Multi-tenant gate: one slot covers the whole team while
                // it workshares this chunk (funneled model). A refusal
                // cancels the run — dropping the chunk ends the team loop.
                if (current && hooks.gate != nullptr &&
                    !hooks.gate->begin_chunk(ctx.rank())) {
                    current.reset();
                }
                // One stamp closes the acquire and opens the chunk.
                chunk_t0 = clock.now();
                const std::chrono::nanoseconds acquire_ns = util::elapsed(a0, chunk_t0);
                acquire_seconds = std::chrono::duration<double>(acquire_ns).count();
                if (count_master_acquire && current) {
                    m.acquire_latency_ns[midx]->observe(
                        static_cast<std::uint64_t>(acquire_ns.count()));
                    (current->stolen ? m.steals : m.acquires)[midx]->inc();
                }
                if (tracing) {
                    tracer.record(current && current->stolen ? trace::EventKind::Steal
                                                             : trace::EventKind::GlobalAcquire,
                                  acq_t0, tracer.now(), current ? current->start : 0,
                                  current ? current->size : 0, 0.0, pull_level);
                }
                if (current) {
                    ++mine.global_refills;
                }
            }
            // Chunk bounds published to the team; non-masters idle here
            // while the master fetches (part of Figure 2's sync time).
            const double publish_t0 = tracing ? tracer.now() : 0.0;
            team.barrier();
            if (tracing) {
                tracer.record(trace::EventKind::BarrierWait, publish_t0, tracer.now());
            }
            if (!current) {
                break;
            }
            const auto chunk = *current;
            // #pragma omp for schedule(...) over the chunk — implicit
            // barrier at the end (Figure 2's synchronization points). The
            // time between a thread's last sub-chunk and the construct's
            // return is its barrier wait.
            double last_busy = tracing ? tracer.now() : 0.0;
            team.for_chunks(chunk.start, chunk.start + chunk.size, schedule,
                            [&](std::int64_t b, std::int64_t e, int /*thread_id*/) {
                                (void)exec.run(b, e - b, pull_level, /*prefetch=*/false);
                                if (tracing) {
                                    last_busy = tracer.now();
                                }
                            });
            if (tracing) {
                tracer.record(trace::EventKind::BarrierWait, last_busy, tracer.now());
            }
            if (tid == 0 && hooks.gate != nullptr) {
                // The worksharing construct's implicit barrier has passed:
                // the chunk is fully executed, release the team's slot.
                hooks.gate->end_chunk(ctx.rank(), chunk.size);
            }
        }
        if (tid == 0) {
            // Close chain-side wait spans (no-op at depth 2); the team's
            // own Terminate events follow below.
            hier.finish(/*terminate_top=*/false);
        }
        if (tracing) {
            tracer.instant(trace::EventKind::Terminate, tracer.now());
        }
        metrics::worker_leave(worker, hooks.watchdog);
        mine.finish_seconds = util::elapsed_seconds(t0, Clock::now());
        mine.clock_reads = static_cast<std::int64_t>(clock.reads());
    });

    hier.free();
    return stats;
}

}  // namespace hdls::core
