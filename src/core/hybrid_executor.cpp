#include "core/hybrid_executor.hpp"

#include <chrono>
#include <optional>

#include "core/chunk_exec.hpp"
#include "core/hierarchy.hpp"
#include "ompsim/team.hpp"
#include "util/chunk_clock.hpp"

namespace hdls::core {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

std::vector<WorkerStats> run_hybrid_rank(minimpi::Context& ctx, std::int64_t n,
                                         const HierConfig& cfg, const ResolvedHierarchy& rh,
                                         const ompsim::ForOptions& schedule,
                                         const ChunkBody& body, const std::vector<Probe>& probes,
                                         ChunkGate* gate) {
    if (ctx.topology().ranks_per_node != 1) {
        throw UnsupportedCombination(
            "run_hybrid_rank: the MPI+OpenMP model maps exactly one rank per leaf group");
    }
    const minimpi::Comm& world = ctx.world();
    const int threads_per_node = static_cast<int>(probes.size());

    std::vector<WorkerStats> stats(probes.size());
    for (int t = 0; t < threads_per_node; ++t) {
        stats[static_cast<std::size_t>(t)].node = ctx.node();
        stats[static_cast<std::size_t>(t)].worker_in_node = t;
    }

    // The masters' chain: the tree truncated above the thread-team leaf.
    // Depth 2 leaves just the root backend; deeper trees add relay levels
    // whose ComposedWorkSources report the master's pops and refills,
    // level-tagged, on top of the acquisitions the master reports below.
    Hierarchy hier = build_hierarchy(world, n, rh, cfg, probes.front(), /*include_leaf=*/false);
    WorkSource& chain = hier.top();
    // The master plays the leaf's puller role: every chunk it pulls off
    // the chain is a parent acquisition of the team's level, reported at
    // the level it pulled from (the chain top's own level, or the root at
    // depth 2) — exactly what a leaf ComposedWorkSource reports under
    // MPI+MPI.
    const int pull_level = hier.top_composed() != nullptr ? hier.top_composed()->level() : 0;
    Probe::Level master = probes.front().level(pull_level + 1);
    const bool feedback = chain.wants_feedback();
    // Leaf placement: this rank's team occupies worker slots
    // [rank*T, rank*T + T) of the host-wide plan, so co-located ranks
    // interleave over the sockets instead of stacking onto core 0.
    ompsim::ThreadTeam::Placement placement;
    placement.policy = cfg.pin.value_or(minimpi::PinPolicy::None);
    placement.first_worker = ctx.rank() * threads_per_node;
    ompsim::ThreadTeam team(threads_per_node, placement);

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
        Probe probe = probes[static_cast<std::size_t>(tid)];
        // for_chunks calls its body on the calling thread: this executor.
        ChunkExecutor exec(body, clock, mine, /*board=*/nullptr, probe);
        probe.enter();
        for (;;) {
            if (tid == 0) {
                // The join barrier below serialized the team, so the
                // previous chunk is fully executed here: report it before
                // fetching the next (funneled model — master talks to MPI).
                if (feedback && current) {
                    const double elapsed = util::elapsed_seconds(chunk_t0, clock.now());
                    chain.report(current->size, elapsed, acquire_seconds);
                    probe.feedback(current->size, elapsed);
                }
                const double acq_t0 = probe.now();
                const Clock::time_point a0 = clock.now();
                current = chain.try_acquire();
                // The gate: one call covers the whole team while it
                // workshares this chunk (funneled model). A refusal drops
                // the chunk and ends the team loop.
                if (current && gate != nullptr && !gate->begin_chunk(ctx.rank())) {
                    current.reset();
                }
                // One stamp closes the acquire and opens the chunk.
                chunk_t0 = clock.now();
                const std::chrono::nanoseconds acquire_ns = util::elapsed(a0, chunk_t0);
                acquire_seconds = std::chrono::duration<double>(acquire_ns).count();
                master.parent_acquire(current, acq_t0, acquire_ns);
                if (current) {
                    ++mine.global_refills;
                }
            }
            // Chunk bounds published to the team; non-masters idle here
            // while the master fetches (part of Figure 2's sync time).
            const double publish_t0 = probe.now();
            std::chrono::nanoseconds idle = team.barrier();
            probe.span(trace::EventKind::BarrierWait, publish_t0);
            if (!current) {
                probe.team_round(0, idle);
                break;
            }
            const auto chunk = *current;
            const std::int64_t chunks_before = mine.chunks;
            // #pragma omp for schedule(...) over the chunk — implicit
            // barrier at the end (Figure 2's synchronization points). The
            // time between a thread's last sub-chunk and the construct's
            // return is its barrier wait.
            double last_busy = probe.now();
            idle += team.for_chunks(chunk.start, chunk.start + chunk.size, schedule,
                                    [&](std::int64_t b, std::int64_t e, int /*thread_id*/) {
                                        (void)exec.run(b, e - b, pull_level,
                                                       /*prefetch=*/false);
                                        last_busy = probe.now();
                                    });
            probe.span(trace::EventKind::BarrierWait, last_busy);
            probe.team_round(mine.chunks - chunks_before, idle);
            if (tid == 0 && gate != nullptr) {
                // The worksharing construct's implicit barrier has passed:
                // the chunk is fully executed.
                gate->end_chunk(ctx.rank(), chunk.size);
            }
        }
        if (tid == 0) {
            hier.finish();  // chain-side wait spans (none at depth 2)
        }
        probe.leave();
        mine.finish_seconds = util::elapsed_seconds(t0, Clock::now());
        mine.clock_reads = static_cast<std::int64_t>(clock.reads());
    });

    hier.free();
    return stats;
}

}  // namespace hdls::core
