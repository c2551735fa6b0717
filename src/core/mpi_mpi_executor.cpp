#include "core/mpi_mpi_executor.hpp"

#include <chrono>
#include <memory>
#include <thread>

#include "core/chunk_exec.hpp"
#include "core/hierarchy.hpp"
#include "core/lease_board.hpp"
#include "core/sharded_queue.hpp"
#include "core/work_source.hpp"
#include "metrics/watchdog.hpp"
#include "minimpi/liveness.hpp"
#include "util/chunk_clock.hpp"

namespace hdls::core {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

WorkerStats run_mpi_mpi_rank(minimpi::Context& ctx, std::int64_t n, const HierConfig& cfg,
                             const ResolvedHierarchy& rh, const ChunkBody& body,
                             Probe probe, ChunkGate* gate) {
    const minimpi::Comm& world = ctx.world();

    // The rank's chunk clock (a calibrated TSC where the host allows it):
    // body start/end stamps, lease stamps and deadlines, the poll timer
    // and watchdog beats all read it; the chain's sources time parent
    // acquisitions on clocks of their own. The loop's start and finish
    // (t0, finish_seconds) stay on steady_clock.
    util::ChunkClock clock;

    // The rank's view of the scheduling hierarchy: the root backend plus
    // one relay queue per deeper tree level (the leaf being the paper's
    // node-local shared queue), every acquisition protocol (pop, refill,
    // steal-aware tracing, termination) inside the ComposedWorkSource
    // chain.
    Hierarchy hier = build_hierarchy(world, n, rh, cfg, probe, /*include_leaf=*/true);
    ComposedWorkSource& source = *hier.top_composed();

    // Lease-based fault tolerance (HierConfig::lease): every chunk this
    // rank acquires is leased on the shared board before execution and
    // fenced at completion; the failure detector watches peer heartbeats
    // so a dead rank's leases can be reclaimed and re-executed in the
    // drain loop below. Both constructions are collective.
    std::unique_ptr<LeaseBoard> board;
    std::unique_ptr<minimpi::FailureDetector> detector;
    if (cfg.lease) {
        board = std::make_unique<LeaseBoard>(world, cfg.lease_k, /*slots=*/8, &clock);
        detector = std::make_unique<minimpi::FailureDetector>(
            world, std::chrono::duration_cast<std::chrono::nanoseconds>(
                       cfg.heartbeat_timeout));
        source.set_lease_board(board.get());
    }
    // Fault injection (HDLS_CHAOS="kill:<rank>@<pct>%"): this rank
    // fail-stops at the first chunk boundary past the progress trigger —
    // leases abandoned, heartbeat silenced, loop left. Boundary placement
    // means no refill announcement is ever left dangling.
    const bool chaos_me =
        cfg.chaos.enabled() && cfg.chaos.kill_rank == world.rank();
    const auto kill_at = static_cast<std::int64_t>(
        cfg.chaos.at_fraction * static_cast<double>(n));
    bool killed = false;

    WorkerStats stats;
    stats.node = ctx.node();
    stats.worker_in_node = world.rank() % ctx.topology().ranks_per_node;

    const bool feedback = hier.root().wants_feedback();

    // Adaptive feedback is accumulated locally per executed sub-chunk and
    // flushed (three fetch-and-op sums) only when it can influence a
    // scheduling decision — right before a root acquire, and once at
    // termination. Reporting per sub-chunk would put per-iteration RMA
    // traffic on the root window under fine-grained leaf techniques.
    // `sched_mark` is where the current scheduling span began (loop start
    // or the previous body's end), so the span up to the body's start is
    // the chunk's attributable overhead — the quantity AWF-D/E fold into
    // their rates.
    Clock::time_point sched_mark{};
    std::int64_t pending_iters = 0;
    double pending_busy = 0.0;
    double pending_overhead = 0.0;

    const auto flush_feedback = [&] {
        if (!feedback || pending_iters == 0) {
            return;
        }
        hier.root().report(pending_iters, pending_busy, pending_overhead);
        probe.feedback(pending_iters, pending_busy);
        pending_iters = 0;
        pending_busy = 0.0;
        pending_overhead = 0.0;
    };
    hier.set_feedback_flush(flush_feedback);

    probe.enter();

    // Rank 0 lends the run's watchdog a view into the sharded root:
    // per-shard remaining counts (atomic reads on the RMA window) so a
    // stall dump can name the starved shard. The shard probe must not
    // outlive the window it reads, so the guard below clears it on *every*
    // exit path — a chunk body that throws unwinds through hier's
    // destructor (freeing the window) while the watchdog thread may be
    // mid-check.
    metrics::StallWatchdog* const wd = world.rank() == 0 ? probe.watchdog() : nullptr;
    struct ShardProbeGuard {
        metrics::StallWatchdog* wd;
        ~ShardProbeGuard() {
            if (wd != nullptr) {
                wd->clear_shard_probe();
            }
        }
    } shard_probe_guard{wd};
    if (wd != nullptr) {
        if (const auto* sharded = dynamic_cast<const ShardedInterQueue*>(&hier.root())) {
            const int shards = rh.tree.front().fan_out;
            wd->set_shard_probe([sharded, shards] {
                std::vector<std::int64_t> remaining(static_cast<std::size_t>(shards));
                for (int s = 0; s < shards; ++s) {
                    remaining[static_cast<std::size_t>(s)] = sharded->remaining_of(s);
                }
                return remaining;
            });
        }
    }

    // The chunk-execution step of the loop and the reclamation drain:
    // trace bracket, body stamps, completion fence, accounting, beat.
    ChunkExecutor exec(body, clock, stats, board.get(), probe);

    // Failure detection (lease mode): the loop polls at most once per
    // heartbeat_timeout / 16, so a death is noticed at most that much
    // later than the timeout alone implies; the drain polls every round.
    const auto poll_period =
        std::chrono::duration_cast<Clock::duration>(cfg.heartbeat_timeout) / 16;
    const auto poll_liveness = [&] {
        probe.liveness_poll();
        detector->poll();
    };

    world.barrier();  // common start line
    clock.rebase();
    const Clock::time_point t0 = Clock::now();
    sched_mark = t0;
    Clock::time_point next_poll = t0;

    bool cancelled = false;
    while (const auto sub = source.try_acquire()) {
        // Chaos seam: fail-stop at the first own chunk whose start crosses
        // the progress trigger. The chunk just acquired (and anything in
        // the prefetch slot) stays leased-but-ACTIVE — exactly the state a
        // machine death leaves behind — and survivors reclaim it. The
        // victim stops beating here and only rejoins for the collective
        // teardown barriers (the in-process fail-stop approximation).
        if (chaos_me && !killed && sub->start >= kill_at) {
            killed = true;
            // A machine death also takes down whatever sits undispatched in
            // the victim's node-local leaf queue; if this rank is the
            // node's only worker nobody can pop it afterwards. Convert that
            // pending into leases first so the abandonment below puts every
            // last iteration under the board's exactly-once reclamation.
            source.abandon_pending();
            board->abandon_all();
            break;
        }
        if (board != nullptr) {
            world.beat();  // liveness: one heartbeat tick per chunk boundary
        }
        // Multi-tenant gate: the chunk is acquired (the chain's refill /
        // termination protocol is done), now wait for a fair-share slot
        // before burning CPU on it. A refusal means the job was cancelled:
        // drop the chunk and leave; peers drain the same way.
        if (gate != nullptr && !gate->begin_chunk(world.rank())) {
            cancelled = true;
            break;
        }
        const ChunkExecutor::Result r =
            exec.run(sub->start, sub->size, source.level(), source.has_prefetched());
        // A detection round so a mid-run death switches the sharded root's
        // steal policy (whole-remainder from dead hosts) without waiting
        // for the drain. Peers bump their heartbeat words every chunk, so
        // each round misses in cache on every peer: at most one round per
        // poll period, timed by the body-end stamp.
        if (detector != nullptr && r.b1 >= next_poll) {
            poll_liveness();
            next_poll = r.b1 + poll_period;
        }
        if (gate != nullptr) {
            gate->end_chunk(world.rank(), sub->size);
        }
        if (feedback && r.committed) {
            pending_iters += sub->size;
            pending_busy += std::chrono::duration<double>(r.busy).count();
            pending_overhead += util::elapsed_seconds(sched_mark, r.b0);
            sched_mark = r.b1;
        }
    }
    (void)cancelled;  // the partial WorkerStats already tell the story

    // Reclamation drain: a survivor's own leases are all committed by now
    // (each chunk is fenced right after its body), but peers may still
    // hold ACTIVE leases — live ones finish on their own; dead ones go
    // stale, get swept to RECLAIMED and are re-executed here under a fresh
    // lease, exactly once (the claim CAS has a single winner). The loop
    // ends when every slot board-wide is FREE: every acquired chunk of the
    // run is then committed. Survivors keep beating so they never suspect
    // each other while waiting.
    if (board != nullptr && !killed && !cancelled) {
        while (!board->quiescent()) {
            world.beat();
            world.poll_abort();
            poll_liveness();
            board->sweep();
            while (const auto rc = board->claim_one()) {
                board->lease(rc->start, rc->size);
                probe.instant(trace::EventKind::Reclaim, rc->start, rc->size);
                (void)exec.run(rc->start, rc->size, source.level(), source.has_prefetched());
            }
            probe.drain_round(world.size() - world.alive(), source.level(),
                              source.has_prefetched());
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    flush_feedback();  // final accounting for chunks executed since the last refill
    hier.finish();
    probe.leave();

    stats.global_refills = source.refills();
    stats.finish_seconds = util::elapsed_seconds(t0, Clock::now());
    stats.clock_reads = static_cast<std::int64_t>(clock.reads());

    // shard_probe_guard only fires after this explicit free, so clear the probe
    // by hand first; the guard's second clear is an idempotent no-op.
    if (wd != nullptr) {
        wd->clear_shard_probe();
    }
    if (board != nullptr) {
        board->free();  // collective; a chaos victim rejoins here
    }
    hier.free();  // every level's queue, then the root
    return stats;
}

}  // namespace hdls::core
