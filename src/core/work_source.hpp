#pragma once
/// \file work_source.hpp
/// WorkSource — the one recursive interface behind every level of the
/// scheduling hierarchy.
///
/// The paper's two hard-coded levels (an inter-node queue feeding an
/// intra-node queue) generalize to a chain of WorkSources built along the
/// machine's topology tree: the root is served by any of the three
/// inter-backends — GlobalWorkQueue, AdaptiveGlobalQueue (both centralized
/// on rank 0) or ShardedInterQueue (one window per entity with CAS work
/// stealing) — and every deeper level is a ComposedWorkSource that slices
/// the chunks of its parent through that level's relay queue (LevelQueue:
/// the centralized NodeWorkQueue or the work-stealing ShardedRelayQueue).
/// core::build_hierarchy (hierarchy.hpp) assembles the chain from a
/// topology spec; executors only ever talk to the top of the chain.

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <thread>

#include "core/lease_board.hpp"
#include "core/local_queue.hpp"
#include "dls/technique.hpp"
#include "metrics/metrics.hpp"
#include "trace/recorder.hpp"
#include "util/chunk_clock.hpp"

namespace hdls::core {

class WorkSource {
public:
    /// One scheduled chunk: execute [start, start + size).
    struct Chunk {
        std::int64_t start = 0;
        std::int64_t size = 0;
        std::int64_t step = 0;
        /// True when the chunk was carved from a peer's share (the sharded
        /// backends' work stealing); executors and composed sources record
        /// it as a Steal rather than a GlobalAcquire trace event.
        bool stolen = false;
    };

    virtual ~WorkSource() = default;

    /// Acquires the next chunk, or std::nullopt once this source (and,
    /// for composed sources, every source beneath it) is exhausted.
    [[nodiscard]] virtual std::optional<Chunk> try_acquire() = 0;

    /// Runtime feedback for the adaptive techniques: executed iterations
    /// with their compute and scheduling-overhead time, accumulated into
    /// the caller's node rate. Composed sources forward to their parent;
    /// a no-op for non-adaptive backends.
    virtual void report(std::int64_t iterations, double compute_seconds,
                        double overhead_seconds) {
        (void)iterations;
        (void)compute_seconds;
        (void)overhead_seconds;
    }

    /// True when report() calls influence future chunk sizes (AWF-*); lets
    /// executors skip the feedback timing entirely otherwise.
    [[nodiscard]] virtual bool wants_feedback() const noexcept { return false; }

    /// Chunks acquired through *this* handle (per-rank statistic).
    [[nodiscard]] virtual std::int64_t acquired() const noexcept = 0;

    /// The technique this source schedules with (its own level).
    [[nodiscard]] virtual dls::Technique technique() const noexcept = 0;

    /// Collective teardown. Composed sources free their whole chain.
    virtual void free() = 0;
};

/// A non-root level of the scheduling hierarchy: pops sub-chunks from the
/// level's relay queue and, when it drains, refills it from the parent
/// source under the paper's "fastest rank refills" protocol — including
/// the termination condition (parent exhausted, queue drained, no refill
/// in flight). Works at any depth: the parent may be the root backend or
/// another ComposedWorkSource. Records the full chunk-lifecycle trace
/// (LocalPop, RefillBegin/End, GlobalAcquire/Steal, coalesced
/// BarrierWait), each event tagged with its hierarchy level: pops and
/// refills carry this source's level, parent acquisitions the parent's.
class ComposedWorkSource final : public WorkSource {
public:
    /// `level` is this source's depth in the tree (>= 1; the root is 0).
    /// `before_refill` (optional) runs right before every parent acquire —
    /// the executors flush accumulated adaptive feedback there (attached
    /// to the level-1 source, so rates are published before the next root
    /// decision); it can also be attached later via set_before_refill.
    ComposedWorkSource(LevelQueue& local, WorkSource& parent, trace::WorkerTracer& tracer,
                       int level, std::function<void()> before_refill = {})
        : local_(local),
          parent_(parent),
          tracer_(tracer),
          tracing_(tracer.enabled()),
          level_(level),
          before_refill_(std::move(before_refill)),
          // Metric handles resolved once: increments on the acquire path
          // are a single relaxed fetch_add through these pointers. Parent
          // acquisitions are attributed to the parent's level, as in the
          // trace events above.
          m_pops_(metrics::rt().pops[midx(level)]),
          m_refills_(metrics::rt().refills[midx(level)]),
          m_acquires_(metrics::rt().acquires[midx(level - 1)]),
          m_steals_(metrics::rt().steals[midx(level - 1)]),
          m_acquire_latency_(metrics::rt().acquire_latency_ns[midx(level - 1)]),
          m_prefetch_hits_(metrics::rt().prefetch_hits),
          m_prefetch_misses_(metrics::rt().prefetch_misses) {}

    /// Attaches the pre-acquire callback after construction (the feedback
    /// flush needs the fully-built chain to exist first).
    void set_before_refill(std::function<void()> fn) { before_refill_ = std::move(fn); }

    /// Enables the double-buffered prefetch slot (HierConfig::prefetch):
    /// returning a chunk also fills the slot with the *next* acquisition,
    /// so it is in flight while the caller executes — the following
    /// try_acquire is a constant-time slot read (a Prefetch hit). Enabled
    /// on the chain's top source only: that is the handle whose acquire
    /// latency sits between the caller's chunk executions. Exact tiling is
    /// unaffected (the slot holds an already-assigned sub-chunk, consumed
    /// before termination can be reached).
    void set_prefetch(bool on) { prefetch_ = on; }
    [[nodiscard]] bool prefetch_enabled() const noexcept { return prefetch_; }

    /// Attaches the fault-tolerance lease board (HierConfig::lease; the
    /// chain's top source only — the handle whose chunks the executor
    /// runs). Every sub-chunk is leased the moment it is carved from the
    /// level queue — *including* prefetch-slot fills, so a chunk sitting
    /// in the slot of a rank that dies is reclaimed like any other. The
    /// executor completes the lease after the body (LeaseBoard::complete).
    void set_lease_board(LeaseBoard* board) noexcept { lease_board_ = board; }

    /// Fail-stop support (the chaos drill): converts every sub-chunk still
    /// visible in this level's queue into a lease without executing it.
    /// A dying rank's level queue may hold refilled-but-undispatched work
    /// that only its own node's workers can see — on a whole-node loss
    /// that work would be stranded, because the leaf window's communicator
    /// is node-scoped and survivors elsewhere cannot pop it. Leasing it
    /// here moves it under the board's exactly-once reclamation before the
    /// owner abandons its leases. Adjacent sub-chunks coalesce into single
    /// leases so the board's slot budget is not exhausted by a long queue.
    void abandon_pending() {
        if (lease_board_ == nullptr) {
            return;
        }
        std::int64_t run_begin = -1;
        std::int64_t run_end = -1;
        while (const auto sub = local_.try_pop(nullptr)) {
            if (run_begin >= 0 && sub->begin == run_end) {
                run_end = sub->end;
                continue;
            }
            if (run_begin >= 0) {
                lease_board_->lease(run_begin, run_end - run_begin);
            }
            run_begin = sub->begin;
            run_end = sub->end;
        }
        if (run_begin >= 0) {
            lease_board_->lease(run_begin, run_end - run_begin);
        }
    }

    [[nodiscard]] std::optional<Chunk> try_acquire() override {
        if (prefetch_ && slot_) {
            m_prefetch_hits_->inc();
            const Chunk chunk = *slot_;
            slot_.reset();
            if (tracing_) {
                const double now = tracer_.now();
                tracer_.record(trace::EventKind::Prefetch, now, now, 1, chunk.start,
                               slot_fill_seconds_, level_);
            }
            fill_slot();
            return chunk;
        }
        const auto chunk = acquire_sync();
        if (prefetch_ && chunk) {
            m_prefetch_misses_->inc();
            if (tracing_) {
                // Miss: the slot was empty and the acquisition above ran on
                // the critical path.
                const double now = tracer_.now();
                tracer_.record(trace::EventKind::Prefetch, now, now, 0, chunk->start, 0.0,
                               level_);
            }
            fill_slot();
        }
        return chunk;
    }

private:
    /// The synchronous acquisition loop (the pre-prefetch try_acquire):
    /// pop, else refill from the parent, else run the termination
    /// protocol.
    [[nodiscard]] std::optional<Chunk> acquire_sync() {
        for (;;) {
            // Termination-spin coalescing: while the parent is exhausted
            // but peers are mid-refill, the rank polls; recording every
            // poll would flood the worker's event log, so the whole wait becomes
            // one BarrierWait event — and the per-poll LocalPop /
            // GlobalAcquire probes are muted.
            const bool record_probe = tracing_ && wait_start_ < 0.0;
            // Stage 2 first: the level queue may already hold sub-chunks.
            double pop_t0 = 0.0;
            double pop_wait = 0.0;
            if (tracing_) {
                pop_t0 = tracer_.now();
            }
            if (const auto sub = local_.try_pop(tracing_ ? &pop_wait : nullptr)) {
                m_pops_->inc();
                if (tracing_) {
                    close_wait(pop_t0);
                    // Every pop is a LocalPop at this level, its wait the
                    // access's contention (failed claims or lock grant); a pop
                    // that carved a sibling's shard (sharded relay) keeps
                    // its `stolen` flag on the returned chunk, and the
                    // *puller* one level down records it as the level's
                    // Steal — one acquire-side event per transfer.
                    tracer_.record(trace::EventKind::LocalPop, pop_t0, tracer_.now(),
                                   sub->begin, sub->end, pop_wait, level_);
                }
                return as_chunk(*sub);
            }
            if (record_probe) {
                tracer_.record(trace::EventKind::LocalPop, pop_t0, tracer_.now(), -1, -1,
                               pop_wait, level_);
            }
            // Queue drained: this rank happens to be the fastest — refill.
            local_.begin_refill();
            if (record_probe) {
                tracer_.instant(trace::EventKind::RefillBegin, tracer_.now(), 0, 0, level_);
            }
            if (before_refill_) {
                before_refill_();
            }
            const double acq_t0 = tracing_ ? tracer_.now() : 0.0;
            const auto par_t0 = clock_.now();
            if (const auto chunk = parent_.try_acquire()) {
                observe_parent_acquire(*chunk, par_t0);
                if (tracing_) {
                    close_wait(acq_t0);
                    tracer_.record(chunk->stolen ? trace::EventKind::Steal
                                                 : trace::EventKind::GlobalAcquire,
                                   acq_t0, tracer_.now(), chunk->start, chunk->size, 0.0,
                                   level_ - 1);
                }
                ++refills_;
                m_refills_->inc();
                double push_t0 = 0.0;
                double push_wait = 0.0;
                if (tracing_) {
                    push_t0 = tracer_.now();
                }
                const auto sub = local_.push_and_pop(chunk->start, chunk->size,
                                                     tracing_ ? &push_wait : nullptr);
                if (tracing_) {
                    tracer_.record(trace::EventKind::LocalPop, push_t0, tracer_.now(),
                                   sub ? sub->begin : -1, sub ? sub->end : -1, push_wait,
                                   level_);
                    tracer_.instant(trace::EventKind::RefillEnd, tracer_.now(), chunk->start,
                                    chunk->size, level_);
                }
                if (sub) {
                    m_pops_->inc();
                    return as_chunk(*sub);
                }
                continue;
            }
            if (record_probe) {
                tracer_.record(trace::EventKind::GlobalAcquire, acq_t0, tracer_.now(), 0, 0,
                               0.0, level_ - 1);
            }
            local_.end_refill();
            if (record_probe) {
                tracer_.instant(trace::EventKind::RefillEnd, tracer_.now(), 0, 0, level_);
            }
            // Parent exhausted. Terminate only when no peer is mid-refill
            // and nothing is left to pop, otherwise work could still appear.
            if (!local_.refills_in_flight() && !local_.has_pending()) {
                return std::nullopt;
            }
            if (tracing_ && wait_start_ < 0.0) {
                wait_start_ = tracer_.now();
            }
            metrics::rt().termination_spins->inc();
            std::this_thread::yield();
        }
    }

    /// Starts the next acquisition while the caller executes the chunk
    /// just returned (the double buffer's back side). One non-spinning
    /// pass: pop the level queue; on empty, refill from the parent — the
    /// in-flight announcement issued as a nonblocking window op
    /// (begin_refill_async) and completed before the parent is touched,
    /// per the termination protocol's ordering. Never blocks on peers: an
    /// empty parent simply leaves the slot empty (the next try_acquire
    /// falls back to the synchronous path, which owns the termination
    /// protocol). When the root is adaptive (wants_feedback) the refill
    /// boundary is NOT crossed: the next root decision must see the
    /// feedback of the chunk whose execution this prefetch would overlap,
    /// so only already-queued sub-chunks are prefetched and the refill
    /// stays synchronous, after the flush — feedback-flush ordering is
    /// exactly the synchronous run's.
    void fill_slot() {
        const double fill_t0 = tracing_ ? tracer_.now() : 0.0;
        double pop_wait = 0.0;
        if (const auto sub = local_.try_pop(tracing_ ? &pop_wait : nullptr)) {
            m_pops_->inc();
            if (tracing_) {
                tracer_.record(trace::EventKind::LocalPop, fill_t0, tracer_.now(), sub->begin,
                               sub->end, pop_wait, level_);
                slot_fill_seconds_ = tracer_.now() - fill_t0;
            }
            slot_ = as_chunk(*sub);
            return;
        }
        if (parent_.wants_feedback()) {
            return;  // adaptive root: the refill must follow the flush
        }
        // The announcement flies as a nonblocking op while the refill's
        // bookkeeping (trace marker, pre-acquire callback) runs; it must
        // only have *landed* before the parent is touched, per the
        // termination protocol's announce-before-parent ordering.
        auto announce = local_.begin_refill_async();
        if (tracing_) {
            tracer_.instant(trace::EventKind::RefillBegin, tracer_.now(), 0, 0, level_);
        }
        if (before_refill_) {
            before_refill_();
        }
        (void)announce.wait();
        const double acq_t0 = tracing_ ? tracer_.now() : 0.0;
        const auto par_t0 = clock_.now();
        if (const auto chunk = parent_.try_acquire()) {
            observe_parent_acquire(*chunk, par_t0);
            if (tracing_) {
                tracer_.record(chunk->stolen ? trace::EventKind::Steal
                                             : trace::EventKind::GlobalAcquire,
                               acq_t0, tracer_.now(), chunk->start, chunk->size, 0.0,
                               level_ - 1);
            }
            ++refills_;
            m_refills_->inc();
            double push_t0 = 0.0;
            double push_wait = 0.0;
            if (tracing_) {
                push_t0 = tracer_.now();
            }
            const auto sub = local_.push_and_pop(chunk->start, chunk->size,
                                                 tracing_ ? &push_wait : nullptr);
            if (tracing_) {
                tracer_.record(trace::EventKind::LocalPop, push_t0, tracer_.now(),
                               sub ? sub->begin : -1, sub ? sub->end : -1, push_wait, level_);
                tracer_.instant(trace::EventKind::RefillEnd, tracer_.now(), chunk->start,
                                chunk->size, level_);
                slot_fill_seconds_ = tracer_.now() - fill_t0;
            }
            if (sub) {
                m_pops_->inc();
                slot_ = as_chunk(*sub);
            }
            return;
        }
        if (tracing_) {
            tracer_.record(trace::EventKind::GlobalAcquire, acq_t0, tracer_.now(), 0, 0, 0.0,
                           level_ - 1);
        }
        local_.end_refill();
        if (tracing_) {
            tracer_.instant(trace::EventKind::RefillEnd, tracer_.now(), 0, 0, level_);
        }
    }

public:
    void report(std::int64_t iterations, double compute_seconds,
                double overhead_seconds) override {
        parent_.report(iterations, compute_seconds, overhead_seconds);
    }

    [[nodiscard]] bool wants_feedback() const noexcept override {
        return parent_.wants_feedback();
    }

    /// Sub-chunks handed out through this handle.
    [[nodiscard]] std::int64_t acquired() const noexcept override { return local_.popped(); }

    [[nodiscard]] dls::Technique technique() const noexcept override {
        return local_.technique();
    }

    /// This source's depth in the hierarchy (the root is 0).
    [[nodiscard]] int level() const noexcept { return level_; }

    /// True while the prefetch slot holds a chunk awaiting execution (the
    /// stall watchdog reports it as "outstanding prefetch").
    [[nodiscard]] bool has_prefetched() const noexcept { return slot_.has_value(); }

    /// Parent chunks this handle pulled down (the rank's refill count).
    [[nodiscard]] std::int64_t refills() const noexcept { return refills_; }

    /// Closes any open wait span and, when `terminate` is set, marks the
    /// worker's departure from the scheduling loop; call once per source
    /// after the final try_acquire() (Terminate only on the chain's top).
    void finish(bool terminate = true) {
        close_wait(tracer_.now());
        if (tracing_ && terminate) {
            tracer_.instant(trace::EventKind::Terminate, tracer_.now());
        }
    }

    /// Frees the whole chain: this level's queue, then the parent.
    void free() override {
        local_.free();
        parent_.free();
    }

private:
    [[nodiscard]] Chunk as_chunk(const LevelQueue::SubChunk& sub) const {
        // Lease before the chunk can reach the caller (or the prefetch
        // slot): from here on a dying owner's chunk is reclaimable.
        if (lease_board_ != nullptr) {
            lease_board_->lease(sub.begin, sub.end - sub.begin);
        }
        // The sub-chunk index doubles as this level's step id.
        return Chunk{sub.begin, sub.end - sub.begin, local_.popped() - 1, sub.stolen};
    }

    [[nodiscard]] static std::size_t midx(int level) noexcept {
        return static_cast<std::size_t>(metrics::RuntimeMetrics::level_index(level));
    }

    /// Successful parent acquisition: latency histogram plus the owned /
    /// stolen counter, all at the parent's level.
    void observe_parent_acquire(const Chunk& chunk, util::ChunkClock::time_point t0) noexcept {
        m_acquire_latency_->observe(
            static_cast<std::uint64_t>(util::elapsed(t0, clock_.now()).count()));
        (chunk.stolen ? m_steals_ : m_acquires_)->inc();
    }

    /// `end` is the start of the transaction that found work, so the wait
    /// span never overlaps the recorded LocalPop/GlobalAcquire epoch.
    void close_wait(double end) {
        if (tracing_ && wait_start_ >= 0.0) {
            tracer_.record(trace::EventKind::BarrierWait, wait_start_, end);
            wait_start_ = -1.0;
        }
    }

    LevelQueue& local_;
    WorkSource& parent_;
    trace::WorkerTracer& tracer_;
    /// Times parent acquisitions (durations only, so its base needs no
    /// start-line rebase). A clock of its own: the executor's clock then
    /// counts exactly the per-chunk stamps, while a termination spin's
    /// failed parent probes read this one.
    util::ChunkClock clock_;
    bool tracing_ = false;
    int level_ = 1;
    std::function<void()> before_refill_;
    std::int64_t refills_ = 0;
    double wait_start_ = -1.0;
    /// Double-buffered prefetching (set_prefetch): the slot holds the next
    /// chunk, acquired while the previous one executed; fill_seconds is
    /// the acquisition time the slot hid off the critical path (traced on
    /// the Prefetch hit event).
    bool prefetch_ = false;
    std::optional<Chunk> slot_;
    double slot_fill_seconds_ = 0.0;
    /// Fault-tolerance lease board (null = lease mode off; see
    /// set_lease_board).
    LeaseBoard* lease_board_ = nullptr;
    // Resolved metric handles (see constructor).
    metrics::Counter* m_pops_;
    metrics::Counter* m_refills_;
    metrics::Counter* m_acquires_;
    metrics::Counter* m_steals_;
    metrics::Histogram* m_acquire_latency_;
    metrics::Counter* m_prefetch_hits_;
    metrics::Counter* m_prefetch_misses_;
};

}  // namespace hdls::core
