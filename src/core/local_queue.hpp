#pragma once
/// \file local_queue.hpp
/// The *local (node-level) work queue* of the paper's Figure 1 —
/// generalized to serve any non-root level of a topology tree.
///
/// One MPI_Win_allocate_shared window per group (hosted by group rank 0,
/// directly addressable by every rank of the group communicator) holding a
/// small ring of parent-level chunks and one packed cursor word
/// (seq << kStepBits | step): the head chunk's monotone index and this
/// level's next scheduling step within it. The paper wraps every access
/// in an exclusive MPI_Win_lock epoch, and its evaluation blames that
/// lock polling for MPI+MPI's weak intra-node SS. Here only a push opens
/// an epoch. A pop is lock-free: it derives the sub-chunk of `step` from
/// the step index alone (dls::StepStarts, the distributed chunk
/// calculation) and claims it with one MPI_Compare_and_swap on the
/// cursor.
///
/// Why a compare-and-swap and not a fetch-and-add: a successful CAS
/// proves that chunk `seq` was still the head when the step was claimed,
/// so its ring slot had not been recycled (a push may reuse the slot of
/// chunk seq only for seq + capacity, once the cursor is past seq). A
/// fetch-and-add would claim the step before the claimant read the slot;
/// a rank delayed in between could find the slot reused and lose the step.
///
/// The refill protocol implements the paper's "the fastest MPI process
/// always takes this responsibility": no designated refiller exists; a rank
/// that finds the queue empty announces an in-flight refill (atomic
/// counter), fetches a chunk from the parent level, and appends it. Ranks
/// terminate only when the parent is exhausted, the queue is drained *and*
/// no refill is in flight.
///
/// LevelQueue is the abstract face of this protocol: ComposedWorkSource
/// (work_source.hpp) drives any implementation at any depth. Two exist —
/// NodeWorkQueue here (the centralized shared FIFO) and ShardedRelayQueue
/// (sharded_relay.hpp: per-child shards of every arriving chunk with
/// work stealing between children).

#include <chrono>
#include <cstdint>
#include <optional>

#include "dls/chunk_formulas.hpp"
#include "minimpi/minimpi.hpp"

namespace hdls::core {

/// A non-root level's relay queue: receives parent-level chunks and hands
/// out sub-chunks sliced by this level's technique among its children.
class LevelQueue {
public:
    /// One sub-chunk: execute (or pass down) [begin, end). `stolen` marks
    /// a share carved from a sibling child's shard (sharded relay only).
    struct SubChunk {
        std::int64_t begin = 0;
        std::int64_t end = 0;
        bool stolen = false;
    };

    virtual ~LevelQueue() = default;

    /// Grabs a sub-chunk already queued at this level, or std::nullopt
    /// when no chunk currently holds unassigned work. When `wait_s` is
    /// non-null it receives the access's contention time: the lock-grant
    /// latency of an epoch, or the time spent in failed claim attempts of
    /// a lock-free pop (0 when the first attempt lands).
    [[nodiscard]] virtual std::optional<SubChunk> try_pop(double* wait_s) = 0;

    /// Announce an in-flight refill *before* touching the parent level so
    /// peers do not terminate while a chunk is on its way.
    virtual void begin_refill() = 0;

    /// Nonblocking begin_refill(): posts the in-flight announcement as a
    /// request-based window op (Window::start_atomic_update) and returns
    /// the handle. The caller must complete it — wait() — before touching
    /// the parent level (the announcement-precedes-parent ordering of the
    /// termination protocol), but may overlap anything else first; that is
    /// the prefetcher's issue path. The default falls back to the blocking
    /// announcement and returns an already-complete request.
    [[nodiscard]] virtual minimpi::AtomicUpdateRequest<std::int64_t> begin_refill_async() {
        begin_refill();
        return {};
    }

    /// Withdraw the announcement (the parent turned out to be empty).
    virtual void end_refill() = 0;

    /// Append a fresh parent chunk and immediately pop a sub-chunk for the
    /// caller, then withdraw the in-flight announcement (on every exit
    /// path, including throws). `wait_s` as for try_pop, summed over the
    /// push epoch and the pop.
    [[nodiscard]] virtual std::optional<SubChunk> push_and_pop(std::int64_t start,
                                                               std::int64_t size,
                                                               double* wait_s) = 0;

    /// True while any queued chunk still has unassigned iterations.
    [[nodiscard]] virtual bool has_pending() = 0;

    /// True while some rank is between begin_refill() and its completion.
    [[nodiscard]] virtual bool refills_in_flight() = 0;

    /// Sub-chunks popped through this handle (per-rank statistic).
    [[nodiscard]] virtual std::int64_t popped() const noexcept = 0;

    /// The technique slicing this level's chunks.
    [[nodiscard]] virtual dls::Technique technique() const noexcept = 0;

    /// Collective teardown over the level's communicator.
    virtual void free() = 0;
};

class NodeWorkQueue final : public LevelQueue {
public:
    using SubChunk = LevelQueue::SubChunk;

    /// Collective over the level communicator (split_type(Shared) for the
    /// leaf level, a plain split for interior levels). `technique` must
    /// have a step-indexed form. `level_workers` is P in its formulas —
    /// the number of schedulable children at this level; 0 (the default)
    /// means the communicator size, the paper's leaf-level convention.
    NodeWorkQueue(const minimpi::Comm& comm, dls::Technique technique, std::int64_t min_chunk,
                  int level_workers = 0)
        : comm_(comm),
          level_workers_(level_workers > 0 ? level_workers : comm.size()),
          capacity_(comm.size() + 4) {
        if (!dls::supports_step_indexed(technique)) {
            throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                                 "NodeWorkQueue: technique lacks a step-indexed form");
        }
        technique_ = technique;
        min_chunk_ = min_chunk;
        const std::size_t cells = kSlotBase + kSlotFields * static_cast<std::size_t>(capacity_);
        window_ = minimpi::Window::allocate_shared(
            comm, comm.rank() == 0 ? cells * sizeof(std::int64_t) : 0);
        if (comm.rank() == 0) {
            auto mem = window_.shared_span<std::int64_t>(0);
            for (auto& v : mem) {
                v = 0;
            }
            for (std::int64_t i = 0; i < capacity_; ++i) {
                mem[slot_cell(i) + kTag] = -1;  // no chunk yet
            }
        }
        window_.sync();
        comm_.barrier();
    }

    /// Stage 2 of the paper's protocol: grab a sub-chunk from the queue
    /// with one compare-and-swap on the cursor (no epoch). Returns
    /// std::nullopt when no chunk currently holds unassigned work. When
    /// `wait_s` is non-null it receives the seconds spent in failed claim
    /// attempts (0 when the first compare-and-swap lands).
    [[nodiscard]] std::optional<SubChunk> try_pop(double* wait_s = nullptr) override {
        if (wait_s == nullptr) {
            return claim(nullptr);
        }
        const auto t0 = std::chrono::steady_clock::now();
        auto failed_until = t0;
        const auto sub = claim(&failed_until);
        *wait_s = std::chrono::duration<double>(failed_until - t0).count();
        return sub;
    }

    /// Announce an in-flight refill *before* touching the parent level so
    /// peers do not terminate while a chunk is on its way.
    void begin_refill() override {
        (void)window_.fetch_and_op<std::int64_t>(1, kHost, kInflight,
                                                 minimpi::AccumulateOp::Sum);
    }

    /// The announcement as a nonblocking window op (the prefetch issue
    /// path): +1 on the in-flight counter, completed via the request.
    [[nodiscard]] minimpi::AtomicUpdateRequest<std::int64_t> begin_refill_async() override {
        return window_.start_atomic_update<std::int64_t>(
            kHost, kInflight, [](std::int64_t v) { return v + 1; });
    }

    /// Withdraw the announcement (the parent turned out to be empty).
    void end_refill() override {
        (void)window_.fetch_and_op<std::int64_t>(-1, kHost, kInflight,
                                                 minimpi::AccumulateOp::Sum);
    }

    /// Stage 1+2 combined: append a fresh parent chunk inside one exclusive
    /// epoch, pop a sub-chunk through the lock-free path, then withdraw the
    /// in-flight announcement. The announcement is released on *every*
    /// exit path, including the throws (a chunk whose step count does not
    /// fit the cursor's step field, a full ring) — leaving it raised would
    /// keep kInflight > 0 forever and spin every peer rank in the
    /// termination protocol. `wait_s` receives the epoch's lock-grant
    /// latency plus the pop's failed-claim time.
    [[nodiscard]] std::optional<SubChunk> push_and_pop(std::int64_t start, std::int64_t size,
                                                       double* wait_s = nullptr) override {
        const RefillAnnouncementGuard release(*this);
        if (size > kStepMask && slicing(size).start(kStepMask) < size) {
            throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                                 "NodeWorkQueue: chunk has more sub-chunks than the cursor's "
                                 "step field can count");
        }
        const auto t0 = std::chrono::steady_clock::now();
        window_.lock(minimpi::LockType::Exclusive, kHost);
        const auto granted = std::chrono::steady_clock::now();
        const std::int64_t tail = window_.atomic_read<std::int64_t>(kHost, kTail);
        const std::int64_t head = window_.atomic_read<std::int64_t>(kHost, kCursor) >> kStepBits;
        if (tail - head >= capacity_) {
            window_.unlock(kHost);
            throw minimpi::Error(minimpi::ErrorCode::Internal,
                                 "NodeWorkQueue: queue capacity exceeded");
        }
        if (tail >= kSeqLimit) {
            window_.unlock(kHost);
            throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                                 "NodeWorkQueue: more chunks than the cursor's seq field can "
                                 "count");
        }
        // The tag goes invalid first and valid last, so a reader that sees
        // the same tag before and after its field reads read this chunk.
        const std::size_t slot = slot_cell(tail);
        window_.atomic_write<std::int64_t>(-1, kHost, slot + kTag);
        window_.atomic_write<std::int64_t>(start, kHost, slot + kChunkStart);
        window_.atomic_write<std::int64_t>(size, kHost, slot + kChunkSize);
        window_.atomic_write<std::int64_t>(tail, kHost, slot + kTag);
        window_.atomic_write<std::int64_t>(tail + 1, kHost, kTail);
        window_.unlock(kHost);
        known_tail_ = tail + 1;
        double pop_wait = 0.0;
        const auto sub = try_pop(wait_s != nullptr ? &pop_wait : nullptr);
        if (wait_s != nullptr) {
            *wait_s = std::chrono::duration<double>(granted - t0).count() + pop_wait;
        }
        return sub;
    }

    /// True while any chunk in the queue still has unassigned iterations.
    /// Reads the cursor, the tail and the head chunk without an epoch.
    [[nodiscard]] bool has_pending() override {
        const std::int64_t cursor = window_.atomic_read<std::int64_t>(kHost, kCursor);
        const std::int64_t seq = cursor >> kStepBits;
        known_tail_ = window_.atomic_read<std::int64_t>(kHost, kTail);
        if (seq >= known_tail_) {
            return false;
        }
        if (seq + 1 < known_tail_ || !load_head(seq)) {
            return true;  // a later chunk exists, or the cursor moved on: look again
        }
        return head_.steps.start(cursor & kStepMask) < head_.size;
    }

    /// True while some rank is between begin_refill() and its completion.
    [[nodiscard]] bool refills_in_flight() override {
        return window_.atomic_read<std::int64_t>(kHost, kInflight) > 0;
    }

    /// Sub-chunks popped through this handle (per-rank statistic).
    [[nodiscard]] std::int64_t popped() const noexcept override { return popped_; }

    /// The technique slicing the queued chunks.
    [[nodiscard]] dls::Technique technique() const noexcept override { return technique_; }

    /// Collective teardown.
    void free() override {
        comm_.barrier();
        window_.free();
    }

private:
    /// Scope guard pairing begin_refill() with end_refill() across every
    /// exit path of a refill completion (normal return and throw alike).
    class RefillAnnouncementGuard {
    public:
        explicit RefillAnnouncementGuard(NodeWorkQueue& queue) noexcept : queue_(queue) {}
        ~RefillAnnouncementGuard() { queue_.end_refill(); }
        RefillAnnouncementGuard(const RefillAnnouncementGuard&) = delete;
        RefillAnnouncementGuard& operator=(const RefillAnnouncementGuard&) = delete;

    private:
        NodeWorkQueue& queue_;
    };

    /// The head chunk as this rank last read it: its immutable ring fields
    /// and the slicing of its steps, cached per seq.
    struct Head {
        std::int64_t seq = -1;
        std::int64_t start = 0;
        std::int64_t size = 0;
        dls::StepStarts steps{dls::Technique::SS, dls::LoopParams{}};
    };

    static constexpr int kHost = 0;  // group rank hosting the queue memory
    // The cursor is claimed on every pop; it has a cache line to itself.
    static constexpr std::size_t kCursor = 0;
    static constexpr std::size_t kTail = 8;
    static constexpr std::size_t kInflight = 9;
    static constexpr std::size_t kSlotBase = 16;
    static constexpr std::size_t kSlotFields = 4;  // the fourth cell keeps slots aligned
    static constexpr std::size_t kTag = 0;         // seq of the chunk held; -1 while written
    static constexpr std::size_t kChunkStart = 1;
    static constexpr std::size_t kChunkSize = 2;
    static constexpr int kStepBits = 32;
    static constexpr std::int64_t kStepMask = (std::int64_t{1} << kStepBits) - 1;
    static constexpr std::int64_t kSeqLimit = std::int64_t{1} << (63 - kStepBits);

    [[nodiscard]] std::size_t slot_cell(std::int64_t seq) const noexcept {
        return kSlotBase + kSlotFields * static_cast<std::size_t>(seq % capacity_);
    }

    /// This level's slicing of a parent chunk of `size` iterations.
    [[nodiscard]] dls::StepStarts slicing(std::int64_t size) const {
        dls::LoopParams p;
        p.total_iterations = size;
        p.workers = level_workers_;
        p.min_chunk = min_chunk_;
        return {technique_, p};
    }

    /// Makes head_ describe chunk `seq`. False when its slot no longer (or
    /// not yet) holds it: the tag is checked before and after the field
    /// reads, and a push invalidates the tag before rewriting the fields.
    [[nodiscard]] bool load_head(std::int64_t seq) {
        if (head_.seq == seq) {
            return true;
        }
        const std::size_t slot = slot_cell(seq);
        if (window_.atomic_read<std::int64_t>(kHost, slot + kTag) != seq) {
            return false;
        }
        const std::int64_t start = window_.atomic_read<std::int64_t>(kHost, slot + kChunkStart);
        const std::int64_t size = window_.atomic_read<std::int64_t>(kHost, slot + kChunkSize);
        if (window_.atomic_read<std::int64_t>(kHost, slot + kTag) != seq) {
            return false;
        }
        head_ = Head{seq, start, size, slicing(size)};
        return true;
    }

    /// True when chunk `seq` has been published (refreshes the cached tail
    /// only when the cached one does not already prove it).
    [[nodiscard]] bool published(std::int64_t seq) {
        if (seq < known_tail_) {
            return true;
        }
        known_tail_ = window_.atomic_read<std::int64_t>(kHost, kTail);
        return seq < known_tail_;
    }

    /// The pop: claims the cursor's step with one compare-and-swap, moving
    /// the cursor to the next chunk first when the head is exhausted. Every
    /// failed attempt counts a hdls_window_cas_retries_total, polls the
    /// runtime abort flag (a pop never spins past a peer failure) and, when
    /// `failed_until` is non-null, stamps the time it ended.
    [[nodiscard]] std::optional<SubChunk> claim(
        std::chrono::steady_clock::time_point* failed_until) {
        for (;;) {
            const std::int64_t cursor = window_.atomic_read<std::int64_t>(kHost, kCursor);
            const std::int64_t seq = cursor >> kStepBits;
            if (!published(seq)) {
                return std::nullopt;  // nothing pushed yet
            }
            if (load_head(seq)) {
                const auto range = head_.steps.range(cursor & kStepMask);
                const bool exhausted = range.begin >= head_.size;
                if (exhausted && !published(seq + 1)) {
                    return std::nullopt;
                }
                const std::int64_t next = exhausted ? (seq + 1) << kStepBits : cursor + 1;
                if (window_.compare_and_swap<std::int64_t>(cursor, next, kHost, kCursor) ==
                    cursor) {
                    if (exhausted) {
                        continue;  // the next chunk is the head now
                    }
                    ++popped_;
                    return SubChunk{head_.start + range.begin, head_.start + range.end, false};
                }
                metrics::rt().window_cas_retries->inc();
            }
            // Lost the race (or the cursor moved past seq meanwhile).
            comm_.poll_abort();
            if (failed_until != nullptr) {
                *failed_until = std::chrono::steady_clock::now();
            }
        }
    }

    minimpi::Comm comm_;
    minimpi::Window window_;
    dls::Technique technique_{};
    std::int64_t min_chunk_ = 1;
    int level_workers_ = 0;
    std::int64_t capacity_ = 0;
    std::int64_t popped_ = 0;
    std::int64_t known_tail_ = 0;  // a tail this rank has seen; tails only grow
    Head head_;
};

}  // namespace hdls::core
