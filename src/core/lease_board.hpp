#pragma once
/// \file lease_board.hpp
/// Lease-based chunk ownership with exactly-once reclamation — the fault
/// tolerance layer of the MPI+MPI executor (docs/fault-tolerance.md).
///
/// Every chunk a rank acquires is *leased* on a shared RMA window before
/// execution: a lease record (chunk bounds + a wall-clock deadline derived
/// from the owner's chunk-time EMA) written into one of the owner's board
/// slots. A rank whose transport heartbeat word goes stale past the
/// failure-detector timeout (minimpi::FailureDetector) is declared dead;
/// survivors then *reclaim* its expired leases and re-execute the chunks,
/// with a CAS protocol guaranteeing each lost chunk is re-executed by
/// exactly one survivor and each chunk's results are *committed* exactly
/// once even if a falsely-suspected owner finishes late.
///
/// Per-rank board layout (the rank's window segment): `slots` slots of
/// four std::int64_t cells each —
///
///   cell 0  state word: state in the low 2 bits, generation above
///   cell 1  chunk start
///   cell 2  chunk size
///   cell 3  lease deadline (steady-clock nanoseconds)
///
/// followed by one 64-byte line of drain signal words (used in rank 0's
/// segment only; see "Drain wake-up" below).
///
/// The slot state machine (gen = g throughout one occupancy; the
/// generation bumps only on FREE -> ACTIVE, so a recycled slot can never
/// satisfy a stale CAS — the ABA guard):
///
///   FREE(g)      --owner writes start/size/deadline, CAS-->  ACTIVE(g+1)
///   ACTIVE(g)    --owner completion fence, CAS-->            FREE(g)
///   ACTIVE(g)    --sweeper: owner dead && now > deadline-->  RECLAIMED(g)
///   RECLAIMED(g) --claimer (single CAS winner)-->            FREE(g)
///
/// Exactly-once rests on two CAS races with single winners:
///  * the *completion fence*: an owner commits its chunk only if
///    CAS ACTIVE(g) -> FREE(g) succeeds. A sweeper that already moved the
///    slot to RECLAIMED(g) wins the race instead, the owner observes the
///    loss and discards the execution (uncommitted) — a slow-but-alive
///    owner can therefore double-*execute* but never double-*commit*;
///  * the *claim*: survivors race CAS RECLAIMED(g) -> FREE(g); the single
///    winner re-leases the chunk into its own board and executes it.
///
/// Only the owner transitions its own FREE slots, so lease() needs no
/// cross-rank coordination. It stores start/size/deadline into its own
/// segment directly (relaxed std::atomic_ref stores through shared_span,
/// no window op) and then publishes them with the FREE -> ACTIVE CAS
/// (acq_rel): any rank that observes ACTIVE or RECLAIMED observes the
/// bounds too.
///
/// The owner's view of its leases is a fixed table, one record per slot,
/// sized at construction: lease() and complete() allocate nothing, and
/// complete() finds a record by scanning at most `slots` entries. Each
/// lease reads the clock once, for both the deadline and the record's
/// start stamp; complete() can take the caller's body-end stamp instead
/// of reading the clock again.
///
/// Deadlines are written and compared on the rank's util::ChunkClock —
/// the executor's per-chunk clock, whose stamps sit on the steady_clock
/// timeline — so one rank's deadline and another's sweep agree to within
/// microseconds, far below the 100 ms deadline floor. sweep() reads the
/// clock only when a dead owner holds an ACTIVE lease.
///
/// Drain wake-up: rank 0's segment ends in one cache line holding a
/// waiter count and a drain epoch. A rank waiting for the board to settle
/// (wait_quiescent) registers as a waiter once, then polls the epoch.
/// While a waiter is registered, a commit that leaves its rank with no
/// outstanding lease checks the board and, if it is quiescent, bumps the
/// epoch, so waiters leave right after the run's last commit. The commit
/// CAS and the waiter-count load are seq_cst, and a seq_cst fence
/// precedes both the committer's and the waiter's board read: of two
/// racing final commits one sees the other, and of a commit and a
/// registration either the committer sees the waiter or the waiter sees
/// the commit. The line is written once per waiter and once per settled
/// board, so a waiter's polls hit its own cache and a commit pays one
/// cached load more.
///
/// The board is transport-agnostic: it speaks only Window atomics and
/// shared-window addressing, so the same protocol runs over the threads
/// and shm substrates.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "minimpi/minimpi.hpp"
#include "util/chunk_clock.hpp"

namespace hdls::core {

class LeaseBoard {
public:
    using Clock = std::chrono::steady_clock;

    /// A chunk reclaimed from a dead owner, ready for re-execution.
    struct Reclaimed {
        std::int64_t start = 0;
        std::int64_t size = 0;
    };

    /// Collective over `comm` (one board segment per rank). `k` is the
    /// deadline multiplier: deadline = now + max(k x chunk-time EMA, a
    /// 100 ms floor). `slots` bounds the rank's concurrently outstanding
    /// leases (current chunk + prefetch slot use two; 8 leaves headroom).
    /// `clock` is the rank's chunk clock (must outlive the board); null
    /// gives the board a clock of its own.
    LeaseBoard(const minimpi::Comm& comm, double k, int slots = 8,
               util::ChunkClock* clock = nullptr);

    LeaseBoard(const LeaseBoard&) = delete;
    LeaseBoard& operator=(const LeaseBoard&) = delete;

    /// Leases [start, start + size) into one of the calling rank's free
    /// slots before execution. Throws minimpi::Error(Resource) if every
    /// slot is occupied (more outstanding chunks than `slots` — an
    /// executor bug, not a runtime condition).
    void lease(std::int64_t start, std::int64_t size);

    /// The completion fence: commits the lease acquired for `start`.
    /// Returns true when the CAS ACTIVE(g) -> FREE(g) won — the execution
    /// counts. Returns false when a sweeper reclaimed the lease first (the
    /// owner was suspected dead): the caller must treat the execution as
    /// uncommitted; the reclaiming survivor owns the chunk now. Unknown
    /// `start` (never leased through this handle) returns true. `done` is
    /// when the execution ended (the caller's body-end stamp); it feeds
    /// the chunk-time EMA.
    [[nodiscard]] bool complete(std::int64_t start, Clock::time_point done);
    [[nodiscard]] bool complete(std::int64_t start) { return complete(start, clock_->now()); }

    /// One detection round over *dead* ranks' boards: moves every ACTIVE
    /// lease of a dead owner whose deadline has passed to RECLAIMED.
    /// Returns the number of leases newly reclaimed by this call.
    int sweep();

    /// Claims one RECLAIMED lease anywhere on the board (single CAS
    /// winner across all survivors). The caller re-leases and re-executes
    /// the returned chunk. std::nullopt when nothing is claimable.
    [[nodiscard]] std::optional<Reclaimed> claim_one();

    /// True when every slot of every rank is FREE — no lease outstanding
    /// anywhere, i.e. every acquired chunk was committed exactly once.
    [[nodiscard]] bool quiescent() const;

    /// Returns quiescent() as soon as it holds, or at `until` (a deadline
    /// already past only checks). The first call registers this rank as a
    /// drain waiter; from then on the wait polls the drain epoch, which
    /// the commit that settles the board bumps, so the executor's drain
    /// leaves right after the run's last commit. The wait spins: a rank
    /// blocked in the kernel can resume milliseconds after its wake-up on
    /// a loaded host.
    [[nodiscard]] bool wait_quiescent(Clock::time_point until);

    /// Fail-stop: forgets every outstanding local lease WITHOUT touching
    /// the window — the slots stay ACTIVE for survivors to reclaim. The
    /// chaos seam (HDLS_CHAOS) calls this when killing a rank.
    void abandon_all() noexcept;

    /// Outstanding leases of this handle (telemetry/tests).
    [[nodiscard]] int outstanding() const noexcept;

    /// The chunk-time EMA feeding the deadline (0 before the first
    /// completion).
    [[nodiscard]] double ema_seconds() const noexcept { return ema_seconds_; }

    /// Slots per rank (layout introspection for tests).
    [[nodiscard]] int slots() const noexcept { return slots_; }

    /// Collective teardown.
    void free();

private:
    static constexpr std::size_t kState = 0;
    static constexpr std::size_t kStart = 1;
    static constexpr std::size_t kSize = 2;
    static constexpr std::size_t kDeadline = 3;
    static constexpr std::size_t kSlotCells = 4;

    /// The drain signal line (uint32 words, rank 0's segment, after the
    /// slots).
    static constexpr std::size_t kWaiters = 0;
    static constexpr std::size_t kEpoch = 1;
    static constexpr std::size_t kSignalBytes = 64;

    static constexpr std::int64_t kFree = 0;
    static constexpr std::int64_t kActive = 1;
    static constexpr std::int64_t kReclaimed = 2;

    [[nodiscard]] static constexpr std::int64_t pack(std::int64_t state,
                                                     std::int64_t gen) noexcept {
        return state | (gen << 2);
    }
    [[nodiscard]] static constexpr std::int64_t state_of(std::int64_t word) noexcept {
        return word & 3;
    }
    [[nodiscard]] static constexpr std::int64_t gen_of(std::int64_t word) noexcept {
        return word >> 2;
    }

    [[nodiscard]] std::size_t cell(int slot, std::size_t c) const noexcept {
        return static_cast<std::size_t>(slot) * kSlotCells + c;
    }

    /// A cell of this rank's own slot, for direct atomic access.
    [[nodiscard]] std::atomic_ref<std::int64_t> own_cell(int slot, std::size_t c) const noexcept {
        return std::atomic_ref<std::int64_t>(own_[cell(slot, c)]);
    }

    [[nodiscard]] std::atomic_ref<std::uint32_t> signal(std::size_t word) const noexcept {
        return std::atomic_ref<std::uint32_t>(signal_[word]);
    }

    [[nodiscard]] static std::int64_t to_ns(Clock::time_point t) noexcept {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
            .count();
    }

    /// deadline = now + max(k x EMA, the 100 ms floor). The floor keeps
    /// deadlines meaningful before the first completion seeds the EMA and
    /// under microsecond chunk bodies; reclamation additionally requires
    /// the owner to be *declared dead*, so a short deadline alone never
    /// reclaims a live owner's lease.
    [[nodiscard]] std::int64_t deadline_ns(Clock::time_point now) const noexcept;

    /// This handle's view of one of its own slots. A slot is reusable only
    /// once it is not `in_use` here *and* its window state is FREE again (a
    /// reclaimed slot stays unavailable until the claimer's CAS releases
    /// it).
    struct Record {
        bool in_use = false;
        std::int64_t start = 0;  ///< the leased chunk's start (unique within a run)
        std::int64_t gen = 0;
        Clock::time_point acquired{};
    };

    minimpi::Comm comm_;
    util::ChunkClock own_clock_;
    util::ChunkClock* clock_;  ///< the caller's clock, or own_clock_
    minimpi::Window window_;
    /// This rank's own board segment, addressed directly by lease().
    std::span<std::int64_t> own_;
    /// Rank 0's signal line, shared by every rank's handle.
    std::uint32_t* signal_ = nullptr;
    bool waiting_ = false;  ///< registered as a drain waiter
    double k_ = 8.0;
    int slots_ = 8;
    double ema_seconds_ = 0.0;
    std::vector<Record> records_;  ///< one per own slot, sized at construction
};

}  // namespace hdls::core
