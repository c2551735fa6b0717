#pragma once
/// \file transport_shm.hpp
/// Internal: the POSIX shared-memory transport — the paper's
/// MPI_Win_allocate_shared model made literal. One shm_open + mmap segment
/// per Runtime::run holds *everything* the ranks exchange:
///
///   [ control block | mailbox 0 | mailbox 1 | ... | window arena ]
///
///  * Mailboxes are fixed-capacity slot tables (kShmMailboxSlots slots of
///    kShmMaxPayload inline payload bytes; bigger messages chain
///    continuation slots) ordered by an index-linked list, guarded by one
///    exclusive lock word per mailbox. push blocks under backpressure
///    (bounded buffering); match is a polled scan on the Backoff ladder.
///    Both observe the abort flag in bounded time.
///  * Windows are carved from the arena by an atomic bump allocator in the
///    control block: per-rank lock *words* (one cache line each — the
///    futex-or-polled words real passive-target implementations use over
///    network RMA) followed by the 64-byte-aligned segments. The arena is
///    not reclaimed on Window::free — each run maps a fresh segment, so a
///    run would need to allocate kShmWindowArenaBytes of *live* windows to
///    hit ErrorCode::Resource.
///
/// The layout is process-independent: byte offsets and lock words only, no
/// heap pointers, std::atomic / std::atomic_ref on lock-free cells. Rank
/// launch is still thread-based (see transport.hpp); the segment is
/// shm_unlink'ed right after mmap so an aborted process leaks nothing.
///
/// Not part of the public API.

#include <optional>

#include "minimpi/transport.hpp"

namespace minimpi::detail {

/// Per-mailbox slot count; a sender whose destination has all slots in
/// flight blocks (polling abort) until the receiver drains one.
inline constexpr std::size_t kShmMailboxSlots = 256;
/// Inline payload bytes of one slot. Every collective the scheduling core
/// runs moves tens of bytes (one slot); a larger message chains continuation
/// slots, up to the whole slot table (kShmMailboxSlots * kShmMaxPayload
/// bytes) before throwing ErrorCode::Resource with a one-line hint.
inline constexpr std::size_t kShmMaxPayload = 4096;
/// Window arena capacity (virtual; tmpfs commits only touched pages).
inline constexpr std::size_t kShmWindowArenaBytes = std::size_t{64} << 20;

struct ShmControl;
struct ShmMailboxShared;

/// Owner of the mmap'ed segment (creation side: shm_open + ftruncate +
/// mmap + immediate shm_unlink).
class ShmSegment {
public:
    explicit ShmSegment(std::size_t bytes);
    ~ShmSegment();
    ShmSegment(const ShmSegment&) = delete;
    ShmSegment& operator=(const ShmSegment&) = delete;

    [[nodiscard]] std::byte* data() noexcept { return data_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

private:
    std::byte* data_ = nullptr;
    std::size_t size_ = 0;
};

/// Handle over one rank's slot table inside the segment.
class ShmMailbox final : public Mailbox {
public:
    explicit ShmMailbox(ShmMailboxShared* shared) : sh_(shared) {}

    void push(Envelope e, const std::atomic<bool>& abort) override;
    Envelope match(const MatchSpec& spec, const std::atomic<bool>& abort) override;
    void interrupt() override;  // waits are polled: nothing to wake

private:
    /// One locked scan: pops the matching envelope if it is queued.
    std::optional<Envelope> try_match(const MatchSpec& spec);

    ShmMailboxShared* sh_;
};

/// Lock words + segments inside the window arena. Holds a share of the
/// segment mapping: a Window handle (and thus its storage) may outlive
/// the Transport — e.g. survive Runtime::run unwinding — and must still
/// be able to release epochs without touching unmapped memory.
class ShmWindowStorage final : public WindowStorage {
public:
    /// `offset` points at `ranks` 64-byte lock-word lines followed by the
    /// data segments, inside `segment`.
    ShmWindowStorage(std::shared_ptr<ShmSegment> segment, std::size_t offset, int ranks);

    [[nodiscard]] std::byte* base() noexcept override { return data_; }
    [[nodiscard]] bool try_lock(int rank, LockType type) noexcept override;
    void unlock(int rank, LockType type) noexcept override;

private:
    std::shared_ptr<ShmSegment> segment_;
    std::byte* words_;
    std::byte* data_;
};

class ShmTransport final : public Transport {
public:
    explicit ShmTransport(int world_size);

    [[nodiscard]] TransportKind kind() const noexcept override { return TransportKind::Shm; }
    [[nodiscard]] Mailbox& mailbox(int world_rank) noexcept override {
        return *mailboxes_[static_cast<std::size_t>(world_rank)];
    }
    [[nodiscard]] std::unique_ptr<WindowStorage> allocate_window(std::size_t total_bytes,
                                                                 int ranks) override;
    void signal_abort() noexcept override;

    void beat(int world_rank) noexcept override;
    [[nodiscard]] std::uint64_t heartbeat(int world_rank) noexcept override;
    void mark_dead(int world_rank) noexcept override;
    [[nodiscard]] bool is_dead(int world_rank) noexcept override;

private:
    std::shared_ptr<ShmSegment> segment_;
    ShmControl* control_ = nullptr;
    /// Per-rank liveness lines inside the segment, right after the control
    /// block (a peer process mapping the segment observes heartbeats and
    /// the dead set exactly like the in-process ranks do).
    std::byte* live_ = nullptr;
    std::vector<std::unique_ptr<ShmMailbox>> mailboxes_;
};

}  // namespace minimpi::detail
