#include "core/lease_board.hpp"

#include <algorithm>

#include "metrics/metrics.hpp"
#include "minimpi/backoff.hpp"

namespace hdls::core {

LeaseBoard::LeaseBoard(const minimpi::Comm& comm, double k, int slots,
                       util::ChunkClock* clock)
    : comm_(comm), clock_(clock != nullptr ? clock : &own_clock_), k_(k), slots_(slots) {
    if (slots < 1) {
        throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                             "LeaseBoard: slots must be >= 1");
    }
    if (!(k > 0.0)) {
        throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                             "LeaseBoard: deadline multiplier k must be > 0");
    }
    records_.resize(static_cast<std::size_t>(slots_));
    const std::size_t slot_bytes =
        static_cast<std::size_t>(slots_) * kSlotCells * sizeof(std::int64_t);
    window_ = minimpi::Window::allocate_shared(comm_, slot_bytes + kSignalBytes);
    own_ = window_.shared_span<std::int64_t>(comm_.rank());
    signal_ = window_.shared_span<std::uint32_t>(0).data() + slot_bytes / sizeof(std::uint32_t);
    // Every slot starts FREE at generation 0 and the signal words at 0;
    // written explicitly (the thread transport's arena is not guaranteed
    // zeroed) and published by the barrier below.
    for (int s = 0; s < slots_; ++s) {
        for (std::size_t c = 0; c < kSlotCells; ++c) {
            window_.atomic_write<std::int64_t>(0, comm_.rank(), cell(s, c));
        }
    }
    if (comm_.rank() == 0) {
        signal(kWaiters).store(0, std::memory_order_relaxed);
        signal(kEpoch).store(0, std::memory_order_relaxed);
    }
    window_.sync();
    comm_.barrier();
}

std::int64_t LeaseBoard::deadline_ns(Clock::time_point now) const noexcept {
    constexpr std::int64_t kFloorNs = 100'000'000;  // 100 ms
    const auto scaled = static_cast<std::int64_t>(k_ * ema_seconds_ * 1e9);
    return to_ns(now) + std::max(scaled, kFloorNs);
}

void LeaseBoard::lease(std::int64_t start, std::int64_t size) {
    const int me = comm_.rank();
    const Clock::time_point now = clock_->now();
    for (int s = 0; s < slots_; ++s) {
        Record& rec = records_[static_cast<std::size_t>(s)];
        if (rec.in_use) {
            continue;
        }
        const std::int64_t word = own_cell(s, kState).load(std::memory_order_acquire);
        if (state_of(word) != kFree) {
            // A fenced-out lease the claimer has not released yet; the
            // slot returns once the claimer's CAS lands.
            continue;
        }
        // Bounds and deadline first, as relaxed stores into the own
        // segment, then the publishing CAS: any rank that observes ACTIVE
        // observes them too (the CAS is acq_rel, every reader acquires).
        own_cell(s, kStart).store(start, std::memory_order_relaxed);
        own_cell(s, kSize).store(size, std::memory_order_relaxed);
        own_cell(s, kDeadline).store(deadline_ns(now), std::memory_order_relaxed);
        const std::int64_t next = pack(kActive, gen_of(word) + 1);
        if (window_.compare_and_swap<std::int64_t>(word, next, me, cell(s, kState)) != word) {
            continue;  // claimer released a sibling state concurrently; rescan
        }
        rec = Record{true, start, gen_of(word) + 1, now};
        metrics::rt().lease_acquires->inc();
        return;
    }
    throw minimpi::Error(minimpi::ErrorCode::Resource,
                         "LeaseBoard: no free lease slot (more outstanding chunks than "
                         "slots — executor bug)");
}

bool LeaseBoard::complete(std::int64_t start, Clock::time_point done) {
    const auto it = std::find_if(records_.begin(), records_.end(), [start](const Record& r) {
        return r.in_use && r.start == start;
    });
    if (it == records_.end()) {
        return true;  // not leased through this handle
    }
    it->in_use = false;
    const int slot = static_cast<int>(it - records_.begin());
    std::int64_t prev = pack(kActive, it->gen);
    if (!own_cell(slot, kState)
             .compare_exchange_strong(prev, pack(kFree, it->gen), std::memory_order_seq_cst)) {
        // A sweeper moved the lease to RECLAIMED(g) first: the fence is
        // lost, the execution must not be committed. The claimer's
        // RECLAIMED -> FREE CAS will release the slot.
        metrics::rt().lease_fence_losses->inc();
        return false;
    }
    if (signal(kWaiters).load(std::memory_order_seq_cst) != 0 && outstanding() == 0) {
        // This commit may have settled the board: if so, bump the epoch
        // the waiters poll.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (quiescent()) {
            signal(kEpoch).fetch_add(1, std::memory_order_release);
        }
    }
    const double took = util::elapsed_seconds(it->acquired, done);
    ema_seconds_ = ema_seconds_ == 0.0 ? took : 0.7 * ema_seconds_ + 0.3 * took;
    return true;
}

int LeaseBoard::sweep() {
    int reclaimed = 0;
    std::optional<std::int64_t> now;  // read once, on the first deadline compared
    for (int r = 0; r < comm_.size(); ++r) {
        if (r == comm_.rank() || !comm_.is_dead(r)) {
            continue;
        }
        for (int s = 0; s < slots_; ++s) {
            const std::int64_t word = window_.atomic_read<std::int64_t>(r, cell(s, kState));
            if (state_of(word) != kActive) {
                continue;
            }
            if (!now) {
                now = to_ns(clock_->now());
            }
            if (*now <= window_.atomic_read<std::int64_t>(r, cell(s, kDeadline))) {
                continue;  // a live claimer may still be executing it
            }
            const std::int64_t next = pack(kReclaimed, gen_of(word));
            if (window_.compare_and_swap<std::int64_t>(word, next, r, cell(s, kState)) ==
                word) {
                ++reclaimed;
                metrics::rt().lease_reclaims->inc();
            }
        }
    }
    return reclaimed;
}

std::optional<LeaseBoard::Reclaimed> LeaseBoard::claim_one() {
    for (int r = 0; r < comm_.size(); ++r) {
        for (int s = 0; s < slots_; ++s) {
            const std::int64_t word = window_.atomic_read<std::int64_t>(r, cell(s, kState));
            if (state_of(word) != kReclaimed) {
                continue;
            }
            const std::int64_t start = window_.atomic_read<std::int64_t>(r, cell(s, kStart));
            const std::int64_t size = window_.atomic_read<std::int64_t>(r, cell(s, kSize));
            const std::int64_t freed = pack(kFree, gen_of(word));
            if (window_.compare_and_swap<std::int64_t>(word, freed, r, cell(s, kState)) ==
                word) {
                return Reclaimed{start, size};  // single winner across survivors
            }
        }
    }
    return std::nullopt;
}

bool LeaseBoard::quiescent() const {
    for (int r = 0; r < comm_.size(); ++r) {
        for (int s = 0; s < slots_; ++s) {
            if (state_of(window_.atomic_read<std::int64_t>(r, cell(s, kState))) != kFree) {
                return false;
            }
        }
    }
    return true;
}

bool LeaseBoard::wait_quiescent(Clock::time_point until) {
    if (!waiting_) {
        waiting_ = true;
        signal(kWaiters).fetch_add(1, std::memory_order_seq_cst);
        // Orders the registration before every later board read: a commit
        // these reads miss is one whose committer sees the waiter.
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }
    // The epoch is read before the board, so a settling commit the board
    // read misses bumps it past `seen`.
    const std::uint32_t seen = signal(kEpoch).load(std::memory_order_acquire);
    if (quiescent()) {
        return true;
    }
    // Spin on the epoch's line, which stays in this core's cache until the
    // settling commit bumps it; the clock is read once per 64 pauses.
    while (Clock::now() < until) {
        for (int i = 0; i < 64; ++i) {
            if (signal(kEpoch).load(std::memory_order_acquire) != seen) {
                return quiescent();
            }
            minimpi::cpu_relax();
        }
    }
    return quiescent();
}

void LeaseBoard::abandon_all() noexcept {
    for (Record& rec : records_) {
        rec.in_use = false;
    }
}

int LeaseBoard::outstanding() const noexcept {
    return static_cast<int>(
        std::count_if(records_.begin(), records_.end(), [](const Record& r) { return r.in_use; }));
}

void LeaseBoard::free() {
    comm_.barrier();
    window_.free();
}

}  // namespace hdls::core
