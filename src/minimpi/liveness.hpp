#pragma once
/// \file liveness.hpp
/// Heartbeat-based failure detection over the transport's per-rank
/// liveness words (Transport::beat / heartbeat / mark_dead).
///
/// Every rank bumps its own heartbeat counter at chunk boundaries (the
/// executors call Comm::beat once per executed chunk and once per wait-loop
/// round). A FailureDetector caches, per peer, the last counter value it
/// observed and when it first observed it; a peer whose counter has not
/// moved for longer than `timeout` is declared dead via Comm::mark_dead —
/// sticky, transport-wide, so every rank's detector and the lease layer
/// (core::LeaseBoard) agree on membership without extra consensus rounds.
///
/// Beats are per chunk, polls are not: peers rewrite their heartbeat
/// words every chunk, so every poll() misses in cache once per peer. The
/// MPI+MPI executor polls at most once per `timeout / 16`, in the loop and
/// in its reclamation drain alike, which delays a declaration by at most
/// that much.
///
/// The detector is deliberately *suspicion-based*: a slow-but-alive rank
/// that stops beating long enough WILL be declared dead. Safety does not
/// rest here — the lease layer's completion fence guarantees exactly-once
/// commitment even when a falsely-suspected owner finishes late (see
/// docs/fault-tolerance.md).

#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "minimpi/comm.hpp"

namespace minimpi {

class FailureDetector {
public:
    using Clock = std::chrono::steady_clock;
    /// The time source poll() reads; tests pass a fake one.
    using Now = std::function<Clock::time_point()>;

    /// `timeout`: how long a peer's heartbeat word may stay unchanged
    /// before the peer is declared dead. Must comfortably exceed the
    /// longest chunk body plus scheduling gaps (HDLS_HEARTBEAT_TIMEOUT_MS;
    /// the lease deadline — k x the chunk-time EMA — bounds the damage of
    /// a too-tight choice to a fenced double *attempt*, never a double
    /// commit). `now` is the clock poll() reads, steady_clock by default.
    FailureDetector(Comm comm, std::chrono::nanoseconds timeout, Now now = &Clock::now)
        : comm_(std::move(comm)),
          timeout_(timeout),
          now_(std::move(now)),
          seen_(static_cast<std::size_t>(comm_.size())) {}

    /// One detection round: re-reads every peer's heartbeat word and marks
    /// peers stale past the timeout dead. Returns the number of peers
    /// *newly* declared dead by this call. O(ranks) atomic reads of words
    /// peers keep rewriting — cheap at a timed cadence, too dear per chunk.
    int poll() {
        const Clock::time_point now = now_();
        int newly_dead = 0;
        for (int r = 0; r < comm_.size(); ++r) {
            if (r == comm_.rank() || comm_.is_dead(r)) {
                continue;
            }
            Seen& s = seen_[static_cast<std::size_t>(r)];
            const std::uint64_t beats = comm_.heartbeat_of(r);
            if (!s.valid || beats != s.value) {
                s.value = beats;
                s.first = now;
                s.valid = true;
                continue;
            }
            if (now - s.first > timeout_) {
                comm_.mark_dead(r);
                ++newly_dead;
            }
        }
        return newly_dead;
    }

    [[nodiscard]] bool is_dead(int rank) const { return comm_.is_dead(rank); }
    [[nodiscard]] int alive() const { return comm_.alive(); }
    [[nodiscard]] std::chrono::nanoseconds timeout() const noexcept { return timeout_; }

private:
    struct Seen {
        std::uint64_t value = 0;
        Clock::time_point first{};
        bool valid = false;
    };

    Comm comm_;
    std::chrono::nanoseconds timeout_;
    Now now_;
    std::vector<Seen> seen_;
};

}  // namespace minimpi
