#pragma once
/// \file mailbox.hpp
/// Internal: the per-rank message-queue *interface* that carries the
/// collectives. Each Transport supplies its own implementation (see
/// transport.hpp): the thread transport a mutex+condvar deque, the shm
/// transport a lock-word slot table inside the shared segment.
///
/// Every envelope belongs to one collective call: a receive matches
/// exactly on (communicator, source, phase, collective sequence number),
/// so concurrent collectives on different communicators, and successive
/// collectives on one communicator, never cross. A push completes as soon
/// as the envelope is enqueued; a transport with bounded buffering may
/// block the sender until the receiver drains a slot.
///
/// Abort contract: every potentially blocking entry point (push under
/// backpressure, match) takes the runtime's abort flag and must observe it
/// in bounded time, throwing ErrorCode::Aborted — a failing peer rank may
/// never produce the message a receiver is parked on.
///
/// Not part of the public API.

#include <atomic>
#include <cstdint>
#include <vector>

#include "minimpi/types.hpp"

namespace minimpi::detail {

/// A message in flight: one step of one collective. `phase` names the
/// step inside the algorithm (a barrier round); `cseq` disambiguates
/// successive collectives on the same communicator.
struct Envelope {
    std::uint64_t comm_id = 0;
    int src = 0;  ///< comm rank of the sender
    int phase = 0;
    std::uint64_t cseq = 0;
    std::vector<std::byte> payload;
};

/// What a collective receive waits for.
struct MatchSpec {
    std::uint64_t comm_id = 0;
    int src = 0;
    int phase = 0;
    std::uint64_t cseq = 0;

    [[nodiscard]] bool matches(const Envelope& e) const noexcept {
        return e.comm_id == comm_id && e.src == src && e.phase == phase && e.cseq == cseq;
    }
};

/// One mailbox per world rank; all communicators share it (envelopes carry
/// the communicator id).
class Mailbox {
public:
    virtual ~Mailbox() = default;

    /// Enqueue. A bounded-buffer transport may block until a slot frees;
    /// it must then poll `abort` and throw ErrorCode::Aborted rather than
    /// wait on a dead peer.
    virtual void push(Envelope e, const std::atomic<bool>& abort) = 0;

    /// Blocking matched pop. Polls the abort flag so a failing rank
    /// elsewhere unblocks this one instead of deadlocking the process.
    virtual Envelope match(const MatchSpec& spec, const std::atomic<bool>& abort) = 0;

    /// Wakes blocked receivers so they can observe the abort flag (a no-op
    /// for transports whose waits are polled).
    virtual void interrupt() = 0;
};

}  // namespace minimpi::detail
