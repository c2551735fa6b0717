#pragma once
/// \file exec_hooks.hpp
/// ChunkGate: a hook threaded from run_hierarchical into the rank
/// executors. A gate sits between chunk *acquisition* and chunk
/// *execution*: after a rank pulls a chunk off its WorkSource chain it
/// must pass begin_chunk() before running the body, and calls end_chunk()
/// when the body returns. Benchmarks use it to time each chunk's span;
/// tests use a refusing gate to end a run early. Gating deliberately
/// happens *after* try_acquire: the refill/termination protocol inside the
/// chain must never block on the gate, or a rank waiting in begin_chunk
/// could deadlock the peer whose refill it owes.

#include <cstdint>

namespace hdls::core {

/// Gate around the execution of one acquired chunk. Implementations must
/// be safe to call concurrently from every rank of the run (begin_chunk
/// may block).
class ChunkGate {
public:
    virtual ~ChunkGate() = default;

    /// Called by rank `rank` after acquiring a chunk, before executing it.
    /// May block. Returns false to stop the rank: it drops the acquired
    /// chunk unexecuted and exits its acquire loop (in-flight chunks of
    /// other ranks still complete).
    [[nodiscard]] virtual bool begin_chunk(int rank) = 0;

    /// Called after the chunk's body returned, with the chunk's iteration
    /// count.
    virtual void end_chunk(int rank, std::int64_t iterations) = 0;
};

}  // namespace hdls::core
