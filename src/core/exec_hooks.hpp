#pragma once
/// \file exec_hooks.hpp
/// ChunkGate: the multi-tenancy seam threaded from run_hierarchical into
/// the rank executors. A gate sits between chunk *acquisition* and chunk
/// *execution*: after a rank pulls a chunk off its WorkSource chain it
/// must pass begin_chunk() before running the body, and calls end_chunk()
/// when the body returns. The JobService's SlotGovernor implements this to
/// enforce weighted-fair slot sharing across concurrent jobs. Gating
/// deliberately happens *after* try_acquire: the refill/termination
/// protocol inside the chain must never block on another job's slot, or a
/// rank holding a job's last slot could deadlock the peer whose refill it
/// is waiting on.

#include <cstdint>

namespace hdls::core {

/// Admission gate around the execution of one acquired chunk.
/// Implementations must be safe to call concurrently from every rank of
/// the run (begin_chunk may block).
class ChunkGate {
public:
    virtual ~ChunkGate() = default;

    /// Called by rank `rank` after acquiring a chunk, before executing it.
    /// May block until capacity is available. Returns false to cancel the
    /// run: the rank drops the acquired chunk unexecuted and exits its
    /// acquire loop (in-flight chunks of other ranks still complete).
    [[nodiscard]] virtual bool begin_chunk(int rank) = 0;

    /// Called after the chunk's body returned; releases the capacity taken
    /// by begin_chunk and reports the progress made.
    virtual void end_chunk(int rank, std::int64_t iterations) = 0;
};

}  // namespace hdls::core
