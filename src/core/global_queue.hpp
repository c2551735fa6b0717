#pragma once
/// \file global_queue.hpp
/// The *global work queue* of the paper's Figure 1.
///
/// An RMA window hosted on rank 0 of a communicator holding the latest
/// scheduling step of the distributed chunk-calculation protocol (the
/// paper's ref [15]). Any rank obtains a chunk with one atomic fetch-and-op
/// and a purely local computation — no master process:
///
///     step       <- fetch_and_op(+1, window[kStep])
///     [start, e) <- dls::StepStarts::range(step)  // empty => loop exhausted
///
/// Ref [15] also keeps a shared scheduled-iterations counter and claims
/// `start` with a second fetch-and-op on it. Two ranks holding steps
/// s < s' can then commit their starts in either order, so *where* each
/// chunk lands depends on the interleaving. Deriving `start` from the step
/// (a closed form for SS, FSC and STATIC, else a per-rank running prefix
/// sum; steps only grow, so every rank sums each step at most once) yields
/// the same chunks as the serial order, makes the executed chunk multiset
/// a pure function of the configuration (replay parity), and saves one RMA
/// op per chunk.
///
/// The technique's "worker count" is the number of *level-1 schedulable
/// entities* — compute nodes for the paper's inter-node level — which is
/// why it is a constructor parameter independent of comm.size().

#include <cstdint>
#include <optional>

#include "core/inter_queue.hpp"
#include "dls/chunk_formulas.hpp"
#include "minimpi/minimpi.hpp"

namespace hdls::core {

class GlobalWorkQueue final : public InterQueue {
public:
    /// One level-1 chunk.
    using Chunk = InterQueue::Chunk;

    /// Collective over `comm`. `level_workers` is P in the chunk formulas
    /// (the paper uses the node count). Rank 0 hosts and zero-initializes
    /// the window; everyone leaves through a barrier.
    GlobalWorkQueue(const minimpi::Comm& comm, std::int64_t total_iterations,
                    dls::Technique technique, int level_workers, std::int64_t min_chunk)
        : comm_(comm), starts_(checked_starts(total_iterations, technique, level_workers,
                                              min_chunk)),
          technique_(technique) {
        window_ = minimpi::Window::allocate_shared(comm,
                                                   comm.rank() == 0 ? sizeof(std::int64_t) : 0);
        if (comm.rank() == 0) {
            window_.shared_span<std::int64_t>(0)[kStep] = 0;
        }
        window_.sync();
        comm_.barrier();
    }

    /// Acquires the next chunk, or std::nullopt once the loop is exhausted.
    [[nodiscard]] std::optional<Chunk> try_acquire() override {
        const std::int64_t step =
            window_.fetch_and_op<std::int64_t>(1, 0, kStep, minimpi::AccumulateOp::Sum);
        const auto range = starts_.range(step);
        if (range.begin >= range.end) {
            return std::nullopt;  // e.g. STATIC past its P chunks
        }
        ++acquired_;
        return Chunk{range.begin, range.end - range.begin, step};
    }

    /// Chunks acquired through *this* handle (per-rank statistic).
    [[nodiscard]] std::int64_t acquired() const noexcept override { return acquired_; }

    [[nodiscard]] dls::Technique technique() const noexcept override { return technique_; }

    /// Collective teardown.
    void free() override {
        comm_.barrier();
        window_.free();
    }

private:
    static constexpr std::size_t kStep = 0;

    [[nodiscard]] static dls::StepStarts checked_starts(std::int64_t total_iterations,
                                                        dls::Technique technique,
                                                        int level_workers,
                                                        std::int64_t min_chunk) {
        dls::LoopParams params;
        params.total_iterations = total_iterations;
        params.workers = level_workers;
        params.min_chunk = min_chunk;
        params.validate();
        if (!dls::supports_step_indexed(technique)) {
            throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                                 "GlobalWorkQueue: technique lacks a step-indexed form");
        }
        return {technique, params};
    }

    minimpi::Comm comm_;
    minimpi::Window window_;
    dls::StepStarts starts_;
    dls::Technique technique_;
    std::int64_t acquired_ = 0;
};

}  // namespace hdls::core
