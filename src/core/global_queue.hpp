#pragma once
/// \file global_queue.hpp
/// The *global work queue* of the paper's Figure 1.
///
/// An RMA window hosted on rank 0 of a communicator holding the latest
/// scheduling step of the distributed chunk-calculation protocol (the
/// paper's ref [15]). Any rank obtains a chunk with one atomic fetch-and-op
/// and a purely local computation — no master process:
///
///     step  <- fetch_and_op(+1, window[kStep])
///     hint  <- chunk_size_for_step(technique, params, step)
///     start <- sum of chunk_size_for_step(technique, params, s) for s < step
///     size  <- min(hint, N - start)        // size <= 0 => loop exhausted
///
/// Ref [15] also keeps a shared scheduled-iterations counter and claims
/// `start` with a second fetch-and-op on it. Two ranks holding steps
/// s < s' can then commit their starts in either order, so *where* each
/// chunk lands depends on the interleaving. Deriving `start` from the step
/// (a per-rank running prefix sum; steps only grow, so every rank sums
/// each step at most once) yields the same chunks as the serial order,
/// makes the executed chunk multiset a pure function of the configuration
/// (replay parity), and saves one RMA op per chunk.
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
        : comm_(comm), total_(total_iterations) {
        params_.total_iterations = total_iterations;
        params_.workers = level_workers;
        params_.min_chunk = min_chunk;
        params_.validate();
        if (!dls::supports_step_indexed(technique)) {
            throw minimpi::Error(minimpi::ErrorCode::InvalidArgument,
                                 "GlobalWorkQueue: technique lacks a step-indexed form");
        }
        technique_ = technique;
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
        const std::int64_t hint = dls::chunk_size_for_step(technique_, params_, step);
        if (hint <= 0) {
            return std::nullopt;  // e.g. STATIC past its P chunks
        }
        const std::int64_t start = start_of(step);
        if (start >= total_) {
            return std::nullopt;
        }
        ++acquired_;
        return Chunk{start, std::min(hint, total_ - start), step};
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

    /// First iteration of `step`'s chunk: advances the running prefix sum
    /// of the step-indexed sizes. Returns total_ once the sizes cover the
    /// loop (or run dry) before `step`.
    [[nodiscard]] std::int64_t start_of(std::int64_t step) {
        while (prefix_step_ < step && prefix_start_ < total_) {
            const std::int64_t hint = dls::chunk_size_for_step(technique_, params_, prefix_step_);
            if (hint <= 0) {
                prefix_start_ = total_;
                break;
            }
            prefix_start_ += hint;
            ++prefix_step_;
        }
        return std::min(prefix_start_, total_);
    }

    minimpi::Comm comm_;
    minimpi::Window window_;
    dls::LoopParams params_;
    dls::Technique technique_{};
    std::int64_t total_ = 0;
    std::int64_t acquired_ = 0;
    std::int64_t prefix_step_ = 0;   // steps summed into prefix_start_
    std::int64_t prefix_start_ = 0;  // start of step prefix_step_
};

}  // namespace hdls::core
