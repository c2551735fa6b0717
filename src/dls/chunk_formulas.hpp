#pragma once
/// \file chunk_formulas.hpp
/// Step-indexed ("distributed chunk calculation") chunk-size formulas.
///
/// This is the form required by the paper's execution model: a worker
/// atomically increments the *latest scheduling step* counter in the global
/// (or node-local) work queue, then computes its chunk size locally from the
/// step index alone — no master and no serialized chunk computation
/// (Eleliemy & Ciorba, "Dynamic Loop Scheduling Using MPI Passive-Target
/// Remote Memory Access", PDP 2019; the paper's ref [15]).
///
/// The returned value is a *size hint*: the last chunk is clamped to the
/// loop's end. A step's chunk is [start(step), start(step + 1)), where
/// start is the running prefix sum of the hints clamped to N (StepStarts
/// below), so the claimant needs nothing beyond the step index:
///
///   step   = fetch_add(&queue.step, 1)
///   [b, e) = StepStarts(tech, params).range(step)   // b == e == N => done
///
/// The invariant tested by the suite: for every technique and every (N, P),
/// iterating steps 0,1,2,... with that clamping covers [0, N) exactly once.

#include <cstdint>

#include "dls/params.hpp"
#include "dls/technique.hpp"

namespace hdls::dls {

/// Chunk-size hint for scheduling step `step` (0-based). `worker` is only
/// consulted by techniques whose step-indexed form is worker-dependent
/// (none of the paper's five; kept for extension symmetry).
/// Preconditions: supports_step_indexed(t) and params validated.
/// Throws std::invalid_argument for techniques without a step-indexed form.
[[nodiscard]] std::int64_t chunk_size_for_step(Technique t, const LoopParams& p,
                                               std::int64_t step, int worker = 0);

/// Where each scheduling step's chunk lies in [0, N) under the serial
/// slicing: the running prefix sum of chunk_size_for_step, clamped to N.
/// The work queues claim a step with one atomic and derive the chunk from
/// it here. SS, FSC and STATIC use O(1) closed forms; the other techniques
/// advance a prefix sum kept in the object, which moves forward as long as
/// the requested steps grow (a smaller step restarts it from step 0), so a
/// caller whose steps only grow sums each step at most once.
class StepStarts {
public:
    /// One step's chunk, [begin, end); empty (begin == end == N) once the
    /// sizes cover the loop.
    struct Range {
        std::int64_t begin = 0;
        std::int64_t end = 0;
    };

    /// Preconditions as chunk_size_for_step (throws std::invalid_argument
    /// for a technique without a step-indexed form).
    StepStarts(Technique t, const LoopParams& p);

    /// First iteration of `step`'s chunk; N once the sizes cover the loop.
    /// A hint <= 0 ends the slicing (STATIC past its P chunks).
    [[nodiscard]] std::int64_t start(std::int64_t step);

    /// [start(step), start(step + 1)). A step whose hint is <= 0 before
    /// the loop is covered therefore receives the remainder (no
    /// step-indexed technique produces one).
    [[nodiscard]] Range range(std::int64_t step) { return {start(step), start(step + 1)}; }

private:
    Technique technique_;
    LoopParams params_;
    std::int64_t fixed_ = 0;        // SS / FSC chunk size; 0 = no fixed size
    std::int64_t prefix_step_ = 0;  // steps summed into prefix_start_
    std::int64_t prefix_start_ = 0;
};

// --- Individual closed forms (exposed for tests and documentation) ---------

/// STATIC: P chunks; chunk s gets floor(N/P) + 1 extra while s < N mod P.
[[nodiscard]] std::int64_t static_chunk(const LoopParams& p, std::int64_t step) noexcept;

/// GSS closed form: ceil((N/P) * (1 - 1/P)^step), >= min_chunk.
[[nodiscard]] std::int64_t gss_chunk(const LoopParams& p, std::int64_t step) noexcept;

/// TSS linear decrease: F - step*delta with F = ceil(N/2P), L = 1,
/// S = ceil(2N/(F+L)), delta = (F-L)/(S-1).
[[nodiscard]] std::int64_t tss_chunk(const LoopParams& p, std::int64_t step) noexcept;

/// FAC2: batch b = floor(step/P); chunk = ceil(N / (2^(b+1) * P)).
[[nodiscard]] std::int64_t fac2_chunk(const LoopParams& p, std::int64_t step) noexcept;

/// TFSS: batch b = floor(step/P); chunk = mean of the next P TSS chunk sizes.
[[nodiscard]] std::int64_t tfss_chunk(const LoopParams& p, std::int64_t step) noexcept;

/// FSC: fixed chunk from Kruskal & Weiss' formula
/// (sqrt(2)*N*h / (sigma*P*sqrt(ln P)))^(2/3), or p.fsc_chunk when given.
[[nodiscard]] std::int64_t fsc_chunk(const LoopParams& p) noexcept;

/// RND: deterministic hash of (seed, step) mapped to [lo, hi].
[[nodiscard]] std::int64_t rnd_chunk(const LoopParams& p, std::int64_t step) noexcept;

}  // namespace hdls::dls
