#pragma once
/// \file workloads.hpp
/// The two canonical evaluation workloads of the paper (Section 4) as
/// simulator traces, plus the shared bench conventions (node counts,
/// cluster construction, CLI knobs).
///
/// Scaling note (also in EXPERIMENTS.md): absolute times are *virtual* and
/// calibrated so Mandelbrot lands in the paper's range (~600 worker-seconds
/// of total work => ~19-60 s on 2 nodes x 16). PSIA keeps the paper's
/// *granularity* (sub-millisecond iterations, which drive the SS lock
/// contention) rather than its absolute duration; its times are therefore
/// smaller than the paper's 233-600 s but all ratios are preserved.

#include <string>

#include "sim/simulator.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"

namespace hdls::bench {

/// Node counts of the paper's x-axes.
inline constexpr int kNodeCounts[] = {2, 4, 8, 16};
/// Ranks (or threads) per node on miniHPC's Xeon partition.
inline constexpr int kWorkersPerNode = 16;

/// Mandelbrot trace: 1024x1024 escape-time image, max_iter 256, viewport
/// chosen so the expensive interior band sits past the midpoint of the
/// (row-major) iteration space — matching the paper's observation that its
/// time-consuming iterations are *not* at the beginning of the loop
/// (Section 2, FAC2 discussion). `dim` scales the image (default 1024).
[[nodiscard]] sim::WorkloadTrace mandelbrot_paper_trace(int dim = 1024);

/// PSIA trace: one spin image per oriented point of a 2^20-point synthetic
/// cloud; cost = base + k * |neighbourhood|. Moderate, spatially-correlated
/// imbalance (CoV ~0.25 vs Mandelbrot's ~2.0). `points` scales the cloud.
[[nodiscard]] sim::WorkloadTrace psia_paper_trace(std::int64_t points = 1 << 20);

/// Registers the standard bench options (--csv, --scale, --rpn and every
/// cost-model knob) on a parser.
void add_common_options(util::ArgParser& cli);

/// Builds the cluster spec for `nodes` from parsed options.
[[nodiscard]] sim::ClusterSpec cluster_from_options(const util::ArgParser& cli, int nodes);

/// Applies --scale to the two workloads: returns the Mandelbrot dimension
/// and PSIA point count to use.
[[nodiscard]] int scaled_mandelbrot_dim(const util::ArgParser& cli);
[[nodiscard]] std::int64_t scaled_psia_points(const util::ArgParser& cli);

/// Acquisition-latency aggregation over a recorded trace: the successful
/// upper-level GlobalAcquire/Steal epochs (b > 0). Shared by the ablation
/// benches (each used to hand-roll this mean); the math lives on
/// util::OnlineStats.
struct AcquireStats {
    double mean_latency = 0.0;  ///< mean successful acquire epoch (s)
    std::int64_t acquires = 0;
    std::int64_t steals = 0;
};
[[nodiscard]] AcquireStats acquire_stats(const trace::Trace& trace);

}  // namespace hdls::bench
