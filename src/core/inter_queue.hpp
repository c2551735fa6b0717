#pragma once
/// \file inter_queue.hpp
/// The inter-node (level-1) work source and its factory.
///
/// Three implementations exist, all masterless:
///  * GlobalWorkQueue — the paper's step-indexed distributed chunk
///    calculation (STATIC, SS, FSC, GSS, TSS, FAC2, TFSS, RND) on a single
///    rank-0-hosted passive-target RMA window;
///  * AdaptiveGlobalQueue — the remaining-count/feedback form serving FAC,
///    WF and AWF-B/C/D/E (adaptive_queue.hpp), also rank-0-hosted;
///  * ShardedInterQueue — one window per node holding a weight-partitioned
///    shard of the iteration space, with CAS work stealing between nodes
///    (sharded_queue.hpp); removes the rank-0 serialization point.
/// The factory picks by HierConfig::inter_backend and the technique's
/// distributed forms (dls::supports_step_indexed / supports_remaining_based
/// / supports_sharded), so executors schedule any inter-node technique
/// through the one WorkSource interface.

#include <cstdint>
#include <memory>

#include "core/types.hpp"
#include "core/work_source.hpp"
#include "dls/technique.hpp"
#include "minimpi/minimpi.hpp"

namespace hdls::core {

/// Creates the level-1 queue for `cfg.inter` under `cfg.inter_backend`.
/// Collective over `comm`. `level_workers` is P in the chunk formulas (the
/// paper uses the node count) and `node` the caller's level-1 entity id in
/// [0, level_workers) — the feedback slot adaptive techniques accumulate
/// into, and the shard the sharded backend assigns the caller. A sharded
/// request for a technique without a sharded form (FAC, AWF-*) falls back
/// to the centralized queue (dls::effective_backend; every rank decides
/// alike, so the fallback stays collective). Throws minimpi::Error for
/// techniques with no distributed form at all.
[[nodiscard]] std::unique_ptr<WorkSource> make_inter_queue(const minimpi::Comm& comm,
                                                           std::int64_t total_iterations,
                                                           const HierConfig& cfg,
                                                           int level_workers, int node);

}  // namespace hdls::core
