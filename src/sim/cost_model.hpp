#pragma once
/// \file cost_model.hpp
/// Timing parameters of the simulated cluster.
///
/// The simulator reproduces the paper's testbed (miniHPC: 16 ranks/node,
/// Omni-Path fabric) in *virtual time*. Every knob below is a measured-
/// order-of-magnitude default, overridable from every bench binary, so the
/// sensitivity of the paper's conclusions to each cost can be explored
/// (see bench_ablation_lock_polling).
///
/// The two costs that carry the paper's argument:
///  * `shmem_lock_poll_us` — MPI_Win_lock is implemented with lock-attempt
///    polling (Zhao, Balaji & Gropp, ISPDC'16; the paper's ref [38]): a
///    blocked origin retries on a period. Under contention the grant time
///    quantizes up to this period, which is why intra-node SS (one lock
///    epoch per iteration) collapses under MPI+MPI.
///  * `omp_dequeue_us` — the OpenMP runtime's dynamic/guided dequeue is a
///    process-local atomic, one-to-two orders of magnitude cheaper; the
///    paper: "the scheduling overhead associated with using MPI shared-
///    memory to implement DLS techniques is higher than OpenMP".

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "dls/sharding.hpp"
#include "minimpi/topology.hpp"

namespace hdls::sim {

/// All times in seconds (suffix _us marks knobs expressed in microseconds
/// for readability; the accessors convert).
struct CostModel {
    /// One-way worker<->global-queue software+fabric latency per RMA op.
    double internode_rma_us = 3.0;
    /// One-way latency of an RMA atomic on a *node-local* shared window —
    /// the shard-acquire path of the sharded inter-node backend, which
    /// never leaves the node while its shard lasts.
    double intranode_rma_us = 0.3;
    /// Serialization at the global queue's target per atomic op.
    double global_queue_service_us = 0.8;
    /// Exclusive-lock hold time on the node-local queue window
    /// (grant + queue update + unlock).
    double shmem_lock_hold_us = 1.2;
    /// Lock-attempt polling period of blocked MPI_Win_lock origins.
    double shmem_lock_poll_us = 5.0;
    /// Target-agent processing time of one lock-attempt message. Each
    /// blocked origin keeps a pending attempt queued, so a contended
    /// handoff costs poll/2 + attempts * waiters — the superlinear
    /// degradation of ref [38]. Comparable to the RMA software path.
    double shmem_lock_attempt_us = 3.0;
    /// OpenMP worksharing dequeue (atomic fetch-add) service time.
    double omp_dequeue_us = 0.15;
    /// OpenMP barrier: base + per-thread component.
    double omp_barrier_base_us = 1.5;
    double omp_barrier_per_thread_us = 0.08;
    /// Chunk bookkeeping common to both models (loop setup, index math).
    double chunk_overhead_us = 0.5;
    /// Per-level one-way RMA latency of a deep topology tree's scheduling
    /// windows, outermost level first (level 0 = the root queue, level 1
    /// the relay inside a level-0 group, ...). Lets a rack-level window
    /// cost more than a socket-level one. Levels beyond the vector (or the
    /// whole vector when empty) fall back to internode_rma_us — which
    /// keeps the classic two-level pricing byte-identical.
    std::vector<double> level_rma_us;

    [[nodiscard]] double rma_s() const noexcept { return internode_rma_us * 1e-6; }
    /// One-way RMA latency of the level-`level` scheduling window.
    [[nodiscard]] double level_rma_s(int level) const noexcept {
        if (level >= 0 && static_cast<std::size_t>(level) < level_rma_us.size()) {
            return level_rma_us[static_cast<std::size_t>(level)] * 1e-6;
        }
        return rma_s();
    }
    [[nodiscard]] double intranode_rma_s() const noexcept { return intranode_rma_us * 1e-6; }
    [[nodiscard]] double global_service_s() const noexcept {
        return global_queue_service_us * 1e-6;
    }
    [[nodiscard]] double lock_hold_s() const noexcept { return shmem_lock_hold_us * 1e-6; }
    [[nodiscard]] double lock_poll_s() const noexcept { return shmem_lock_poll_us * 1e-6; }
    [[nodiscard]] double lock_attempt_s() const noexcept { return shmem_lock_attempt_us * 1e-6; }
    [[nodiscard]] double omp_dequeue_s() const noexcept { return omp_dequeue_us * 1e-6; }
    [[nodiscard]] double barrier_s(int threads) const noexcept {
        return (omp_barrier_base_us + omp_barrier_per_thread_us * threads) * 1e-6;
    }
    [[nodiscard]] double chunk_overhead_s() const noexcept { return chunk_overhead_us * 1e-6; }

    void validate() const {
        if (internode_rma_us < 0 || intranode_rma_us < 0 || global_queue_service_us < 0 ||
            shmem_lock_hold_us < 0 ||
            shmem_lock_poll_us < 0 || shmem_lock_attempt_us < 0 || omp_dequeue_us < 0 ||
            omp_barrier_base_us < 0 || omp_barrier_per_thread_us < 0 ||
            chunk_overhead_us < 0) {
            throw std::invalid_argument("CostModel: all costs must be >= 0");
        }
        for (const double v : level_rma_us) {
            if (v < 0) {
                throw std::invalid_argument("CostModel: all costs must be >= 0");
            }
        }
    }
};

/// The simulated machine: `nodes` x `workers_per_node` (paper: 2..16 x 16),
/// optionally refined into a deeper topology tree.
struct ClusterSpec {
    int nodes = 2;
    int workers_per_node = 16;
    CostModel costs{};
    /// Relative per-node execution speeds (empty = all 1.0): a node with
    /// speed 0.5 executes every iteration twice as slowly. Models the
    /// heterogeneous/perturbed clusters the adaptive techniques target.
    std::vector<double> node_speed;
    /// Machine tree, outermost level first (e.g. racks=2, nodes=4,
    /// cores=16). Empty means the classic two-level {nodes, cores} tree.
    /// When set, the fan-outs must multiply to total_workers(), the
    /// innermost fan-out must equal workers_per_node, and `nodes` must
    /// equal the number of leaf groups.
    std::vector<minimpi::TopologyLevel> tree;

    [[nodiscard]] int total_workers() const noexcept { return nodes * workers_per_node; }

    /// The effective tree (the implied {nodes, cores} one when unset).
    [[nodiscard]] std::vector<minimpi::TopologyLevel> effective_tree() const {
        return tree.empty() ? dls::classic_tree(nodes, workers_per_node) : tree;
    }

    /// Execution-speed factor of `node` (compute time = cost / speed).
    [[nodiscard]] double speed(int node) const noexcept {
        return node_speed.empty() ? 1.0 : node_speed[static_cast<std::size_t>(node)];
    }

    void validate() const {
        if (nodes < 1 || workers_per_node < 1) {
            throw std::invalid_argument("ClusterSpec: shape must be positive");
        }
        if (!tree.empty()) {
            dls::validate_tree(tree, workers_per_node, total_workers());
        }
        if (!node_speed.empty()) {
            if (node_speed.size() != static_cast<std::size_t>(nodes)) {
                throw std::invalid_argument(
                    "ClusterSpec: node_speed size must equal the node count");
            }
            for (const double s : node_speed) {
                if (!(s > 0.0)) {
                    throw std::invalid_argument("ClusterSpec: node speeds must be > 0");
                }
            }
        }
        costs.validate();
    }
};

}  // namespace hdls::sim
