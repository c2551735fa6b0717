#pragma once
/// \file inter_source.hpp
/// Virtual-time inter-node chunk sources shared by both simulation engines.
///
/// InterSource is the level-1 counterpart of the real executors'
/// WorkSource: one `acquire()` performs a complete level-1 acquisition in
/// virtual time, including the RMA pricing, so both engines charge
/// identical costs for every backend. Two implementations mirror the real
/// queues:
///
///  * CentralizedInterSource — the rank-0-hosted queues. Each acquisition
///    is two RMA-priced atomic ops serialized at one FCFS server (probe =
///    step fetch-and-op / feedback read + size hint; commit = scheduled
///    fetch-and-op / remaining CAS), exactly the pricing the engines used
///    before the backends were pluggable. Wraps InterChunkSource for the
///    chunk math. (The real GlobalWorkQueue now derives the start from
///    the step locally, one op; the model still prices ref [15]'s two.)
///
///  * ShardedInterSource — the per-node shard windows (ShardedInterQueue).
///    While a node's shard lasts, an acquisition is two atomics on the
///    *node-local* window: intranode latency, per-shard server — no
///    inter-node traffic and no shared hotspot. Once the shard drains the
///    node steals half the remainder of the most-loaded victim: priced as
///    one fabric RTT for the (pipelined) scan of the peer shards' counters
///    plus the CAS at the victim's server. The shard math comes from
///    dls/sharding.hpp, the same functions the real queue executes, so the
///    virtual and real chunk sequences cannot drift.
///
/// Adaptive feedback (report) is accounted at event-processing time, which
/// can precede the sub-chunk's virtual completion; the accumulated rates
/// are identical, the adaptation is merely visible one transaction earlier
/// than on a real machine. Determinism is unaffected.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dls/adaptive.hpp"
#include "dls/chunk_formulas.hpp"
#include "dls/sharding.hpp"
#include "sim/cost_model.hpp"
#include "sim/resources.hpp"
#include "sim/simulator.hpp"

namespace hdls::sim::detail {

/// Chunk math of the centralized queues (no pricing): the step-indexed
/// (GlobalWorkQueue) and remaining-based (AdaptiveGlobalQueue) protocols
/// behind probe/commit pairs. The engines serialize global accesses in
/// virtual-time order, so the remaining-cell CAS always succeeds.
class InterChunkSource {
public:
    struct Take {
        std::int64_t start = 0;
        std::int64_t size = 0;
        std::int64_t step = 0;
    };

    InterChunkSource(dls::Technique technique, const dls::LoopParams& params, int nodes,
                     const std::vector<double>& wf_weights)
        : tech_(technique),
          params_(params),
          total_(params.total_iterations),
          remaining_(params.total_iterations),
          remaining_form_(dls::supports_remaining_based(technique)),
          feedback_(static_cast<std::size_t>(nodes)),
          weights_(dls::normalize_static_weights(wf_weights, nodes)),
          caches_(static_cast<std::size_t>(nodes)) {}

    /// First RMA op of an acquisition by `node`: the size hint. A value
    /// <= 0 means the technique ran dry (permanently).
    [[nodiscard]] std::int64_t probe(int node) {
        if (remaining_form_) {
            if (remaining_ <= 0) {
                return 0;
            }
            return dls::remaining_based_chunk(tech_, params_, remaining_, weight_of(node));
        }
        probe_step_ = step_++;
        return dls::chunk_size_for_step(tech_, params_, probe_step_);
    }

    /// Second RMA op: allocates `hint` iterations (clamped). std::nullopt
    /// when the loop is exhausted despite a positive hint.
    [[nodiscard]] std::optional<Take> commit(std::int64_t hint) {
        if (remaining_form_) {
            const std::int64_t size = std::min(hint, remaining_);
            if (size <= 0) {
                return std::nullopt;
            }
            const std::int64_t start = total_ - remaining_;
            remaining_ -= size;
            return Take{start, size, step_++};
        }
        const std::int64_t start = scheduled_;
        scheduled_ += hint;
        if (start >= total_) {
            return std::nullopt;
        }
        return Take{start, std::min(hint, total_ - start), probe_step_};
    }

    /// Accumulates execution feedback for `node` (the three fetch-and-op
    /// sums of the real adaptive queue).
    void report(int node, std::int64_t iterations, double compute_seconds,
                double overhead_seconds) {
        auto& f = feedback_[static_cast<std::size_t>(node)];
        f.iterations += iterations;
        f.compute_seconds += compute_seconds;
        f.overhead_seconds += overhead_seconds;
    }

    /// True when report() influences future chunk sizes (AWF-*): the
    /// engines then charge the report's RMA cost.
    [[nodiscard]] bool wants_feedback() const noexcept { return dls::is_adaptive(tech_); }

private:
    [[nodiscard]] double weight_of(int node) {
        if (!dls::is_adaptive(tech_)) {
            return weights_[static_cast<std::size_t>(node)];  // WF static / FAC ignored
        }
        return caches_[static_cast<std::size_t>(node)].weight(
            tech_, node, total_, remaining_,
            [&] { return std::span<const dls::NodeFeedback>(feedback_); });
    }

    dls::Technique tech_;
    dls::LoopParams params_;
    std::int64_t total_ = 0;
    std::int64_t remaining_ = 0;   // remaining-based forms
    std::int64_t step_ = 0;        // shared step counter
    std::int64_t scheduled_ = 0;   // step-indexed forms
    std::int64_t probe_step_ = 0;  // step consumed by the last probe
    bool remaining_form_ = false;
    std::vector<dls::NodeFeedback> feedback_;
    std::vector<double> weights_;
    std::vector<dls::AwfWeightCache> caches_;  // per-node AWF refresh cadence
};

/// One complete, RMA-priced level-1 acquisition per call — the simulator's
/// view of core::WorkSource.
class InterSource {
public:
    struct Take {
        std::int64_t start = 0;
        std::int64_t size = 0;
        std::int64_t step = 0;
        bool stolen = false;  ///< carved from a peer shard (sharded backend)
    };

    virtual ~InterSource() = default;

    /// Acquisition by `node` arriving at virtual time `t`. On success the
    /// take is returned and *done holds its completion time; on permanent
    /// exhaustion nullopt is returned with *done = completion of the
    /// failed probe (the caller still pays for learning the queue is dry).
    [[nodiscard]] virtual std::optional<Take> acquire(int node, double t, double* done) = 0;

    /// Execution feedback for `node` (no-op outside the adaptive family).
    virtual void report(int node, std::int64_t iterations, double compute_seconds,
                        double overhead_seconds) {
        (void)node;
        (void)iterations;
        (void)compute_seconds;
        (void)overhead_seconds;
    }

    /// True when report() influences future chunk sizes (AWF-*): the
    /// engines then charge the report's RMA cost.
    [[nodiscard]] virtual bool wants_feedback() const noexcept { return false; }
};

/// The rank-0-hosted backends: two RMA ops through one FCFS server.
/// `rma_latency_s` overrides the per-op RMA latency (per-level pricing of
/// deep trees); negative means the cost model's internode default.
class CentralizedInterSource final : public InterSource {
public:
    CentralizedInterSource(dls::Technique technique, const dls::LoopParams& params, int nodes,
                           const std::vector<double>& wf_weights, const CostModel& costs,
                           double rma_latency_s = -1.0)
        : src_(technique, params, nodes, wf_weights),
          server_(costs.global_service_s()),
          rma_(rma_latency_s >= 0.0 ? rma_latency_s : costs.rma_s()) {}

    [[nodiscard]] std::optional<Take> acquire(int node, double t, double* done) override {
        const double t1 = op(t);
        const std::int64_t hint = src_.probe(node);
        if (hint <= 0) {
            *done = t1;
            return std::nullopt;
        }
        const double t2 = op(t1);
        *done = t2;
        const auto take = src_.commit(hint);
        if (!take) {
            return std::nullopt;
        }
        return Take{take->start, take->size, take->step, false};
    }

    void report(int node, std::int64_t iterations, double compute_seconds,
                double overhead_seconds) override {
        src_.report(node, iterations, compute_seconds, overhead_seconds);
    }

    [[nodiscard]] bool wants_feedback() const noexcept override {
        return src_.wants_feedback();
    }

private:
    /// One RMA atomic on the global queue: half RTT out, serialized
    /// service at the target, half RTT back.
    [[nodiscard]] double op(double t) {
        return server_.acquire(t + rma_ / 2.0) + rma_ / 2.0;
    }

    InterChunkSource src_;
    FcfsResource server_;
    double rma_;
};

/// The per-node shard windows with CAS work stealing (ShardedInterQueue's
/// virtual twin; all shard math from dls/sharding.hpp).
class ShardedInterSource final : public InterSource {
public:
    ShardedInterSource(dls::Technique technique, const dls::LoopParams& params, int nodes,
                       const std::vector<double>& wf_weights, const CostModel& costs,
                       double rma_latency_s = -1.0)
        : tech_(technique),
          min_chunk_(params.min_chunk),
          workers_(params.workers),
          sizes_(dls::shard_partition(params.total_iterations, wf_weights, nodes)),
          remaining_(sizes_),
          step_(static_cast<std::size_t>(nodes), 0),
          rma_(rma_latency_s >= 0.0 ? rma_latency_s : costs.rma_s()),
          shm_(costs.intranode_rma_s()) {
        lo_.resize(static_cast<std::size_t>(nodes));
        std::int64_t acc = 0;
        for (int j = 0; j < nodes; ++j) {
            lo_[static_cast<std::size_t>(j)] = acc;
            acc += sizes_[static_cast<std::size_t>(j)];
        }
        servers_.reserve(static_cast<std::size_t>(nodes));
        for (int j = 0; j < nodes; ++j) {
            servers_.emplace_back(costs.global_service_s());
        }
    }

    [[nodiscard]] std::optional<Take> acquire(int node, double t, double* done) override {
        if (remaining_[static_cast<std::size_t>(node)] > 0) {
            // Own shard: step fetch-and-op + remaining CAS, both on the
            // node-local window.
            const double t1 = op(node, t, shm_);
            *done = op(node, t1, shm_);
            return take_from(node, false);
        }
        // Steal: one fabric RTT for the pipelined scan of the peer shards'
        // remaining counters, then the half-remainder CAS at the victim.
        int victim = -1;
        std::int64_t best = 0;
        for (std::size_t j = 0; j < remaining_.size(); ++j) {
            if (static_cast<int>(j) == node) {
                continue;
            }
            if (remaining_[j] > best) {
                best = remaining_[j];
                victim = static_cast<int>(j);
            }
        }
        const double scanned = t + rma_;
        if (victim < 0) {
            *done = scanned;
            return std::nullopt;  // every shard is dry: the loop is tiled
        }
        *done = op(victim, scanned, rma_);
        auto take = steal_from(victim, node);
        return take;
    }

private:
    /// One atomic on shard `shard`'s window: half the (intra- or
    /// inter-node) latency out, serialized service at the shard's host,
    /// half back.
    [[nodiscard]] double op(int shard, double t, double latency) {
        return servers_[static_cast<std::size_t>(shard)].acquire(t + latency / 2.0) +
               latency / 2.0;
    }

    [[nodiscard]] std::optional<Take> take_from(int shard, bool stolen) {
        std::int64_t& r = remaining_[static_cast<std::size_t>(shard)];
        if (r <= 0) {
            return std::nullopt;
        }
        const std::int64_t step = step_[static_cast<std::size_t>(shard)]++;
        const std::int64_t hint = dls::shard_chunk_hint(
            tech_, sizes_[static_cast<std::size_t>(shard)], workers_, min_chunk_, step);
        const std::int64_t take = hint > 0 ? std::min(hint, r) : r;
        const std::int64_t start =
            lo_[static_cast<std::size_t>(shard)] + sizes_[static_cast<std::size_t>(shard)] - r;
        r -= take;
        return Take{start, take, step, stolen};
    }

    [[nodiscard]] std::optional<Take> steal_from(int victim, int thief) {
        std::int64_t& r = remaining_[static_cast<std::size_t>(victim)];
        const std::int64_t take = dls::steal_amount(r, min_chunk_);
        if (take <= 0) {
            return std::nullopt;
        }
        const std::int64_t start = lo_[static_cast<std::size_t>(victim)] +
                                   sizes_[static_cast<std::size_t>(victim)] - r;
        r -= take;
        // The thief's own step counter supplies the id (telemetry only).
        return Take{start, take, step_[static_cast<std::size_t>(thief)]++, true};
    }

    dls::Technique tech_;
    std::int64_t min_chunk_ = 1;
    int workers_ = 1;  // P in the shard formulas (the node count)
    std::vector<std::int64_t> sizes_;
    std::vector<std::int64_t> lo_;
    std::vector<std::int64_t> remaining_;
    std::vector<std::int64_t> step_;
    std::vector<FcfsResource> servers_;  // one per shard window
    double rma_;
    double shm_;
};

/// Picks the backend for `config.inter`; a sharded request for a technique
/// without a sharded form (FAC, AWF-*) falls back to the centralized
/// source, mirroring core::make_inter_queue.
[[nodiscard]] inline std::unique_ptr<InterSource> make_inter_source(
    dls::InterBackend backend, dls::Technique technique, const dls::LoopParams& params,
    int nodes, const std::vector<double>& wf_weights, const CostModel& costs,
    double rma_latency_s = -1.0) {
    if (backend == dls::InterBackend::Sharded && dls::supports_sharded(technique)) {
        return std::make_unique<ShardedInterSource>(technique, params, nodes, wf_weights,
                                                    costs, rma_latency_s);
    }
    return std::make_unique<CentralizedInterSource>(technique, params, nodes, wf_weights,
                                                    costs, rma_latency_s);
}

/// Pricing of one adaptive-feedback flush — the three accumulator RMA
/// updates the real executors post on the root window. The one place both
/// engines take this cost from.
[[nodiscard]] inline double feedback_flush_s(const CostModel& costs) {
    return 3.0 * costs.level_rma_s(0);
}

/// What one *prefetched* (asynchronously issued) acquisition cost the
/// critical path: under SimConfig::prefetch the request flies while the
/// previous chunk computes, so the caller is charged the nonblocking
/// issue/completion cost plus only the part of the raw latency that
/// outlived the overlap window — max(compute_remaining, acquire_latency)
/// in place of their sum.
struct PrefetchCharge {
    double raw = 0.0;      ///< physical flight time of the acquisition
    double charged = 0.0;  ///< critical-path seconds (issue + residual latency)
    double hidden = 0.0;   ///< latency absorbed behind the overlap window
    bool hit = false;      ///< the acquisition completed within the window
};

/// The validated per-level plan of one simulated run (the sim twin of
/// core::resolve_hierarchy, duplicated only in shape: the simulator keeps
/// no dependency on the real executors' core layer).
struct SimPlan {
    std::vector<minimpi::TopologyLevel> tree;   ///< depth >= 2
    std::vector<dls::LevelScheme> levels;       ///< per level; interior backends engaged

    [[nodiscard]] int depth() const noexcept { return static_cast<int>(tree.size()); }
};

[[nodiscard]] inline SimPlan resolve_sim_plan(const ClusterSpec& cluster,
                                              const SimConfig& config) {
    SimPlan plan;
    plan.tree = cluster.effective_tree();  // cluster.validate() checked consistency
    const int depth = plan.depth();
    if (config.levels.empty()) {
        plan.levels.assign(static_cast<std::size_t>(depth),
                           dls::LevelScheme{config.inter, config.inter_backend});
        plan.levels.back() = dls::LevelScheme{config.intra, std::nullopt};
    } else {
        if (static_cast<int>(config.levels.size()) != depth) {
            throw std::invalid_argument("simulate: got " +
                                        std::to_string(config.levels.size()) +
                                        " level configs for a depth-" + std::to_string(depth) +
                                        " topology");
        }
        plan.levels = config.levels;
        for (int d = 0; d < depth - 1; ++d) {
            auto& lv = plan.levels[static_cast<std::size_t>(d)];
            if (!lv.backend) {
                lv.backend = config.inter_backend;
            }
        }
        plan.levels.back().backend.reset();
    }
    auto& root = plan.levels.front();
    if (!dls::supports_internode(root.technique)) {
        throw std::invalid_argument(
            std::string("simulate: level 0 technique ") +
            std::string(dls::technique_name(root.technique)) +
            " has neither a step-indexed nor a remaining-count-based distributed form");
    }
    if (root.backend == dls::InterBackend::Sharded && !dls::supports_sharded(root.technique)) {
        root.backend = dls::InterBackend::Centralized;
    }
    for (int d = 1; d < depth - 1; ++d) {
        auto& lv = plan.levels[static_cast<std::size_t>(d)];
        if (lv.backend == dls::InterBackend::Sharded && !dls::supports_sharded(lv.technique)) {
            lv.backend = dls::InterBackend::Centralized;
        }
        if (lv.backend == dls::InterBackend::Centralized &&
            !dls::supports_step_indexed(lv.technique)) {
            throw std::invalid_argument(
                std::string("simulate: level ") + std::to_string(d) + " technique " +
                std::string(dls::technique_name(lv.technique)) +
                " cannot relay parent chunks (needs a step-indexed or sharded form)");
        }
    }
    return plan;
}

/// The whole upper scheduling hierarchy of a deep tree, priced per level —
/// the one place both engines take acquire costs from (the leaf queue
/// models stay engine-side: PollingLock / dequeue counter / thread team).
///
/// One acquire() emulates the real ComposedWorkSource chain above the
/// leaf: pop the level-(L-2) relay of the caller's group; on empty, refill
/// it from the level above, recursively up to the root backend. Relay
/// accesses are priced as one serialized op per lock epoch on the relay's
/// group window (pop = one epoch, push+pop = one epoch) at that level's
/// RMA latency (CostModel::level_rma_s). That is the paper's lock-epoch
/// protocol, priced on purpose: the real NodeWorkQueue pops lock-free
/// (one compare-and-swap per pop, an epoch per push) and so runs cheaper
/// than priced here. The classic depth-2 tree has no relays, so
/// acquire() degenerates to the root InterSource with byte-identical
/// pricing to the pre-hierarchy engines. Relay chunk math reuses the same
/// dls functions as the real NodeWorkQueue / ShardedRelayQueue, so the
/// virtual and real chunk sequences cannot drift.
class HierarchicalSource {
public:
    struct Take {
        std::int64_t start = 0;
        std::int64_t size = 0;
        bool stolen = false;  ///< carved from a peer's share (any level)
        int level = 0;        ///< level the chunk was pulled from
    };

    HierarchicalSource(const ClusterSpec& cluster, const SimConfig& config,
                       const SimPlan& plan, std::int64_t n)
        : depth_(plan.depth()), prefetch_issue_s_(cluster.costs.prefetch_issue_s()) {
        fan_.reserve(plan.tree.size());
        for (const auto& lv : plan.tree) {
            fan_.push_back(lv.fan_out);
        }
        // leaf_div_[d]: leaf groups contained in one depth-d group
        // (leaf_div_[depth-1] = 1, leaf_div_[0] = the leaf-group count).
        leaf_div_.assign(static_cast<std::size_t>(depth_), 1);
        for (int d = depth_ - 2; d >= 0; --d) {
            leaf_div_[static_cast<std::size_t>(d)] =
                fan_[static_cast<std::size_t>(d)] * leaf_div_[static_cast<std::size_t>(d + 1)];
        }

        dls::LoopParams params;
        params.total_iterations = n;
        params.workers = fan_.front();
        params.min_chunk = config.min_chunk;
        params.sigma = config.fac_sigma;
        params.mu = config.fac_mu;
        const auto& root = plan.levels.front();
        root_ = make_inter_source(root.backend.value_or(dls::InterBackend::Centralized),
                                  root.technique, params, fan_.front(), config.inter_weights,
                                  cluster.costs, cluster.costs.level_rma_s(0));

        relays_.resize(static_cast<std::size_t>(std::max(0, depth_ - 2)));
        int groups = 1;
        for (int d = 1; d <= depth_ - 2; ++d) {
            groups *= fan_[static_cast<std::size_t>(d - 1)];
            auto& level = relays_[static_cast<std::size_t>(d - 1)];
            level.reserve(static_cast<std::size_t>(groups));
            const auto& lv = plan.levels[static_cast<std::size_t>(d)];
            const bool sharded = lv.backend == dls::InterBackend::Sharded;
            for (int g = 0; g < groups; ++g) {
                level.emplace_back(Relay{sharded,
                                         sharded ? dls::shard_formula(lv.technique)
                                                 : lv.technique,
                                         fan_[static_cast<std::size_t>(d)],
                                         config.min_chunk,
                                         FcfsResource(cluster.costs.global_service_s()),
                                         cluster.costs.level_rma_s(d),
                                         {},
                                         0});
            }
        }
    }

    /// Acquisition for leaf group `leaf` arriving at `t`. On success *done
    /// holds the completion time. On failure *retry_at is the virtual time
    /// at which currently in-flight (pushed but not yet visible) work
    /// becomes poppable, or +infinity when the caller's branch is
    /// permanently dry.
    ///
    /// `overlap_s >= 0` prices the acquisition as asynchronously
    /// prefetched (SimConfig::prefetch): the request was issued behind a
    /// chunk whose compute time was overlap_s, so the successful caller is
    /// charged prefetch_issue_us + max(0, raw_latency - overlap_s) — i.e.
    /// max(compute, latency) across the chunk boundary instead of their
    /// sum. A negative overlap (the default) keeps the synchronous
    /// pricing; a dry-probe failure is never discounted (learning the
    /// branch is empty gains nothing from overlap). When `charge` is
    /// non-null it receives the hit/hidden decomposition for tracing.
    [[nodiscard]] std::optional<Take> acquire(int leaf, double t, double* done,
                                              double* retry_at, double overlap_s = -1.0,
                                              PrefetchCharge* charge = nullptr) {
        *retry_at = std::numeric_limits<double>::infinity();
        const auto take = walk(depth_ - 2, leaf, t, done, retry_at);
        if (take && overlap_s >= 0.0) {
            PrefetchCharge c;
            c.raw = std::max(0.0, *done - t);
            c.hidden = std::min(c.raw, overlap_s);
            c.charged = prefetch_issue_s_ + (c.raw - c.hidden);
            c.hit = c.raw <= overlap_s;
            *done = t + c.charged;
            if (charge != nullptr) {
                *charge = c;
            }
        }
        return take;
    }

    /// True once nothing can ever reach `leaf` again: the root is dry and
    /// every relay on the leaf's ancestor path is fully assigned. The
    /// engines gate refill attempts on this, exactly as they gated on the
    /// global-exhausted flag before trees got deep.
    [[nodiscard]] bool exhausted(int leaf) const {
        if (!root_dry_) {
            return false;
        }
        for (int d = 1; d <= depth_ - 2; ++d) {
            if (relay_of(d, leaf).unfinished()) {
                return false;
            }
        }
        return true;
    }

    /// Execution feedback for `leaf`'s branch, accumulated into its
    /// level-0 entity (no-op outside the adaptive family).
    void report(int leaf, std::int64_t iterations, double compute_seconds,
                double overhead_seconds) {
        root_->report(entity0(leaf), iterations, compute_seconds, overhead_seconds);
    }

    [[nodiscard]] bool wants_feedback() const noexcept { return root_->wants_feedback(); }

private:
    struct RelaySeg {
        int child = -1;  ///< owning child (sharded); -1 for the shared FIFO
        std::int64_t start = 0;
        std::int64_t size = 0;
        std::int64_t taken = 0;
        std::int64_t step = 0;
        double visible_at = 0.0;
    };

    struct Relay {
        bool sharded = false;
        dls::Technique slicer{};  ///< step-indexed slicer / shard formula
        int fan_out = 1;
        std::int64_t min_chunk = 1;
        FcfsResource server;
        double lat = 0.0;  ///< one-way RMA latency of this level's window
        std::vector<RelaySeg> segs;
        std::size_t head = 0;

        /// One lock epoch on the relay window: half the latency out,
        /// serialized service at the group host, half back.
        [[nodiscard]] double op(double t) { return server.acquire(t + lat / 2.0) + lat / 2.0; }

        [[nodiscard]] bool unfinished() const {
            for (std::size_t i = head; i < segs.size(); ++i) {
                if (segs[i].taken < segs[i].size) {
                    return true;
                }
            }
            return false;
        }

        [[nodiscard]] double earliest_visible() const {
            double earliest = std::numeric_limits<double>::infinity();
            for (std::size_t i = head; i < segs.size(); ++i) {
                if (segs[i].taken < segs[i].size) {
                    earliest = std::min(earliest, segs[i].visible_at);
                }
            }
            return earliest;
        }

        void push(std::int64_t start, std::int64_t size, double at) {
            if (!sharded) {
                segs.push_back({-1, start, size, 0, 0, at});
                return;
            }
            const std::vector<std::int64_t> parts = dls::shard_partition(size, {}, fan_out);
            std::int64_t off = 0;
            for (int c = 0; c < fan_out; ++c) {
                if (parts[static_cast<std::size_t>(c)] > 0) {
                    segs.push_back(
                        {c, start + off, parts[static_cast<std::size_t>(c)], 0, 0, at});
                }
                off += parts[static_cast<std::size_t>(c)];
            }
        }

        /// Allocates the next sub-chunk visible at `at` for `child`
        /// (ignored by the shared FIFO); sets *stolen when it carved a
        /// sibling's shard. Carves the same sub-chunks as NodeWorkQueue's
        /// step slicing (dls::StepStarts) and ShardedRelayQueue::pop_locked;
        /// only the pricing (one lock epoch per pop, the paper's
        /// protocol) differs from the lock-free real queue.
        [[nodiscard]] std::optional<std::pair<std::int64_t, std::int64_t>> pop(int child,
                                                                              double at,
                                                                              bool* stolen) {
            while (head < segs.size() && segs[head].taken >= segs[head].size) {
                ++head;  // retire fully-assigned front segments
            }
            *stolen = false;
            if (!sharded) {
                for (std::size_t i = head; i < segs.size(); ++i) {
                    RelaySeg& s = segs[i];
                    if (s.taken >= s.size || s.visible_at > at) {
                        continue;
                    }
                    dls::LoopParams p;
                    p.total_iterations = s.size;
                    p.workers = fan_out;
                    p.min_chunk = min_chunk;
                    const std::int64_t hint =
                        dls::chunk_size_for_step(slicer, p, s.step);
                    const std::int64_t take =
                        hint > 0 ? std::min(hint, s.size - s.taken) : s.size - s.taken;
                    const std::int64_t begin = s.start + s.taken;
                    s.taken += take;
                    ++s.step;
                    return std::pair{begin, begin + take};
                }
                return std::nullopt;
            }
            // Own shard first.
            for (std::size_t i = head; i < segs.size(); ++i) {
                RelaySeg& s = segs[i];
                if (s.child != child || s.taken >= s.size || s.visible_at > at) {
                    continue;
                }
                const std::int64_t hint = dls::shard_chunk_hint(slicer, s.size, fan_out,
                                                                min_chunk, s.step);
                const std::int64_t take =
                    hint > 0 ? std::min(hint, s.size - s.taken) : s.size - s.taken;
                const std::int64_t begin = s.start + s.taken;
                s.taken += take;
                ++s.step;
                return std::pair{begin, begin + take};
            }
            // Steal half the front remainder of the most loaded sibling.
            int victim = -1;
            std::int64_t most = 0;
            for (int c = 0; c < fan_out; ++c) {
                if (c == child) {
                    continue;
                }
                std::int64_t remaining = 0;
                for (std::size_t i = head; i < segs.size(); ++i) {
                    const RelaySeg& s = segs[i];
                    if (s.child == c && s.visible_at <= at) {
                        remaining += s.size - s.taken;
                    }
                }
                if (remaining > most) {
                    most = remaining;
                    victim = c;
                }
            }
            if (victim < 0) {
                return std::nullopt;
            }
            for (std::size_t i = head; i < segs.size(); ++i) {
                RelaySeg& s = segs[i];
                if (s.child != victim || s.taken >= s.size || s.visible_at > at) {
                    continue;
                }
                const std::int64_t take = dls::steal_amount(s.size - s.taken, min_chunk);
                const std::int64_t begin = s.start + s.taken;
                s.taken += take;
                *stolen = true;
                return std::pair{begin, begin + take};
            }
            return std::nullopt;
        }
    };

    /// Level-0 entity (feedback slot / root shard) of a leaf group.
    [[nodiscard]] int entity0(int leaf) const noexcept { return group_at(1, leaf); }

    [[nodiscard]] const Relay& relay_of(int d, int leaf) const {
        return relays_[static_cast<std::size_t>(d - 1)]
                      [static_cast<std::size_t>(group_at(d, leaf))];
    }
    [[nodiscard]] Relay& relay_of(int d, int leaf) {
        return relays_[static_cast<std::size_t>(d - 1)]
                      [static_cast<std::size_t>(group_at(d, leaf))];
    }

    /// Depth-d ancestor group of a leaf group.
    [[nodiscard]] int group_at(int d, int leaf) const noexcept {
        return leaf / static_cast<int>(leaf_div_[static_cast<std::size_t>(d)]);
    }

    /// Child slot of the leaf's branch at level d.
    [[nodiscard]] int child_at(int d, int leaf) const noexcept {
        return group_at(d + 1, leaf) % fan_[static_cast<std::size_t>(d)];
    }

    [[nodiscard]] std::optional<Take> walk(int d, int leaf, double t, double* done,
                                           double* retry_at) {
        if (d <= 0) {
            if (root_dry_) {
                *done = t;
                return std::nullopt;
            }
            double completed = t;
            const auto take = root_->acquire(entity0(leaf), t, &completed);
            *done = completed;
            if (!take) {
                root_dry_ = true;
                return std::nullopt;
            }
            return Take{take->start, take->size, take->stolen, 0};
        }
        Relay& r = relay_of(d, leaf);
        const int child = child_at(d, leaf);
        const double t1 = r.op(t);
        bool stolen = false;
        if (const auto sub = r.pop(child, t1, &stolen)) {
            *done = t1;
            return Take{sub->first, sub->second - sub->first, stolen, d};
        }
        double updone = t1;
        const auto up = walk(d - 1, leaf, t1, &updone, retry_at);
        if (!up) {
            *retry_at = std::min(*retry_at, r.earliest_visible());
            *done = updone;
            return std::nullopt;
        }
        // Push + pop own first sub-chunk in one lock epoch.
        const double t2 = r.op(updone);
        r.push(up->start, up->size, t2);
        *done = t2;
        if (const auto sub = r.pop(child, t2, &stolen)) {
            return Take{sub->first, sub->second - sub->first, stolen, d};
        }
        *retry_at = std::min(*retry_at, t2);
        return std::nullopt;
    }

    int depth_ = 2;
    double prefetch_issue_s_ = 0.0;  ///< nonblocking issue+completion cost
    std::vector<int> fan_;
    std::vector<std::int64_t> leaf_div_;  ///< leaf groups per depth-d group
    std::unique_ptr<InterSource> root_;
    bool root_dry_ = false;
    std::vector<std::vector<Relay>> relays_;  ///< [level-1][group]
};

}  // namespace hdls::sim::detail
