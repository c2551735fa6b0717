#pragma once
/// \file metrics.hpp
/// Always-on runtime metrics: sharded lock-free counters, gauges and
/// log2-bucketed latency histograms behind a process-wide registry.
///
/// Unlike the opt-in trace subsystem (src/trace/ — per-worker event logs,
/// merged post-run), metrics are *always on*: every layer of the runtime
/// increments them unconditionally, at production traffic, and pays only a
/// relaxed fetch_add on a cache-line-padded per-thread shard. The hot-path
/// contract, enforced by tests/test_metrics.cpp:
///
///  * increments are wait-free — one relaxed atomic RMW, no loops, no
///    locks, no waiting on other threads;
///  * increments are allocation-free — every cell is preallocated at
///    registration time, so instrumenting an RMA fast path cannot malloc;
///  * counters are sharded kShards ways with 64-byte padding, so two
///    workers bumping the same metric never bounce a cache line.
///
/// Reads (snapshot(), value()) sum the shards; they are meant for the
/// background MetricsSampler, exporters and reports — not for hot paths.
/// Registration (counter()/gauge()/histogram()) takes a mutex and
/// allocates; do it once at startup (see RuntimeMetrics / rt()).

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hdls::metrics {

/// Shards per metric. Power of two; threads are assigned round-robin, so
/// up to kShards concurrent writers proceed with zero line sharing.
inline constexpr unsigned kShards = 16;

/// Hierarchy levels the per-level metric families distinguish (deeper
/// levels fold into the last label — see RuntimeMetrics::level_index).
inline constexpr int kMaxLevels = 8;

/// Process-wide kill switch for A/B overhead measurements (benches flip it
/// to quantify the cost of the always-on instrumentation; production code
/// never touches it). Checked with one relaxed load on every increment.
void set_enabled(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

namespace detail {

struct alignas(64) PaddedCell {
    std::atomic<std::uint64_t> v{0};
};

/// This thread's shard slot, assigned round-robin on first use.
[[nodiscard]] unsigned shard_index() noexcept;

[[nodiscard]] bool metrics_on() noexcept;

}  // namespace detail

/// Monotonically increasing event count. Wait-free, allocation-free inc().
class Counter {
public:
    Counter() = default;
    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

    void inc(std::uint64_t n = 1) noexcept {
        if (!detail::metrics_on()) {
            return;
        }
        shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
    }

    /// Sum over shards (sampler/report side; not for hot paths).
    [[nodiscard]] std::uint64_t value() const noexcept {
        std::uint64_t total = 0;
        for (const auto& s : shards_) {
            total += s.v.load(std::memory_order_relaxed);
        }
        return total;
    }

private:
    std::array<detail::PaddedCell, kShards> shards_;
};

/// Last-value metric (set/add; signed). A single cell: gauges are updated
/// from one place (the sampler, the watchdog, a run's setup), not from the
/// per-chunk hot path.
class Gauge {
public:
    Gauge() = default;
    Gauge(const Gauge&) = delete;
    Gauge& operator=(const Gauge&) = delete;

    void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t d) noexcept { value_.fetch_add(d, std::memory_order_relaxed); }
    [[nodiscard]] std::int64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::int64_t> value_{0};
};

/// Fixed-allocation log2-bucketed histogram (HDR-style): bucket b counts
/// observations v with std::bit_width(v) == b, i.e. v in [2^(b-1), 2^b),
/// bucket 0 counting v == 0. Values are dimensionless 64-bit integers —
/// the runtime records nanoseconds. observe() is wait-free and
/// allocation-free: one relaxed fetch_add on the bucket cell plus one on
/// the shard's sum cell, both preallocated and padded per shard.
class Histogram {
public:
    /// 40 buckets cover 1ns .. ~9min (2^39 ns) before the overflow bucket.
    static constexpr int kBuckets = 40;

    Histogram() = default;
    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    [[nodiscard]] static int bucket_of(std::uint64_t v) noexcept {
        const int w = std::bit_width(v);
        return w < kBuckets ? w : kBuckets - 1;
    }

    /// Inclusive upper bound of bucket b (the Prometheus `le` edge); the
    /// last bucket is unbounded (+Inf).
    [[nodiscard]] static std::uint64_t bucket_upper(int b) noexcept {
        return (std::uint64_t{1} << b) - 1;
    }

    void observe(std::uint64_t v) noexcept {
        if (!detail::metrics_on()) {
            return;
        }
        Shard& s = shards_[detail::shard_index()];
        s.buckets[static_cast<std::size_t>(bucket_of(v))].fetch_add(
            1, std::memory_order_relaxed);
        s.sum.fetch_add(v, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t count() const noexcept {
        std::uint64_t total = 0;
        for (const auto& s : shards_) {
            for (const auto& b : s.buckets) {
                total += b.load(std::memory_order_relaxed);
            }
        }
        return total;
    }

    [[nodiscard]] std::uint64_t sum() const noexcept {
        std::uint64_t total = 0;
        for (const auto& s : shards_) {
            total += s.sum.load(std::memory_order_relaxed);
        }
        return total;
    }

    [[nodiscard]] std::uint64_t bucket_count(int b) const noexcept {
        std::uint64_t total = 0;
        for (const auto& s : shards_) {
            total += s.buckets[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
        }
        return total;
    }

private:
    /// One shard's row: the bucket array plus its sum cell, padded so
    /// different shards never share a line (the cells *within* a shard are
    /// only ever touched by threads mapped to that shard).
    struct alignas(64) Shard {
        std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
        std::atomic<std::uint64_t> sum{0};
    };

    std::array<Shard, kShards> shards_;
};

enum class MetricType { Counter, Gauge, Histogram };

/// Prometheus-style labels, e.g. {{"level", "0"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// One metric's state at snapshot time.
struct SnapshotEntry {
    std::string name;
    std::string help;
    MetricType type = MetricType::Counter;
    Labels labels;
    std::uint64_t value = 0;             ///< counter total
    std::int64_t gauge = 0;              ///< gauge value
    std::vector<std::uint64_t> buckets;  ///< histogram per-bucket counts
    std::uint64_t count = 0;             ///< histogram observation count
    std::uint64_t sum = 0;               ///< histogram value sum
};

/// Point-in-time copy of a registry — what the sampler stores, the
/// exporters render and the reports carry.
struct Snapshot {
    std::vector<SnapshotEntry> entries;

    [[nodiscard]] bool empty() const noexcept { return entries.empty(); }

    /// The run-scoped view: counters and histograms as increments since
    /// `base` (entries absent from `base` keep their full value; gauges
    /// keep their current reading). Negative deltas cannot occur —
    /// counters never decrease.
    [[nodiscard]] Snapshot delta_since(const Snapshot& base) const;

    /// Exact (name, labels) lookup; nullptr when absent.
    [[nodiscard]] const SnapshotEntry* find(std::string_view name,
                                            const Labels& labels = {}) const noexcept;

    /// Sum of a counter family over all label sets (0 when absent).
    [[nodiscard]] std::uint64_t counter_total(std::string_view name) const noexcept;

    /// Histogram family totals over all label sets.
    [[nodiscard]] std::uint64_t histogram_count(std::string_view name) const noexcept;
    [[nodiscard]] std::uint64_t histogram_sum(std::string_view name) const noexcept;
};

/// Owns metrics and hands out stable references. Registration is
/// mutex-protected and idempotent per (name, labels); increments through
/// the returned references never touch the registry again.
class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    [[nodiscard]] Counter& counter(const std::string& name, const std::string& help,
                                   const Labels& labels = {});
    [[nodiscard]] Gauge& gauge(const std::string& name, const std::string& help,
                               const Labels& labels = {});
    [[nodiscard]] Histogram& histogram(const std::string& name, const std::string& help,
                                       const Labels& labels = {});

    /// Copies every metric's current state, in registration order.
    [[nodiscard]] Snapshot snapshot() const;

private:
    struct Desc {
        std::string name;
        std::string help;
        MetricType type = MetricType::Counter;
        Labels labels;
    };

    template <typename T>
    struct Registered {
        Desc desc;
        T metric;
    };

    [[nodiscard]] static std::string key_of(MetricType type, const std::string& name,
                                            const Labels& labels);

    mutable std::mutex mutex_;
    // deques: stable addresses across registrations.
    std::deque<Registered<Counter>> counters_;
    std::deque<Registered<Gauge>> gauges_;
    std::deque<Registered<Histogram>> histograms_;
    std::vector<std::pair<std::string, std::pair<MetricType, std::size_t>>> index_;
    /// Registration order across the three kinds, as (type, idx) pairs —
    /// snapshots preserve it so exposition output is stable.
    std::vector<std::pair<MetricType, std::size_t>> order_;
};

/// The process-wide registry every runtime layer instruments into.
[[nodiscard]] MetricsRegistry& registry() noexcept;

/// The well-known runtime metrics, pre-registered against registry() on
/// first use. Layers hold the returned references; see README
/// ("Observability") for the full name/label schema.
struct RuntimeMetrics {
    // minimpi::Window — passive-target RMA synchronization.
    Counter* window_locks;               ///< lock epochs opened
    Counter* window_lock_retries;        ///< failed lock-attempt polls
    Counter* window_cas_retries;         ///< failed compare-and-swap attempts
    Counter* window_backoff_yields;      ///< Backoff ladder scheduler yields
    Counter* window_backoff_sleeps;      ///< Backoff ladder timed sleeps
    Counter* window_requests_completed;  ///< nonblocking request completions

    // core — the WorkSource hierarchy, one family entry per level.
    std::array<Counter*, kMaxLevels> acquires;   ///< parent chunks pulled (owned)
    std::array<Counter*, kMaxLevels> steals;     ///< parent chunks stolen
    std::array<Counter*, kMaxLevels> refills;    ///< level refill transactions
    std::array<Counter*, kMaxLevels> pops;       ///< local sub-chunk pops
    std::array<Histogram*, kMaxLevels> acquire_latency_ns;  ///< parent acquire latency
    Counter* prefetch_hits;
    Counter* prefetch_misses;
    Counter* termination_spins;  ///< termination-protocol polling rounds

    // executors.
    Counter* exec_chunks;
    Counter* exec_iterations;
    Counter* feedback_flushes;
    Histogram* chunk_exec_ns;

    // ompsim::ThreadTeam.
    Counter* team_chunks;
    Counter* team_idle_ns;

    // trace — events dropped past a worker's cap (previously only visible via analyze()).
    Counter* trace_ring_dropped;

    // watchdog.
    Counter* watchdog_stalls;
    Gauge* workers_active;

    // core::LeaseBoard — lease-based fault tolerance (docs/fault-tolerance.md).
    Counter* lease_acquires;      ///< chunks leased (acquired under lease mode)
    Counter* lease_reclaims;      ///< leases reclaimed from dead owners
    Counter* lease_fence_losses;  ///< completions that lost the fence (lease
                                  ///< already reclaimed; iterations not committed)
    Gauge* ranks_dead;            ///< ranks declared dead by the failure detector
    Counter* liveness_polls;      ///< failure-detector rounds run by the executor

    // core::JobService — the multi-tenant job stream.
    Counter* jobs_submitted;      ///< jobs accepted by submit()
    Counter* jobs_rejected;       ///< submit() overflows (ErrorCode::Resource)
    Counter* jobs_completed;      ///< jobs that ran to completion
    Counter* jobs_cancelled;      ///< jobs cancelled before completion
    Gauge* jobs_active;           ///< jobs currently executing
    Gauge* jobs_pending;          ///< jobs waiting in the admission queue
    Histogram* job_latency_ns;    ///< submit -> completion latency
    Histogram* job_queue_wait_ns; ///< submit -> run start (admission wait)

    /// Label slot for a hierarchy level (deeper levels fold into the last).
    [[nodiscard]] static int level_index(int level) noexcept {
        return level < 0 ? 0 : (level >= kMaxLevels ? kMaxLevels - 1 : level);
    }
};

/// The singleton handle set (thread-safe first-use initialization).
[[nodiscard]] const RuntimeMetrics& rt() noexcept;

}  // namespace hdls::metrics
