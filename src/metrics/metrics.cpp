#include "metrics/metrics.hpp"

#include <algorithm>

namespace hdls::metrics {

namespace {

std::atomic<bool> g_enabled{true};

}  // namespace

void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

namespace detail {

unsigned shard_index() noexcept {
    static std::atomic<unsigned> next{0};
    thread_local const unsigned idx =
        next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
    return idx;
}

bool metrics_on() noexcept { return g_enabled.load(std::memory_order_relaxed); }

}  // namespace detail

std::string MetricsRegistry::key_of(MetricType type, const std::string& name,
                                    const Labels& labels) {
    std::string key;
    key.reserve(name.size() + 16);
    key += static_cast<char>('0' + static_cast<int>(type));
    key += name;
    for (const auto& [k, v] : labels) {
        key += '\x01';
        key += k;
        key += '=';
        key += v;
    }
    return key;
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help,
                                  const Labels& labels) {
    const std::string key = key_of(MetricType::Counter, name, labels);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [k, loc] : index_) {
        if (k == key) {
            return counters_[loc.second].metric;
        }
    }
    counters_.emplace_back();  // in place: Counter is neither copyable nor movable
    counters_.back().desc = Desc{name, help, MetricType::Counter, labels};
    const std::size_t idx = counters_.size() - 1;
    index_.emplace_back(key, std::make_pair(MetricType::Counter, idx));
    order_.emplace_back(MetricType::Counter, idx);
    return counters_.back().metric;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const Labels& labels) {
    const std::string key = key_of(MetricType::Gauge, name, labels);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [k, loc] : index_) {
        if (k == key) {
            return gauges_[loc.second].metric;
        }
    }
    gauges_.emplace_back();
    gauges_.back().desc = Desc{name, help, MetricType::Gauge, labels};
    const std::size_t idx = gauges_.size() - 1;
    index_.emplace_back(key, std::make_pair(MetricType::Gauge, idx));
    order_.emplace_back(MetricType::Gauge, idx);
    return gauges_.back().metric;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const std::string& help,
                                      const Labels& labels) {
    const std::string key = key_of(MetricType::Histogram, name, labels);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [k, loc] : index_) {
        if (k == key) {
            return histograms_[loc.second].metric;
        }
    }
    histograms_.emplace_back();
    histograms_.back().desc = Desc{name, help, MetricType::Histogram, labels};
    const std::size_t idx = histograms_.size() - 1;
    index_.emplace_back(key, std::make_pair(MetricType::Histogram, idx));
    order_.emplace_back(MetricType::Histogram, idx);
    return histograms_.back().metric;
}

Snapshot MetricsRegistry::snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    snap.entries.reserve(order_.size());
    for (const auto& [type, idx] : order_) {
        SnapshotEntry e;
        switch (type) {
            case MetricType::Counter: {
                const auto& reg = counters_[idx];
                e.name = reg.desc.name;
                e.help = reg.desc.help;
                e.type = MetricType::Counter;
                e.labels = reg.desc.labels;
                e.value = reg.metric.value();
                break;
            }
            case MetricType::Gauge: {
                const auto& reg = gauges_[idx];
                e.name = reg.desc.name;
                e.help = reg.desc.help;
                e.type = MetricType::Gauge;
                e.labels = reg.desc.labels;
                e.gauge = reg.metric.value();
                break;
            }
            case MetricType::Histogram: {
                const auto& reg = histograms_[idx];
                e.name = reg.desc.name;
                e.help = reg.desc.help;
                e.type = MetricType::Histogram;
                e.labels = reg.desc.labels;
                e.buckets.resize(Histogram::kBuckets);
                for (int b = 0; b < Histogram::kBuckets; ++b) {
                    e.buckets[static_cast<std::size_t>(b)] = reg.metric.bucket_count(b);
                }
                e.count = reg.metric.count();
                e.sum = reg.metric.sum();
                break;
            }
        }
        snap.entries.push_back(std::move(e));
    }
    return snap;
}

Snapshot Snapshot::delta_since(const Snapshot& base) const {
    Snapshot out;
    out.entries.reserve(entries.size());
    for (const auto& e : entries) {
        SnapshotEntry d = e;
        const SnapshotEntry* b = base.find(e.name, e.labels);
        if (b != nullptr && b->type == e.type) {
            switch (e.type) {
                case MetricType::Counter:
                    d.value = e.value >= b->value ? e.value - b->value : 0;
                    break;
                case MetricType::Gauge:
                    break;  // gauges keep their current reading
                case MetricType::Histogram: {
                    const std::size_t n = std::min(d.buckets.size(), b->buckets.size());
                    for (std::size_t i = 0; i < n; ++i) {
                        d.buckets[i] =
                            d.buckets[i] >= b->buckets[i] ? d.buckets[i] - b->buckets[i] : 0;
                    }
                    d.count = e.count >= b->count ? e.count - b->count : 0;
                    d.sum = e.sum >= b->sum ? e.sum - b->sum : 0;
                    break;
                }
            }
        }
        out.entries.push_back(std::move(d));
    }
    return out;
}

const SnapshotEntry* Snapshot::find(std::string_view name,
                                    const Labels& labels) const noexcept {
    for (const auto& e : entries) {
        if (e.name == name && e.labels == labels) {
            return &e;
        }
    }
    return nullptr;
}

std::uint64_t Snapshot::counter_total(std::string_view name) const noexcept {
    std::uint64_t total = 0;
    for (const auto& e : entries) {
        if (e.type == MetricType::Counter && e.name == name) {
            total += e.value;
        }
    }
    return total;
}

std::uint64_t Snapshot::histogram_count(std::string_view name) const noexcept {
    std::uint64_t total = 0;
    for (const auto& e : entries) {
        if (e.type == MetricType::Histogram && e.name == name) {
            total += e.count;
        }
    }
    return total;
}

std::uint64_t Snapshot::histogram_sum(std::string_view name) const noexcept {
    std::uint64_t total = 0;
    for (const auto& e : entries) {
        if (e.type == MetricType::Histogram && e.name == name) {
            total += e.sum;
        }
    }
    return total;
}

MetricsRegistry& registry() noexcept {
    static MetricsRegistry instance;
    return instance;
}

namespace {

RuntimeMetrics make_runtime_metrics() {
    MetricsRegistry& reg = registry();
    RuntimeMetrics m{};

    m.window_locks = &reg.counter("hdls_window_locks_total",
                                  "Passive-target RMA lock epochs opened");
    m.window_lock_retries = &reg.counter("hdls_window_lock_retries_total",
                                         "Failed window lock-attempt polls");
    m.window_cas_retries = &reg.counter("hdls_window_cas_retries_total",
                                        "Failed compare-and-swap attempts on windows");
    m.window_backoff_yields = &reg.counter("hdls_window_backoff_yields_total",
                                           "Scheduler yields taken by the backoff ladder");
    m.window_backoff_sleeps = &reg.counter("hdls_window_backoff_sleeps_total",
                                           "Timed sleeps taken by the backoff ladder");
    m.window_requests_completed =
        &reg.counter("hdls_window_requests_completed_total",
                     "Nonblocking atomic-update requests completed");

    // Family-major: all levels of one family before the next, so the
    // snapshot (and hence the exposition file) keeps each family's label
    // sets contiguous — the Prometheus text format allows exactly one
    // HELP/TYPE header per metric name.
    const auto level_labels = [](int lv) {
        return Labels{{"level", std::to_string(lv)}};
    };
    for (int lv = 0; lv < kMaxLevels; ++lv) {
        m.acquires[static_cast<std::size_t>(lv)] =
            &reg.counter("hdls_sched_acquires_total",
                         "Chunks acquired from the parent work source (own share)",
                         level_labels(lv));
    }
    for (int lv = 0; lv < kMaxLevels; ++lv) {
        m.steals[static_cast<std::size_t>(lv)] =
            &reg.counter("hdls_sched_steals_total",
                         "Chunks stolen from other nodes' shards", level_labels(lv));
    }
    for (int lv = 0; lv < kMaxLevels; ++lv) {
        m.refills[static_cast<std::size_t>(lv)] =
            &reg.counter("hdls_sched_refills_total",
                         "Refill transactions performed by a level", level_labels(lv));
    }
    for (int lv = 0; lv < kMaxLevels; ++lv) {
        m.pops[static_cast<std::size_t>(lv)] =
            &reg.counter("hdls_sched_pops_total",
                         "Sub-chunks popped from a level's local queue", level_labels(lv));
    }
    for (int lv = 0; lv < kMaxLevels; ++lv) {
        m.acquire_latency_ns[static_cast<std::size_t>(lv)] =
            &reg.histogram("hdls_sched_acquire_latency_ns",
                           "Latency of parent acquire attempts in nanoseconds",
                           level_labels(lv));
    }
    m.prefetch_hits = &reg.counter("hdls_sched_prefetch_hits_total",
                                   "Acquires served from the prefetch slot");
    m.prefetch_misses = &reg.counter("hdls_sched_prefetch_misses_total",
                                     "Acquires that found the prefetch slot empty");
    m.termination_spins = &reg.counter("hdls_sched_termination_spins_total",
                                       "Polling rounds in the termination protocol");

    m.exec_chunks = &reg.counter("hdls_exec_chunks_total", "Chunks executed by workers");
    m.exec_iterations =
        &reg.counter("hdls_exec_iterations_total", "Loop iterations executed by workers");
    m.feedback_flushes = &reg.counter("hdls_exec_feedback_flushes_total",
                                      "Adaptive feedback flushes to the root queue");
    m.chunk_exec_ns = &reg.histogram("hdls_exec_chunk_ns",
                                     "Chunk body execution time in nanoseconds");

    m.team_chunks =
        &reg.counter("hdls_team_chunks_total", "Chunks dispatched by ompsim thread teams");
    m.team_idle_ns = &reg.counter("hdls_team_idle_ns_total",
                                  "Nanoseconds ompsim threads spent waiting at barriers");

    m.trace_ring_dropped = &reg.counter("hdls_trace_ring_dropped_total",
                                        "Trace events dropped by full per-worker event logs");

    m.watchdog_stalls = &reg.counter("hdls_watchdog_stalls_total",
                                     "Stalls reported by the stall watchdog");
    m.workers_active =
        &reg.gauge("hdls_workers_active", "Workers currently registered as running");

    m.lease_acquires =
        &reg.counter("hdls_lease_acquires_total", "Chunks leased under lease mode");
    m.lease_reclaims = &reg.counter("hdls_lease_reclaims_total",
                                    "Leases reclaimed from dead owners");
    m.lease_fence_losses =
        &reg.counter("hdls_lease_fence_losses_total",
                     "Chunk completions that lost the lease fence (not committed)");
    m.ranks_dead =
        &reg.gauge("hdls_ranks_dead", "Ranks declared dead by the failure detector");
    m.liveness_polls = &reg.counter("hdls_liveness_polls_total",
                                    "Failure-detector rounds run by the MPI+MPI executor");

    m.jobs_submitted =
        &reg.counter("hdls_jobs_submitted_total", "Jobs accepted by JobService::submit");
    m.jobs_rejected = &reg.counter("hdls_jobs_rejected_total",
                                   "Jobs rejected by admission control (queue full)");
    m.jobs_completed =
        &reg.counter("hdls_jobs_completed_total", "Jobs that ran to completion");
    m.jobs_cancelled =
        &reg.counter("hdls_jobs_cancelled_total", "Jobs cancelled before completion");
    m.jobs_active = &reg.gauge("hdls_jobs_active", "Jobs currently executing");
    m.jobs_pending = &reg.gauge("hdls_jobs_pending", "Jobs waiting in the admission queue");
    m.job_latency_ns = &reg.histogram("hdls_job_latency_ns",
                                      "Job latency (submit to completion) in nanoseconds");
    m.job_queue_wait_ns =
        &reg.histogram("hdls_job_queue_wait_ns",
                       "Job admission wait (submit to run start) in nanoseconds");

    return m;
}

}  // namespace

const RuntimeMetrics& rt() noexcept {
    static const RuntimeMetrics instance = make_runtime_metrics();
    return instance;
}

}  // namespace hdls::metrics
