#pragma once
/// \file watchdog.hpp
/// StallWatchdog: per-worker heartbeat tracking with an EMA-scaled stall
/// threshold. Every worker "beats" once per executed chunk (wait-free,
/// allocation-free); a background check — or a deterministic check(now)
/// call in tests — flags any worker that has been silent for more than
/// k× its recent chunk-time EMA (with an absolute floor so slow-but-real
/// chunks on imbalanced nodes never trip it) and emits a one-shot
/// diagnostic dump: stuck level, last chunk start, outstanding prefetch,
/// and per-shard remaining iterations when a shard probe is installed.
/// The dump fires once per stall episode; a new beat re-arms it.
///
/// This is the precursor to lease-based chunk reclamation (ROADMAP item
/// 5): the same heartbeat data decides when a worker's leased chunk is
/// forfeit.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.hpp"

namespace hdls::metrics {

class StallWatchdog {
public:
    struct Config {
        /// Stall threshold multiplier over the per-worker chunk-time EMA.
        double k = 8.0;
        /// Absolute threshold floor — a worker is never flagged sooner
        /// than this, however fast its chunks were.
        std::uint64_t floor_ns = 200'000'000;
        /// Beats a worker must have delivered before it can be flagged
        /// (a worker that never started is a scheduling gap, not a stall).
        std::uint64_t min_beats = 2;
    };

    /// One flagged worker, as returned by check().
    struct Stall {
        int worker = -1;
        int level = -1;                   ///< level the worker last acquired at
        std::int64_t last_chunk_start = -1;  ///< first iteration of its last chunk
        bool prefetch_outstanding = false;
        std::uint64_t silent_ns = 0;
        std::uint64_t ema_ns = 0;
        std::uint64_t beats = 0;
        std::vector<std::int64_t> shard_remaining;  ///< from the shard probe, if any
    };

    explicit StallWatchdog(int workers) : StallWatchdog(workers, Config{}) {}
    StallWatchdog(int workers, Config cfg);
    ~StallWatchdog();

    StallWatchdog(const StallWatchdog&) = delete;
    StallWatchdog& operator=(const StallWatchdog&) = delete;

    /// Marks a worker running (heartbeat clock starts now).
    void enter(int worker) noexcept;
    /// Marks a worker finished — it is exempt from stall checks.
    void leave(int worker) noexcept;

    /// Heartbeat: one call per executed chunk. Wait-free, allocation-free.
    void beat(int worker, int level, std::int64_t chunk_start, bool prefetch_outstanding,
              double chunk_seconds) noexcept;

    /// Like beat() but with an explicit timestamp on the now_ns() clock:
    /// the executors pass their body-end stamp (through ns_at), tests a
    /// deterministic time.
    void beat_at(std::uint64_t now, int worker, int level, std::int64_t chunk_start,
                 bool prefetch_outstanding, double chunk_seconds) noexcept;

    /// Scans all workers against `now` (same clock as now_ns()) and
    /// returns the stalls detected *this call* — one-shot per episode.
    /// Side effects per stall: hdls_watchdog_stalls_total is incremented
    /// and the formatted dump goes to util::log_error and last_dump().
    std::vector<Stall> check(std::uint64_t now);

    /// Monotonic nanoseconds since construction (the beat/check clock).
    [[nodiscard]] std::uint64_t now_ns() const noexcept;
    /// `t` on the now_ns() clock (0 for a time before construction).
    [[nodiscard]] std::uint64_t ns_at(std::chrono::steady_clock::time_point t) const noexcept;

    /// Installs a callback reporting per-shard remaining iterations of the
    /// root queue, included in stall dumps. Thread-safe.
    void set_shard_probe(std::function<std::vector<std::int64_t>()> probe);
    void clear_shard_probe();

    /// Starts/stops the background thread calling check() every `period`.
    void start(std::chrono::milliseconds period);
    void stop();

    [[nodiscard]] std::uint64_t stalls_reported() const noexcept {
        return stalls_reported_.load(std::memory_order_relaxed);
    }

    /// The most recent diagnostic dump ("" when none fired).
    [[nodiscard]] std::string last_dump() const;

    [[nodiscard]] static std::string format_stall(const Stall& s);

    [[nodiscard]] int workers() const noexcept { return static_cast<int>(slots_.size()); }

private:
    struct alignas(64) Slot {
        std::atomic<std::uint64_t> beats{0};
        std::atomic<std::uint64_t> last_beat_ns{0};
        std::atomic<std::uint64_t> ema_ns{0};
        std::atomic<std::int32_t> level{-1};
        std::atomic<std::int64_t> last_chunk_start{-1};
        std::atomic<bool> prefetch_outstanding{false};
        std::atomic<bool> active{false};
        // Owned by the checking thread only.
        std::uint64_t beats_at_report = 0;
        bool reported = false;
    };

    Config cfg_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Slot> slots_;
    std::atomic<std::uint64_t> stalls_reported_{0};

    mutable std::mutex mutex_;  // probe, dump, thread lifecycle
    std::function<std::vector<std::int64_t>()> shard_probe_;
    std::string last_dump_;
    std::thread thread_;
    std::mutex stop_mutex_;
    std::condition_variable stop_cv_;
    bool running_ = false;
    bool stop_requested_ = false;
};

/// Global watchdog hook, now a *registry*: installations stack, and
/// active_watchdog() returns the most recent live one (a single relaxed
/// pointer load on the hot path). Overlapping runs each install their own
/// watchdog and remove exactly their own entry with uninstall_watchdog(),
/// so no interleaving of run lifetimes can leave the hook pointing at a
/// destroyed watchdog — the failure mode of the old save/restore guard.
/// install_watchdog(nullptr) keeps its legacy meaning: uninstall the most
/// recent installation.
void install_watchdog(StallWatchdog* wd) noexcept;
/// Removes this specific watchdog from the registry (idempotent; nullptr
/// is a no-op). The preferred uninstall for scoped installations.
void uninstall_watchdog(StallWatchdog* wd) noexcept;
[[nodiscard]] StallWatchdog* active_watchdog() noexcept;

/// RAII installation — the exception-safe way to scope a watchdog to a
/// run. Removal targets exactly this watchdog, so overlapping scopes may
/// unwind in any order.
class WatchdogInstallation {
public:
    explicit WatchdogInstallation(StallWatchdog* wd) noexcept : wd_(wd) {
        if (wd_ != nullptr) {
            install_watchdog(wd_);
        }
    }
    ~WatchdogInstallation() { uninstall_watchdog(wd_); }
    WatchdogInstallation(const WatchdogInstallation&) = delete;
    WatchdogInstallation& operator=(const WatchdogInstallation&) = delete;

private:
    StallWatchdog* wd_;
};

/// The explicit-watchdog entry points: executors thread the run's own
/// watchdog through these (see core::RankHooks) so concurrent runs beat
/// their own instance instead of whichever happens to top the global
/// registry. `wd == nullptr` keeps only the always-on gauge updates.
inline void worker_enter(int worker, StallWatchdog* wd) noexcept {
    rt().workers_active->add(1);  // gauge is always-on, watchdog opt-in
    if (wd != nullptr) {
        wd->enter(worker);
    }
}

inline void worker_leave(int worker, StallWatchdog* wd) noexcept {
    rt().workers_active->add(-1);
    if (wd != nullptr) {
        wd->leave(worker);
    }
}

/// One beat stamped `at`, a time the caller already read (the chunk's
/// body-end stamp): a steady_clock time point, e.g. a util::ChunkClock
/// stamp.
inline void worker_beat(int worker, int level, std::int64_t chunk_start,
                        bool prefetch_outstanding, double chunk_seconds,
                        std::chrono::steady_clock::time_point at, StallWatchdog* wd) noexcept {
    if (wd != nullptr) {
        wd->beat_at(wd->ns_at(at), worker, level, chunk_start, prefetch_outstanding,
                    chunk_seconds);
    }
}

/// Registry-addressed conveniences (legacy callers, standalone tools).
inline void worker_enter(int worker) noexcept { worker_enter(worker, active_watchdog()); }
inline void worker_leave(int worker) noexcept { worker_leave(worker, active_watchdog()); }

}  // namespace hdls::metrics
