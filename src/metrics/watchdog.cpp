#include "metrics/watchdog.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "metrics/metrics.hpp"
#include "util/log.hpp"

namespace hdls::metrics {

StallWatchdog::StallWatchdog(int workers, Config cfg)
    : cfg_(cfg),
      epoch_(std::chrono::steady_clock::now()),
      slots_(static_cast<std::size_t>(std::max(workers, 1))) {}

StallWatchdog::~StallWatchdog() { stop(); }

std::uint64_t StallWatchdog::now_ns() const noexcept {
    return ns_at(std::chrono::steady_clock::now());
}

std::uint64_t StallWatchdog::ns_at(std::chrono::steady_clock::time_point t) const noexcept {
    return t > epoch_ ? static_cast<std::uint64_t>(
                            std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
                                .count())
                      : 0;
}

void StallWatchdog::enter(int worker) noexcept {
    if (worker < 0 || worker >= workers()) {
        return;
    }
    Slot& s = slots_[static_cast<std::size_t>(worker)];
    s.last_beat_ns.store(now_ns(), std::memory_order_relaxed);
    s.active.store(true, std::memory_order_relaxed);
}

void StallWatchdog::leave(int worker) noexcept {
    if (worker < 0 || worker >= workers()) {
        return;
    }
    slots_[static_cast<std::size_t>(worker)].active.store(false,
                                                          std::memory_order_relaxed);
}

void StallWatchdog::beat_at(std::uint64_t now, int worker, int level,
                            std::int64_t chunk_start, bool prefetch_outstanding,
                            double chunk_seconds) noexcept {
    if (worker < 0 || worker >= workers()) {
        return;
    }
    Slot& s = slots_[static_cast<std::size_t>(worker)];
    const auto chunk_ns =
        chunk_seconds > 0.0 ? static_cast<std::uint64_t>(chunk_seconds * 1e9) : 0;
    if (chunk_ns > 0) {
        const std::uint64_t old = s.ema_ns.load(std::memory_order_relaxed);
        // EMA with alpha = 1/8; seeded with the first observation. Lossy
        // under concurrent beats to the same slot, but each slot has one
        // writer (its worker).
        s.ema_ns.store(old == 0 ? chunk_ns : (7 * old + chunk_ns) / 8,
                       std::memory_order_relaxed);
    }
    s.level.store(level, std::memory_order_relaxed);
    s.last_chunk_start.store(chunk_start, std::memory_order_relaxed);
    s.prefetch_outstanding.store(prefetch_outstanding, std::memory_order_relaxed);
    s.beats.fetch_add(1, std::memory_order_relaxed);
    s.last_beat_ns.store(now, std::memory_order_relaxed);
}

std::vector<StallWatchdog::Stall> StallWatchdog::check(std::uint64_t now) {
    std::vector<Stall> stalls;
    for (int w = 0; w < workers(); ++w) {
        Slot& s = slots_[static_cast<std::size_t>(w)];
        if (!s.active.load(std::memory_order_relaxed)) {
            s.reported = false;
            continue;
        }
        const std::uint64_t beats = s.beats.load(std::memory_order_relaxed);
        if (beats < cfg_.min_beats) {
            continue;
        }
        if (s.reported && beats != s.beats_at_report) {
            s.reported = false;  // progress since the last report re-arms
        }
        const std::uint64_t last = s.last_beat_ns.load(std::memory_order_relaxed);
        const std::uint64_t silent = now > last ? now - last : 0;
        const std::uint64_t ema = s.ema_ns.load(std::memory_order_relaxed);
        const std::uint64_t threshold = std::max(
            static_cast<std::uint64_t>(cfg_.k * static_cast<double>(ema)), cfg_.floor_ns);
        if (silent <= threshold || s.reported) {
            continue;
        }
        Stall st;
        st.worker = w;
        st.level = s.level.load(std::memory_order_relaxed);
        st.last_chunk_start = s.last_chunk_start.load(std::memory_order_relaxed);
        st.prefetch_outstanding = s.prefetch_outstanding.load(std::memory_order_relaxed);
        st.silent_ns = silent;
        st.ema_ns = ema;
        st.beats = beats;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (shard_probe_) {
                st.shard_remaining = shard_probe_();
            }
        }
        s.reported = true;
        s.beats_at_report = beats;
        stalls_reported_.fetch_add(1, std::memory_order_relaxed);
        rt().watchdog_stalls->inc();
        const std::string dump = format_stall(st);
        util::log_error(dump);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            last_dump_ = dump;
        }
        stalls.push_back(std::move(st));
    }
    return stalls;
}

void StallWatchdog::set_shard_probe(std::function<std::vector<std::int64_t>()> probe) {
    std::lock_guard<std::mutex> lock(mutex_);
    shard_probe_ = std::move(probe);
}

void StallWatchdog::clear_shard_probe() {
    std::lock_guard<std::mutex> lock(mutex_);
    shard_probe_ = nullptr;
}

void StallWatchdog::start(std::chrono::milliseconds period) {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (running_) {
        return;
    }
    running_ = true;
    stop_requested_ = false;
    thread_ = std::thread([this, period] {
        std::unique_lock<std::mutex> lk(stop_mutex_);
        while (!stop_requested_) {
            if (stop_cv_.wait_for(lk, period, [this] { return stop_requested_; })) {
                break;
            }
            lk.unlock();
            check(now_ns());
            lk.lock();
        }
    });
}

void StallWatchdog::stop() {
    // Same discipline as MetricsSampler::stop(): clear running_ and claim
    // the thread handle under the mutex so two concurrent stop() calls
    // cannot both join the same thread.
    std::thread checker;
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        if (!running_) {
            return;
        }
        running_ = false;
        stop_requested_ = true;
        checker = std::move(thread_);
    }
    stop_cv_.notify_all();
    checker.join();
}

std::string StallWatchdog::last_dump() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return last_dump_;
}

std::string StallWatchdog::format_stall(const Stall& s) {
    std::ostringstream oss;
    oss << "watchdog: worker " << s.worker << " stalled -- no progress for "
        << s.silent_ns / 1000000 << "ms (chunk-time ema " << s.ema_ns / 1000 << "us, "
        << s.beats << " beats); level=" << s.level
        << " last_chunk_start=" << s.last_chunk_start
        << " prefetch_outstanding=" << (s.prefetch_outstanding ? "yes" : "no");
    if (!s.shard_remaining.empty()) {
        oss << " shard_remaining=[";
        for (std::size_t i = 0; i < s.shard_remaining.size(); ++i) {
            oss << (i == 0 ? "" : ", ") << s.shard_remaining[i];
        }
        oss << ']';
    }
    return oss.str();
}

}  // namespace hdls::metrics
