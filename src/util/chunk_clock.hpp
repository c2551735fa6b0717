#pragma once
/// \file chunk_clock.hpp
/// ChunkClock: the timestamp source of the executors' per-chunk path
/// (body stamps, acquire latency, lease stamps, watchdog beats).
///
/// Stamps are std::chrono::steady_clock time points, so consumers keep
/// their types and can mix them with steady_clock readings. Where the host
/// allows it a stamp is one plain `rdtsc` (no fence) scaled onto the
/// steady timeline instead of a vDSO clock_gettime call:
///
///  * the ticks -> ns rate is calibrated once per process against
///    steady_clock, lazily, on the first clock that wants the TSC
///    (thread-safe; the calibration spans at least 1 ms);
///  * each clock holds a (steady, tsc) base pair, retaken by rebase() at
///    the run's start line, so stamps stay within microseconds of
///    steady_clock over a run;
///  * a tick delta below the base clamps to the base, and elapsed()
///    clamps durations at zero, so unsynchronized TSCs across a thread
///    migration can never yield a negative duration.
///
/// The TSC is used only when CPUID reports an invariant TSC and Linux's
/// current clocksource is `tsc` (the kernel itself trusts it); otherwise
/// every read is steady_clock::now().
///
/// A clock belongs to one thread: reads() counts its reads in a plain
/// integer (the per-chunk clock-read gate in the tests). Copies are
/// independent clocks on the same base.

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace hdls::util {

class ChunkClock {
public:
    using time_point = std::chrono::steady_clock::time_point;

    /// Auto: the TSC when the host supports it (tsc_usable()), else
    /// steady_clock. Steady: always steady_clock (the fallback, forced).
    enum class Source { Auto, Steady };

    explicit ChunkClock(Source source = Source::Auto);

    /// A TSC-mode clock with an explicit rate and base pair, for tests of
    /// the tick conversion (no calibration, no host check).
    ChunkClock(double ns_per_tick, time_point steady_base, std::uint64_t tsc_base) noexcept;

    /// Takes a fresh (steady, tsc) base pair; a no-op on steady_clock.
    void rebase() noexcept;

    /// The current stamp.
    [[nodiscard]] time_point now() noexcept {
        ++reads_;
        return tsc_ ? at_ticks(read_tsc()) : std::chrono::steady_clock::now();
    }

    /// The stamp a TSC reading maps to; readings below the base map to it.
    [[nodiscard]] time_point at_ticks(std::uint64_t ticks) const noexcept {
        const auto delta = static_cast<std::int64_t>(ticks > tsc_base_ ? ticks - tsc_base_ : 0);
        return steady_base_ + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                  static_cast<double>(delta) * ns_per_tick_));
    }

    [[nodiscard]] bool uses_tsc() const noexcept { return tsc_; }
    [[nodiscard]] double ns_per_tick() const noexcept { return ns_per_tick_; }
    /// now() calls made through this clock.
    [[nodiscard]] std::uint64_t reads() const noexcept { return reads_; }

    /// True when the host's TSC is invariant and is Linux's clocksource.
    [[nodiscard]] static bool tsc_usable() noexcept;

    [[nodiscard]] static std::uint64_t read_tsc() noexcept {
#if defined(__x86_64__) || defined(__i386__)
        return __rdtsc();
#else
        return 0;
#endif
    }

private:
    time_point steady_base_{};
    std::uint64_t tsc_base_ = 0;
    double ns_per_tick_ = 0.0;
    bool tsc_ = false;
    std::uint64_t reads_ = 0;
};

/// `to - from`, clamped at zero.
[[nodiscard]] inline std::chrono::nanoseconds elapsed(ChunkClock::time_point from,
                                                      ChunkClock::time_point to) noexcept {
    return to > from ? std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
                     : std::chrono::nanoseconds::zero();
}

[[nodiscard]] inline double elapsed_seconds(ChunkClock::time_point from,
                                            ChunkClock::time_point to) noexcept {
    return std::chrono::duration<double>(elapsed(from, to)).count();
}

}  // namespace hdls::util
