#include "util/chunk_clock.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <limits>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace hdls::util {

namespace {

using Steady = std::chrono::steady_clock;

struct BasePair {
    Steady::time_point steady;
    std::uint64_t tsc = 0;
};

/// A steady reading and the TSC at the same instant: the narrowest
/// tsc-bracket of a few tries, so a preemption between the reads does not
/// skew the pair.
BasePair sample_pair() noexcept {
    BasePair best;
    std::uint64_t best_width = std::numeric_limits<std::uint64_t>::max();
    for (int i = 0; i < 4; ++i) {
        const std::uint64_t before = ChunkClock::read_tsc();
        const Steady::time_point s = Steady::now();
        const std::uint64_t after = ChunkClock::read_tsc();
        if (after - before < best_width) {
            best_width = after - before;
            best = BasePair{s, before + (after - before) / 2};
        }
    }
    return best;
}

/// ns per tick, measured once per process over at least 1 ms; 0 when the
/// TSC did not advance (the caller then stays on steady_clock).
double calibrated_ns_per_tick() noexcept {
    static const double rate = [] {
        const BasePair first = sample_pair();
        BasePair last = first;
        while (last.steady - first.steady < std::chrono::milliseconds(1)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            last = sample_pair();
        }
        if (last.tsc <= first.tsc) {
            return 0.0;
        }
        const auto ns = std::chrono::duration<double, std::nano>(last.steady - first.steady);
        return ns.count() / static_cast<double>(last.tsc - first.tsc);
    }();
    return rate;
}

bool invariant_tsc() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    unsigned eax = 0;
    unsigned ebx = 0;
    unsigned ecx = 0;
    unsigned edx = 0;
    // CPUID.80000007H:EDX[8] — the TSC runs at a constant rate in every
    // P-, C- and T-state.
    return __get_cpuid(0x80000007U, &eax, &ebx, &ecx, &edx) != 0 && (edx & (1U << 8)) != 0;
#else
    return false;
#endif
}

bool clocksource_is_tsc() noexcept {
    const int fd =
        ::open("/sys/devices/system/clocksource/clocksource0/current_clocksource", O_RDONLY);
    if (fd < 0) {
        return false;
    }
    char buf[16] = {};
    const ssize_t got = ::read(fd, buf, sizeof(buf) - 1);
    ::close(fd);
    return got >= 3 && std::strncmp(buf, "tsc", 3) == 0 && (got == 3 || buf[3] == '\n');
}

}  // namespace

bool ChunkClock::tsc_usable() noexcept {
    static const bool usable = invariant_tsc() && clocksource_is_tsc();
    return usable;
}

ChunkClock::ChunkClock(Source source) {
    if (source == Source::Auto && tsc_usable()) {
        ns_per_tick_ = calibrated_ns_per_tick();
        tsc_ = ns_per_tick_ > 0.0;
    }
    rebase();
}

ChunkClock::ChunkClock(double ns_per_tick, time_point steady_base, std::uint64_t tsc_base) noexcept
    : steady_base_(steady_base), tsc_base_(tsc_base), ns_per_tick_(ns_per_tick), tsc_(true) {}

void ChunkClock::rebase() noexcept {
    if (tsc_) {
        const BasePair pair = sample_pair();
        steady_base_ = pair.steady;
        tsc_base_ = pair.tsc;
    }
}

}  // namespace hdls::util
