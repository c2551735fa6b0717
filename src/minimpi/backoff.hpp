#pragma once
/// \file backoff.hpp
/// Lock-polling policy of the passive-target windows.
///
/// MPI_Win_lock on a contended target is a polling protocol: a blocked
/// origin re-sends lock-attempt messages until the target grants the
/// epoch (Zhao, Balaji & Gropp, ISPDC'16 — the cost the paper's intra-node
/// SS discussion revolves around). The thread-backed runtime mirrors that
/// with a try_lock polling loop, whose retry cadence is selectable:
///
///  * Spin    — naive polling: retry immediately after a yield, the
///              closest analogue of a fixed-period lock-attempt storm;
///  * Backoff — exponential pause/yield/sleep ladder (the default): a few
///              cache-polite pause spins for short holds, then scheduler
///              yields, then exponentially growing sleeps capped in the
///              hundreds of microseconds — contended handoffs stop
///              hammering the lock line and the waiters' attempt traffic
///              collapses (bench_ablation_lock_polling measures the
///              difference);
///  * Block   — hand the wait to the OS primitive entirely (no polling;
///              not what an MPI RMA agent can do, kept for comparison).
///
/// The policy is process-global and meant to be set once at startup (or
/// flipped between runs by benches); reads are a relaxed atomic load on
/// the uncontended fast path.

#include <atomic>
#include <chrono>
#include <thread>

#include "metrics/metrics.hpp"

namespace minimpi {

enum class LockPolicy {
    Spin,     ///< yield-and-retry every iteration
    Backoff,  ///< exponential pause/yield/sleep ladder (default)
    Block,    ///< blocking OS lock, no polling
};

/// Current window lock-acquisition policy (default LockPolicy::Backoff).
[[nodiscard]] LockPolicy lock_policy() noexcept;

/// Replaces the policy for subsequent Window::lock calls.
void set_lock_policy(LockPolicy policy) noexcept;

/// One spin-wait hint to the core (x86 pause, AArch64 yield): a polling
/// loop calls it between reads of the word it waits on.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::this_thread::yield();
#endif
}

/// The exponential backoff ladder: call pause() after every failed
/// acquisition attempt. Stateful and cheap — a handful of on-core pause
/// instructions first, then scheduler yields, then exponentially growing
/// sleeps (1us doubling to a 256us cap), so waiters cost almost nothing
/// whether the hold is tens of nanoseconds or milliseconds.
class Backoff {
public:
    void pause() noexcept {
        if (attempts_ < kPauseAttempts) {
            ++attempts_;
            cpu_relax();
            return;
        }
        if (attempts_ < kPauseAttempts + kYieldAttempts) {
            ++attempts_;
            // Metrics only past the pause phase: a yield/sleep costs µs, so
            // the relaxed fetch_add is noise there; the pause spins stay
            // instrumentation-free.
            hdls::metrics::rt().window_backoff_yields->inc();
            std::this_thread::yield();
            return;
        }
        hdls::metrics::rt().window_backoff_sleeps->inc();
        std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
        if (sleep_us_ < kMaxSleepUs) {
            sleep_us_ *= 2;
        }
    }

    void reset() noexcept {
        attempts_ = 0;
        sleep_us_ = 1;
    }

private:
    static constexpr int kPauseAttempts = 64;
    static constexpr int kYieldAttempts = 32;
    static constexpr int kMaxSleepUs = 256;

    int attempts_ = 0;
    int sleep_us_ = 1;
};

}  // namespace minimpi
