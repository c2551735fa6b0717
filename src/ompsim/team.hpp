#pragma once
/// \file team.hpp
/// Fork-join thread team with OpenMP-style worksharing loops.
///
/// A ThreadTeam owns `size()` persistent worker threads. `parallel(body)`
/// corresponds to `#pragma omp parallel`: every thread runs body(thread_id)
/// and the call returns after an implicit join barrier. Inside the parallel
/// region, `for_chunks` corresponds to `#pragma omp for schedule(...)` with
/// the implicit end-of-loop barrier the paper's Figure 2 identifies as the
/// MPI+OpenMP bottleneck. The team has no `nowait` (the paper's Section 6
/// future work), and neither has the simulator's MPI+OpenMP model.
///
/// The team keeps no metrics: barrier() and for_chunks() return how long
/// the calling thread waited, and the caller reports it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dls/chunk_formulas.hpp"
#include "minimpi/host_topology.hpp"
#include "ompsim/schedule.hpp"

namespace hdls::ompsim {

/// Persistent fork-join team (non-copyable; joins its threads on destruction).
class ThreadTeam {
public:
    /// Where this team's members land on the host (HDLS_PIN).
    struct Placement {
        minimpi::PinPolicy policy = minimpi::PinPolicy::None;
        /// Socket layout to plan over; empty (no sockets) means "detect at
        /// team construction". Tests inject HostTopology::uniform here.
        minimpi::HostTopology host;
        /// Global worker index of this team's thread 0, so co-located teams
        /// (one per rank under the threads transport) interleave over the
        /// host CPUs instead of stacking onto the same cores.
        int first_worker = 0;
    };

    explicit ThreadTeam(int num_threads);
    ThreadTeam(int num_threads, const Placement& placement);
    ~ThreadTeam();

    ThreadTeam(const ThreadTeam&) = delete;
    ThreadTeam& operator=(const ThreadTeam&) = delete;

    [[nodiscard]] int size() const noexcept { return static_cast<int>(workers_.size()) + 1; }

    /// Fork-join parallel region: body(thread_id) runs on every team member
    /// (the calling thread acts as thread 0, like the OpenMP master).
    /// Returns after all members finish. Not reentrant (no nested regions).
    void parallel(const std::function<void(int thread_id)>& body);

    /// Team-wide barrier; callable only inside parallel(). Returns how long
    /// the caller waited (steady_clock; zero for the arrival that releases
    /// the team).
    std::chrono::nanoseconds barrier();

    /// Worksharing loop over [begin, end): body(b, e, thread_id) runs for
    /// each sub-chunk the schedule hands the calling thread, then the
    /// implicit barrier. Callable only inside parallel(); every team member
    /// must reach it with the same arguments (standard OpenMP rule).
    /// Returns the caller's wait at the implicit barrier.
    template <typename Body>
    std::chrono::nanoseconds for_chunks(std::int64_t begin, std::int64_t end,
                                        const ForOptions& opts, Body&& body);

    /// One-call convenience: parallel region containing a single
    /// worksharing loop (what `#pragma omp parallel for` expands to).
    template <typename Body>
    void parallel_for(std::int64_t begin, std::int64_t end, const ForOptions& opts,
                      Body&& body) {
        parallel([&](int /*tid*/) { (void)for_chunks(begin, end, opts, body); });
    }

    /// The CPU thread `thread_id` is pinned to, or -1 when unpinned.
    [[nodiscard]] int pinned_cpu(int thread_id) const noexcept;
    [[nodiscard]] minimpi::PinPolicy pin_policy() const noexcept { return pin_policy_; }

private:
    void worker_main(int thread_id, const std::stop_token& stop);

    // thread-id of the calling thread within the current region (TLS).
    static inline thread_local int current_thread_id_ = -1;

    // Placement plan: per-thread CPU (or -1), set before workers start.
    minimpi::PinPolicy pin_policy_ = minimpi::PinPolicy::None;
    std::vector<int> pin_cpus_;
    // Thread 0 is the caller, whose affinity we change; restored on destroy.
    std::vector<int> caller_affinity_;

    std::vector<std::jthread> workers_;

    // Region dispatch.
    std::mutex region_mutex_;
    std::condition_variable region_cv_;
    std::uint64_t region_generation_ = 0;
    const std::function<void(int)>* region_body_ = nullptr;
    std::atomic<int> region_done_{0};
    std::condition_variable region_done_cv_;
    bool in_region_ = false;

    // Centralized sense-reversing barrier.
    std::mutex barrier_mutex_;
    std::condition_variable barrier_cv_;
    int barrier_arrived_ = 0;
    std::uint64_t barrier_epoch_ = 0;

    // Cursors of the current worksharing construct, as offsets from its
    // begin. The arrival that releases a barrier zeroes them: no member
    // is inside a construct then, and the implicit barrier orders
    // back-to-back constructs, so one set serves every construct.
    std::atomic<std::int64_t> next_{0};       // dynamic/guided: first unassigned offset
    std::atomic<std::int64_t> step_{0};       // tss/fac2: scheduling step
    std::atomic<std::int64_t> scheduled_{0};  // tss/fac2: iterations handed out
};

template <typename Body>
std::chrono::nanoseconds ThreadTeam::for_chunks(std::int64_t begin, std::int64_t end,
                                                const ForOptions& opts, Body&& body) {
    const int tid = current_thread_id_;
    if (tid == -1) {
        throw std::logic_error("ThreadTeam: for_chunks() outside a parallel region");
    }
    if (end < begin) {
        throw std::invalid_argument("ThreadTeam: end must be >= begin");
    }
    const std::int64_t n = end - begin;
    const auto team = static_cast<std::int64_t>(size());
    // Grain of every kind but schedule(static): the clause's chunk, at least 1.
    const std::int64_t k = std::max<std::int64_t>(opts.chunk, 1);
    switch (opts.schedule) {
        case Schedule::Static: {
            if (opts.chunk > 0) {
                // schedule(static, k): round-robin k-chunks by thread id.
                for (std::int64_t s = begin + tid * k; s < end; s += team * k) {
                    body(s, std::min(s + k, end), tid);
                }
            } else {
                // schedule(static): one contiguous block per thread, the
                // first n mod team threads one iteration longer.
                const std::int64_t base = n / team;
                const std::int64_t extra = n % team;
                const std::int64_t mine_begin =
                    begin + tid * base + std::min<std::int64_t>(tid, extra);
                const std::int64_t mine_len = base + (tid < extra ? 1 : 0);
                if (mine_len > 0) {
                    body(mine_begin, mine_begin + mine_len, tid);
                }
            }
            break;
        }
        case Schedule::Dynamic: {
            for (;;) {
                const std::int64_t cur = next_.fetch_add(k, std::memory_order_acq_rel);
                if (cur >= n) {
                    break;
                }
                body(begin + cur, begin + std::min(cur + k, n), tid);
            }
            break;
        }
        case Schedule::Guided: {
            // chunk = max(ceil(remaining / P), k) — the GSS rule, matching
            // the paper's Table 1 equivalence guided(1) == GSS.
            std::int64_t cur = next_.load(std::memory_order_acquire);
            while (cur < n) {
                const std::int64_t remaining = n - cur;
                const std::int64_t size_c =
                    std::min(std::max((remaining + team - 1) / team, k), remaining);
                if (next_.compare_exchange_weak(cur, cur + size_c, std::memory_order_acq_rel)) {
                    body(begin + cur, begin + cur + size_c, tid);
                    cur = next_.load(std::memory_order_acquire);
                }
                // on CAS failure `cur` was reloaded; retry with the new value
            }
            break;
        }
        case Schedule::Tss:
        case Schedule::Fac2: {
            // Extension schedules via the step-indexed DLS formulas — the
            // same distributed chunk-calculation protocol the MPI side uses.
            dls::LoopParams p;
            p.total_iterations = n;
            p.workers = static_cast<int>(team);
            p.min_chunk = k;
            const auto tech =
                opts.schedule == Schedule::Tss ? dls::Technique::TSS : dls::Technique::FAC2;
            for (;;) {
                const std::int64_t step = step_.fetch_add(1, std::memory_order_acq_rel);
                const std::int64_t hint = dls::chunk_size_for_step(tech, p, step);
                const std::int64_t start = scheduled_.fetch_add(hint, std::memory_order_acq_rel);
                if (start >= n) {
                    break;
                }
                body(begin + start, begin + start + std::min(hint, n - start), tid);
            }
            break;
        }
    }
    return barrier();
}

}  // namespace hdls::ompsim
