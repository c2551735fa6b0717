/// \file team.cpp
/// ThreadTeam implementation: region dispatch and the centralized barrier
/// (the worksharing schedules are inline in team.hpp).

#include "ompsim/team.hpp"

#include <chrono>
#include <stdexcept>

namespace hdls::ompsim {

ThreadTeam::ThreadTeam(int num_threads) : ThreadTeam(num_threads, Placement{}) {}

ThreadTeam::ThreadTeam(int num_threads, const Placement& placement) {
    if (num_threads < 1) {
        throw std::invalid_argument("ThreadTeam: need at least one thread");
    }
    pin_policy_ = placement.policy;
    if (pin_policy_ == minimpi::PinPolicy::None) {
        pin_cpus_.assign(static_cast<std::size_t>(num_threads), -1);
    } else {
        const minimpi::HostTopology host = placement.host.sockets().empty()
                                               ? minimpi::HostTopology::detect()
                                               : placement.host;
        pin_cpus_ = host.plan(pin_policy_, placement.first_worker, num_threads);
        // The caller is thread 0: save its affinity (restored on destroy,
        // so a pinned team does not leak placement into its creator) and
        // pin it like any other member.
        caller_affinity_ = minimpi::current_thread_affinity();
        minimpi::pin_current_thread(pin_cpus_[0]);
    }
    workers_.reserve(static_cast<std::size_t>(num_threads - 1));
    for (int t = 1; t < num_threads; ++t) {
        workers_.emplace_back(
            [this, t](const std::stop_token& stop) { worker_main(t, stop); });
    }
}

ThreadTeam::~ThreadTeam() {
    {
        const std::lock_guard<std::mutex> lock(region_mutex_);
        for (auto& w : workers_) {
            w.request_stop();
        }
    }
    region_cv_.notify_all();
    // Join explicitly: `workers_` is declared before the condition
    // variables, so relying on std::jthread's auto-join would destroy the
    // cvs first and a worker still inside notify_all would touch a dead
    // object (caught by TSan).
    for (auto& w : workers_) {
        if (w.joinable()) {
            w.join();
        }
    }
    minimpi::set_current_thread_affinity(caller_affinity_);
}

void ThreadTeam::worker_main(int thread_id, const std::stop_token& stop) {
    minimpi::pin_current_thread(pin_cpus_[static_cast<std::size_t>(thread_id)]);
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(int)>* body = nullptr;
        {
            std::unique_lock<std::mutex> lock(region_mutex_);
            region_cv_.wait(lock, [&] {
                return stop.stop_requested() || region_generation_ > seen;
            });
            if (stop.stop_requested()) {
                return;
            }
            seen = region_generation_;
            body = region_body_;
        }
        current_thread_id_ = thread_id;
        (*body)(thread_id);
        current_thread_id_ = -1;
        {
            const std::lock_guard<std::mutex> lock(region_mutex_);
            region_done_.fetch_add(1, std::memory_order_acq_rel);
        }
        region_done_cv_.notify_all();
    }
}

void ThreadTeam::parallel(const std::function<void(int)>& body) {
    if (current_thread_id_ != -1 || in_region_) {
        throw std::logic_error("ThreadTeam: nested parallel regions are not supported");
    }
    {
        const std::lock_guard<std::mutex> lock(region_mutex_);
        in_region_ = true;
        region_body_ = &body;
        region_done_.store(0, std::memory_order_release);
        ++region_generation_;
    }
    region_cv_.notify_all();
    // The calling thread participates as thread 0 (the OpenMP master).
    current_thread_id_ = 0;
    body(0);
    current_thread_id_ = -1;
    {
        std::unique_lock<std::mutex> lock(region_mutex_);
        region_done_cv_.wait(lock, [&] {
            return region_done_.load(std::memory_order_acquire) ==
                   static_cast<int>(workers_.size());
        });
        region_body_ = nullptr;
        in_region_ = false;
    }
}

std::chrono::nanoseconds ThreadTeam::barrier() {
    if (current_thread_id_ == -1) {
        throw std::logic_error("ThreadTeam: barrier() outside a parallel region");
    }
    const auto idle_t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(barrier_mutex_);
    const std::uint64_t my_epoch = barrier_epoch_;
    if (++barrier_arrived_ == size()) {
        // Every member is here, so none is inside a worksharing construct:
        // reset the cursors for the next one.
        next_.store(0, std::memory_order_relaxed);
        step_.store(0, std::memory_order_relaxed);
        scheduled_.store(0, std::memory_order_relaxed);
        barrier_arrived_ = 0;
        ++barrier_epoch_;
        lock.unlock();
        barrier_cv_.notify_all();
        return std::chrono::nanoseconds{0};  // the releasing arrival waited for nobody
    }
    barrier_cv_.wait(lock, [&] { return barrier_epoch_ != my_epoch; });
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - idle_t0);
}

int ThreadTeam::pinned_cpu(int thread_id) const noexcept {
    if (thread_id < 0 || thread_id >= size()) {
        return -1;
    }
    return pin_cpus_[static_cast<std::size_t>(thread_id)];
}

}  // namespace hdls::ompsim
