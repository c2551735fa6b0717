#include "trace/trace.hpp"

#include <algorithm>

namespace hdls::trace {

std::int64_t Trace::dropped() const noexcept {
    std::int64_t total = 0;
    for (const std::int64_t d : dropped_per_worker) {
        total += d;
    }
    return total;
}

std::int64_t Trace::count(EventKind kind) const noexcept {
    return static_cast<std::int64_t>(
        std::count_if(events.begin(), events.end(),
                      [kind](const Event& e) { return e.kind == kind; }));
}

std::int64_t Trace::count(EventKind kind, int worker) const noexcept {
    return static_cast<std::int64_t>(
        std::count_if(events.begin(), events.end(), [kind, worker](const Event& e) {
            return e.kind == kind && e.worker == worker;
        }));
}

std::int64_t Trace::global_chunks() const noexcept {
    return static_cast<std::int64_t>(
        std::count_if(events.begin(), events.end(), [](const Event& e) {
            return e.kind == EventKind::GlobalAcquire && e.b > 0;
        }));
}

double Trace::duration() const noexcept {
    double end = 0.0;
    for (const Event& e : events) {
        end = std::max(end, e.t1);
    }
    return end;
}

std::vector<Event> Trace::worker_events(int worker) const {
    std::vector<Event> out;
    for (const Event& e : events) {
        if (e.worker == worker) {
            out.push_back(e);
        }
    }
    return out;
}

}  // namespace hdls::trace
