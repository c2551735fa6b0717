#include "trace/recorder.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "metrics/metrics.hpp"
#include "util/log.hpp"

namespace hdls::trace {

namespace {

/// Maps a timestamp to an unsigned key with the same order (-0.0 and 0.0
/// share a key, as they compare equal).
[[nodiscard]] std::uint64_t order_key(double t) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(t + 0.0);
    constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
    return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// One event to place: its sort key and where it sits in its log.
struct Slot {
    std::uint64_t key;
    const Event* event;
};

/// Stable sort by key: an LSD radix sort over the 16-byte slots, linear
/// in the event count; byte positions on which every key agrees are
/// skipped.
void radix_sort(std::vector<Slot>& slots) {
    const std::size_t n = slots.size();
    std::array<std::array<std::size_t, 256>, 8> counts{};
    for (const Slot& s : slots) {
        for (std::size_t byte = 0; byte < 8; ++byte) {
            ++counts[byte][(s.key >> (8 * byte)) & 0xff];
        }
    }
    std::vector<Slot> scratch(n);
    for (std::size_t byte = 0; byte < 8; ++byte) {
        auto& count = counts[byte];
        const unsigned shift = static_cast<unsigned>(8 * byte);
        if (n == 0 || count[(slots[0].key >> shift) & 0xff] == n) {
            continue;
        }
        std::size_t offset = 0;
        for (std::size_t& c : count) {
            offset += std::exchange(c, offset);
        }
        for (const Slot& s : slots) {
            scratch[count[(s.key >> shift) & 0xff]++] = s;
        }
        slots.swap(scratch);
    }
}

}  // namespace

TraceSession::TraceSession(int workers, std::size_t capacity_per_worker, std::int32_t job)
    : epoch_(WorkerTracer::Clock::now()), job_(job) {
    if (workers < 1) {
        throw std::invalid_argument("TraceSession: need at least one worker");
    }
    logs_.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
        logs_.push_back(std::make_unique<EventLog>(capacity_per_worker));
    }
}

WorkerTracer TraceSession::tracer(int worker, int node) noexcept {
    if (worker < 0 || worker >= workers()) {
        return WorkerTracer{};
    }
    return WorkerTracer(logs_[static_cast<std::size_t>(worker)].get(), epoch_, worker, node, job_);
}

Trace TraceSession::merge() {
    Trace trace;
    trace.dropped_per_worker.assign(logs_.size(), 0);
    std::size_t total_events = 0;
    for (const auto& log : logs_) {
        total_events += log->size();
    }
    // Slots are collected worker by worker, in record order, so a stable
    // sort by t0 breaks ties by worker and then by record order: the
    // (t0, worker) order a merged Trace promises. Each event is then
    // copied once, from its log straight to its final place.
    std::vector<Slot> slots;
    slots.reserve(total_events);
    std::int64_t total_dropped = 0;
    for (std::size_t w = 0; w < logs_.size(); ++w) {
        logs_[w]->for_each([&](const Event& e) { slots.push_back({order_key(e.t0), &e}); });
        trace.dropped_per_worker[w] = static_cast<std::int64_t>(logs_[w]->dropped());
        total_dropped += trace.dropped_per_worker[w];
    }
    if (total_dropped > 0) {
        // The drop counts used to be visible only to callers who went on to
        // run trace::analyze — surface the loss where it happens.
        metrics::rt().trace_ring_dropped->inc(static_cast<std::uint64_t>(total_dropped));
        util::log_warn("trace: per-worker event logs dropped ", total_dropped,
                       " event(s); the merged trace is incomplete (raise "
                       "HierConfig::trace_capacity or SimConfig::trace_capacity to keep them)");
    }
    radix_sort(slots);
    // Normalize to the trace origin: t=0 is the earliest recorded event.
    const double origin = slots.empty() ? 0.0 : slots.front().event->t0;
    trace.events.reserve(slots.size());
    for (const Slot& s : slots) {
        Event e = *s.event;
        e.t0 -= origin;
        e.t1 -= origin;
        trace.events.push_back(e);
    }
    for (const auto& log : logs_) {
        log->clear();
    }
    return trace;
}

std::shared_ptr<const Trace> TraceSession::finish(TraceMeta meta) {
    Trace merged = merge();
    merged.meta = std::move(meta);
    return std::make_shared<const Trace>(std::move(merged));
}

}  // namespace hdls::trace
