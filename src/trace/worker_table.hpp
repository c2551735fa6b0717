#pragma once
/// \file worker_table.hpp
/// Internal to the trace library: per-worker state for one pass over a
/// trace, in flat storage indexed by worker id.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hdls::trace::detail {

/// One State per worker id, default-constructed on the id's first use.
/// The table starts out covering ids [0, workers) — a recorded trace's
/// ids — and widens on demand to any id a hand-built trace uses, negative
/// or past that range; its memory is linear in the span of ids seen.
template <typename State>
class WorkerTable {
public:
    explicit WorkerTable(int workers) : slots_(static_cast<std::size_t>(std::max(workers, 0))) {}

    /// The state of `worker`, and whether this call is its first use.
    std::pair<State&, bool> at(int worker) {
        auto i = static_cast<std::size_t>(std::int64_t{worker} - lo_);
        if (i >= slots_.size()) [[unlikely]] {
            widen(worker);
            i = static_cast<std::size_t>(std::int64_t{worker} - lo_);
        }
        Slot& slot = slots_[i];
        const bool first = !slot.used;
        slot.used = true;
        return {slot.state, first};
    }

    /// Calls f(worker, state) for every used id, in ascending order.
    template <typename F>
    void for_each(F&& f) {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].used) {
                f(static_cast<int>(lo_ + static_cast<std::int64_t>(i)), slots_[i].state);
            }
        }
    }

private:
    struct Slot {
        State state{};
        bool used = false;
    };

    /// Covers `worker`, at least doubling the span, so that ids met one by
    /// one cost amortized constant time.
    void widen(std::int64_t worker) {
        const auto size = static_cast<std::int64_t>(slots_.size());
        std::int64_t lo = lo_;
        std::int64_t end = lo_ + size;
        if (worker < lo) {
            lo = std::min(worker, lo_ - size);
        } else {
            end = std::max(worker + 1, lo_ + 2 * size);
        }
        std::vector<Slot> wider(static_cast<std::size_t>(end - lo));
        std::move(slots_.begin(), slots_.end(), wider.begin() + (lo_ - lo));
        slots_ = std::move(wider);
        lo_ = lo;
    }

    std::int64_t lo_ = 0;  ///< worker id of slots_[0]
    std::vector<Slot> slots_;
};

}  // namespace hdls::trace::detail
