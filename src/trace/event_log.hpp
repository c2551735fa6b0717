#pragma once
/// \file event_log.hpp
/// Per-worker, append-only event storage that grows on demand.
///
/// One producer (the traced worker thread, or the simulation thread for
/// every simulated worker) appends; the post-run merge takes the events
/// once every producer has stopped. The merge is ordered after the last
/// append by the executor's thread join, so the log needs no atomics.
///
/// Storage is allocated lazily in blocks that double from kFirstBlock up
/// to kMaxBlock events, never past the per-worker cap: a log that records
/// nothing owns no memory, and a full block is never copied or moved, so
/// a worker pays at most one block allocation at a boundary, not a
/// relocation of everything recorded so far. Past the cap (or when a
/// block cannot be allocated) the event is dropped and counted instead:
/// tracing must never perturb the schedule it observes. The drop count is
/// carried into the merged Trace so analyses can flag truncated workers.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "trace/event.hpp"
#include "util/prefetch.hpp"

namespace hdls::trace {

class EventLog {
public:
    static constexpr std::size_t kFirstBlock = 64;  ///< events in the first block
    static constexpr std::size_t kMaxBlock = 4096;  ///< events per block at most

    /// `capacity` caps the events kept; it is exact (no rounding).
    explicit EventLog(std::size_t capacity) noexcept : capacity_(capacity) {}
    ~EventLog() { clear(); }

    EventLog(const EventLog&) = delete;
    EventLog& operator=(const EventLog&) = delete;

    /// Producer side. Returns false (and counts a drop) past the cap.
    bool append(const Event& e) noexcept {
        if (next_ == end_ && !grow()) {
            ++dropped_;
            return false;
        }
        std::construct_at(next_++, e);
        // Warm the line the next record ends in: a simulation appends to
        // every worker's log in turn, more streams than the hardware
        // prefetcher follows.
        if (next_ != end_) {
            util::prefetch_write(reinterpret_cast<const char*>(next_ + 1) - 1);
        }
        return true;
    }

    /// Events currently held.
    [[nodiscard]] std::size_t size() const noexcept {
        return allocated_ - static_cast<std::size_t>(end_ - next_);
    }

    /// Events allocated for (recorded or not); 0 until the first append.
    [[nodiscard]] std::size_t allocated() const noexcept { return allocated_; }

    /// Events discarded because the log was full.
    [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

    /// Calls f(const Event&) for every held event, in record order.
    template <typename F>
    void for_each(F&& f) const {
        for (const Block& b : blocks_) {
            const Event* last = &b == &blocks_.back() ? next_ : b.data + b.size;
            for (const Event* e = b.data; e != last; ++e) {
                f(*e);
            }
        }
    }

    /// Frees the storage (the log is empty afterwards and may record
    /// again; the drop count persists).
    void clear() noexcept {
        for (const Block& b : blocks_) {
            std::allocator<Event>{}.deallocate(b.data, b.size);
        }
        blocks_.clear();
        next_ = end_ = nullptr;
        allocated_ = 0;
    }

private:
    static_assert(std::is_trivially_copyable_v<Event> &&
                  std::is_trivially_destructible_v<Event>);

    struct Block {
        Event* data;
        std::size_t size;
    };

    bool grow() noexcept {
        const std::size_t room = capacity_ - allocated_;
        if (room == 0) {
            return false;
        }
        const std::size_t want =
            blocks_.empty() ? kFirstBlock : std::min(blocks_.back().size * 2, kMaxBlock);
        const std::size_t n = std::min(want, room);
        Event* data = nullptr;
        try {
            data = std::allocator<Event>{}.allocate(n);
            blocks_.push_back({data, n});
        } catch (const std::bad_alloc&) {
            if (data != nullptr) {
                std::allocator<Event>{}.deallocate(data, n);
            }
            return false;
        }
        next_ = data;
        end_ = data + n;
        allocated_ += n;
        return true;
    }

    Event* next_ = nullptr;  ///< next free slot of the newest block
    Event* end_ = nullptr;   ///< end of the newest block
    std::size_t allocated_ = 0;
    std::size_t dropped_ = 0;
    std::size_t capacity_;
    std::vector<Block> blocks_;
};

}  // namespace hdls::trace
