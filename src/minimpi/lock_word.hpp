#pragma once
/// \file lock_word.hpp
/// Internal: the passive-target epoch lock word shared by both transports.
/// One 32-bit word per (window, target rank): bit 31 is the writer bit,
/// the low bits count shared holders.
///
/// Every transition is a CAS or fetch op, so an epoch can be *released
/// from any thread*. That is a requirement, not a convenience: epochs
/// belong to Window handles, and a handle's destructor may run far from
/// the thread that acquired (a handle stored outside the rank lambda, a
/// moved-to handle on another rank's stack) — which rules out OS rwlocks,
/// whose unlock is undefined from a non-owning thread. It also keeps the
/// word process-independent for the shm segment.
///
/// Not part of the public API.

#include <atomic>
#include <cstdint>

#include "minimpi/types.hpp"

namespace minimpi::detail {

inline constexpr std::uint32_t kEpochWriterBit = 0x8000'0000U;

/// One acquisition attempt; never blocks.
[[nodiscard]] inline bool epoch_try_lock(std::atomic<std::uint32_t>& word,
                                         LockType type) noexcept {
    if (type == LockType::Exclusive) {
        std::uint32_t expected = 0;
        return word.compare_exchange_strong(expected, kEpochWriterBit,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire);
    }
    std::uint32_t v = word.load(std::memory_order_acquire);
    while ((v & kEpochWriterBit) == 0) {
        if (word.compare_exchange_weak(v, v + 1, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
            return true;
        }
    }
    return false;
}

inline void epoch_unlock(std::atomic<std::uint32_t>& word, LockType type) noexcept {
    if (type == LockType::Exclusive) {
        word.store(0, std::memory_order_release);
    } else {
        word.fetch_sub(1, std::memory_order_acq_rel);
    }
}

}  // namespace minimpi::detail
