#pragma once
/// \file sort.hpp
/// Internal to the trace library: the stable radix sort that orders a
/// merged trace by timestamp and the analysis's lock-wait sample by value.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hdls::trace::detail {

/// Maps a double to an unsigned key with the same order (-0.0 and 0.0
/// share a key, as they compare equal).
[[nodiscard]] inline std::uint64_t order_key(double t) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(t + 0.0);
    constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
    return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// Stable sort of `items` by `key_of(item)` (a std::uint64_t): an LSD
/// radix sort, linear in the item count; byte positions on which every
/// key agrees are skipped.
template <typename T, typename KeyOf>
void radix_sort(std::vector<T>& items, KeyOf key_of) {
    const std::size_t n = items.size();
    std::array<std::array<std::size_t, 256>, 8> counts{};
    for (const T& item : items) {
        const std::uint64_t key = key_of(item);
        for (std::size_t byte = 0; byte < 8; ++byte) {
            ++counts[byte][(key >> (8 * byte)) & 0xff];
        }
    }
    std::vector<T> scratch(n);
    for (std::size_t byte = 0; byte < 8; ++byte) {
        auto& count = counts[byte];
        const unsigned shift = static_cast<unsigned>(8 * byte);
        if (n == 0 || count[(key_of(items[0]) >> shift) & 0xff] == n) {
            continue;
        }
        std::size_t offset = 0;
        for (std::size_t& c : count) {
            offset += std::exchange(c, offset);
        }
        for (const T& item : items) {
            scratch[count[(key_of(item) >> shift) & 0xff]++] = item;
        }
        items.swap(scratch);
    }
}

}  // namespace hdls::trace::detail
