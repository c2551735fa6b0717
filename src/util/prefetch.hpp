#pragma once
/// \file prefetch.hpp
/// Software-prefetch helpers for intra-chunk latency hiding.
///
/// Chunk prefetching hides *scheduling* latency by double-buffering the
/// next chunk acquisition behind the current chunk's compute. These are
/// the intra-chunk analog: hide *memory* latency by issuing a prefetch for
/// the data a loop will touch a fixed distance ahead of where it is
/// computing. prefetch_read / prefetch_write are thin, always-safe
/// wrappers over __builtin_prefetch: prefetching never faults, so callers
/// may form addresses past the end of an array without touching them.
/// The PSIA batch kernel prefetches its point-cloud gather ahead of use,
/// and the trace EventLog prefetches its next slot for writing.
///
/// When does this help? Gather-style loops whose next addresses are known
/// early but whose stride defeats the hardware prefetcher (the PSIA
/// point-cloud gather at 48-byte stride with a filter between loads), and
/// linked/indexed structures. Contiguous unit-stride streams gain little —
/// the hardware prefetcher already runs ahead of those.

namespace hdls::util {

/// Locality hints mirroring __builtin_prefetch's third argument.
enum class PrefetchLocality : int {
    None = 0,  ///< streamed once, evict early (NTA)
    Low = 1,
    Moderate = 2,
    High = 3,  ///< keep in all cache levels
};

/// Prefetches the line containing `p` for a future read. `p` may point
/// anywhere (including past the end of an allocation): the address is
/// never dereferenced.
template <typename T>
inline void prefetch_read(const T* p,
                          PrefetchLocality locality = PrefetchLocality::High) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    switch (locality) {
        case PrefetchLocality::None:
            __builtin_prefetch(static_cast<const void*>(p), 0, 0);
            break;
        case PrefetchLocality::Low:
            __builtin_prefetch(static_cast<const void*>(p), 0, 1);
            break;
        case PrefetchLocality::Moderate:
            __builtin_prefetch(static_cast<const void*>(p), 0, 2);
            break;
        case PrefetchLocality::High:
            __builtin_prefetch(static_cast<const void*>(p), 0, 3);
            break;
    }
#else
    (void)p;
    (void)locality;
#endif
}

/// Prefetches the line containing `p` for a future write (read-for-
/// ownership on coherent systems).
template <typename T>
inline void prefetch_write(T* p,
                           PrefetchLocality locality = PrefetchLocality::High) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(static_cast<const void*>(p), 1, static_cast<int>(locality));
#else
    (void)p;
    (void)locality;
#endif
}

}  // namespace hdls::util
