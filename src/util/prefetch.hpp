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

/// Prefetches the line containing `p` for a future read, keeping it in
/// every cache level (locality hint 3). `p` may point anywhere (including
/// past the end of an allocation): the address is never dereferenced.
template <typename T>
inline void prefetch_read(const T* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(static_cast<const void*>(p), 0, 3);
#else
    (void)p;
#endif
}

/// Prefetches the line containing `p` for a future write (read-for-
/// ownership on coherent systems), locality hint 3 as prefetch_read.
template <typename T>
inline void prefetch_write(T* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(static_cast<const void*>(p), 1, 3);
#else
    (void)p;
#endif
}

}  // namespace hdls::util
