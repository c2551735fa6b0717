#pragma once
/// \file schedule.hpp
/// Loop schedules of the OpenMP-like shim.
///
/// The shim ("ompsim") stands in for the OpenMP runtime in the paper's
/// MPI+OpenMP baseline. It implements the three schedule kinds of the
/// OpenMP 5 `schedule` clause with the semantics the paper's Table 1 maps
/// onto DLS techniques:
///
///     STATIC -> schedule(static)        Static (chunk 0: blocks; k: round-robin)
///     SS     -> schedule(dynamic,1)     Dynamic with chunk 1
///     GSS    -> schedule(guided,1)      Guided with chunk 1
///
/// plus, as the extension the paper cites from LaPeSD-libGOMP (Ciorba,
/// Iwainsky & Buder, iWomp'18) and plans as future work, the TSS and FAC2
/// schedules. Every construct ends with the implicit barrier; the paper's
/// other future-work item, `nowait`, is neither executed nor simulated.

#include <cstdint>
#include <optional>

#include "dls/technique.hpp"

namespace hdls::ompsim {

/// Schedule kinds for ThreadTeam::for_chunks.
enum class Schedule {
    Static,   ///< schedule(static[, k]): one block per thread, or round-robin k-chunks
    Dynamic,  ///< schedule(dynamic, k): shared-counter self-scheduling
    Guided,   ///< schedule(guided, k): chunk = max(ceil(remaining/P), k)
    Tss,      ///< extension: trapezoid self-scheduling (LaPeSD-libGOMP)
    Fac2,     ///< extension: practical factoring (LaPeSD-libGOMP)
};

/// Options of one worksharing construct (its `schedule(...)` clause).
struct ForOptions {
    Schedule schedule = Schedule::Static;
    /// Chunk size parameter of the clause; 0 = kind-specific default
    /// (static: block partition; dynamic/guided: 1).
    std::int64_t chunk = 0;
};

/// Table 1 of the paper: the OpenMP schedule equivalent to a DLS technique,
/// or std::nullopt for techniques the (Intel) OpenMP runtime cannot express
/// (TSS, FAC2, ... — expressible here only through the extension kinds).
[[nodiscard]] std::optional<ForOptions> openmp_equivalent(dls::Technique t) noexcept;

/// The extended mapping including the LaPeSD-libGOMP-style schedules: the
/// schedule the MPI+OpenMP baseline's team runs for a leaf technique.
[[nodiscard]] std::optional<ForOptions> extended_equivalent(dls::Technique t) noexcept;

}  // namespace hdls::ompsim
