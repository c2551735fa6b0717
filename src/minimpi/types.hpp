#pragma once
/// \file types.hpp
/// Common types, constants and errors of the minimpi runtime.
///
/// minimpi is a *thread-backed* implementation of the MPI-3 subset the
/// paper's MPI+MPI approach relies on: four collectives (barrier, bcast,
/// gather, allgather), communicator splitting (including the
/// shared-memory split of MPI_Comm_split_type) and passive-target
/// one-sided windows: MPI_Win_allocate_shared, MPI_Win_lock/unlock,
/// MPI_Fetch_and_op and MPI_Compare_and_swap. Ranks are threads inside one
/// process; a Topology assigns ranks to simulated "compute nodes" so that
/// node-level splitting behaves exactly like MPI_COMM_TYPE_SHARED on a
/// real cluster.
///
/// The public API mirrors MPI *semantics* (collective call ordering,
/// exclusive/shared passive-target locks, element-wise atomicity of
/// accumulate operations) with idiomatic C++ surface (RAII, spans, enums,
/// exceptions instead of error codes).

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace minimpi {

/// Error categories (loosely mirrors the MPI error classes we can hit).
enum class ErrorCode {
    InvalidRank,
    InvalidArgument,
    WindowUsage,    ///< invalid window, access past a segment, epoch misuse
    Aborted,        ///< another rank terminated with an exception
    Resource,       ///< transport resource exhausted (shm segment, slot capacity)
    Internal,
};

/// Exception thrown by all minimpi operations on failure.
class Error : public std::runtime_error {
public:
    Error(ErrorCode code, const std::string& what) : std::runtime_error(what), code_(code) {}
    [[nodiscard]] ErrorCode code() const noexcept { return code_; }

private:
    ErrorCode code_;
};

/// Comm::split_type selector (subset of MPI_COMM_TYPE_*).
enum class SplitType {
    Shared,  ///< ranks that share a simulated compute node (MPI_COMM_TYPE_SHARED)
};

/// Passive-target lock type (MPI_LOCK_EXCLUSIVE / MPI_LOCK_SHARED).
enum class LockType { Exclusive, Shared };

/// Element-wise atomic op for Window::fetch_and_op (the subset of MPI_Op
/// the scheduling protocols use).
enum class AccumulateOp {
    Sum,      ///< MPI_SUM
    Replace,  ///< MPI_REPLACE
    NoOp,     ///< MPI_NO_OP — atomic read
};

/// Only trivially copyable types travel through collectives and windows.
template <typename T>
concept Pod = std::is_trivially_copyable_v<T>;

}  // namespace minimpi
