#pragma once
/// \file comm.hpp
/// Communicators: collectives with MPI semantics, communicator splitting
/// and the per-rank liveness words.
///
/// A Comm is a cheap value handle. Copies held by the *same* rank share
/// their collective-sequence bookkeeping; using one communicator from two
/// threads of the same rank is undefined (as in MPI without THREAD_MULTIPLE).
///
/// Collectives travel over the runtime mailboxes (mailbox.hpp). Every
/// message of a collective carries its communicator id, the collective's
/// per-communicator sequence number and the algorithm phase, and a receive
/// matches exactly on those plus the source rank, so concurrent collectives
/// on different communicators never cross.

#include <memory>
#include <span>
#include <vector>

#include "minimpi/state.hpp"
#include "minimpi/topology.hpp"
#include "minimpi/types.hpp"

namespace minimpi {

/// An ordered group of ranks with its own message-matching context.
class Comm {
public:
    /// Default-constructed handles are invalid; obtain real ones from
    /// Context::world(), split() or split_type().
    Comm() = default;

    [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
    [[nodiscard]] int rank() const noexcept { return rank_; }
    [[nodiscard]] int size() const noexcept {
        return meta_ ? static_cast<int>(meta_->members.size()) : 0;
    }
    [[nodiscard]] std::uint64_t id() const noexcept { return meta_ ? meta_->id : 0; }

    /// World rank backing a rank of this communicator.
    [[nodiscard]] int world_rank_of(int comm_rank) const;

    // ------------------------------------------------------ collectives ----
    // All ranks of the communicator must call collectives in the same order
    // (standard MPI requirement); the implementation relies on it to pair
    // messages of concurrent collectives via a per-comm sequence number.

    void barrier() const;

    template <Pod T>
    void bcast(T& value, int root) const {
        bcast_bytes(&value, sizeof(T), root);
    }

    template <Pod T>
    void bcast(std::span<T> values, int root) const {
        bcast_bytes(values.data(), values.size_bytes(), root);
    }

    /// Gather fixed-size contributions; `out` must hold size()*in.size()
    /// elements at root (ignored elsewhere).
    template <Pod T>
    void gather(std::span<const T> in, std::span<T> out, int root) const {
        gather_bytes(in.data(), in.size_bytes(), rank_ == root ? out.data() : nullptr,
                     rank_ == root ? out.size_bytes() : 0, root);
    }

    template <Pod T>
    void allgather(std::span<const T> in, std::span<T> out) const {
        gather(in, out, 0);
        bcast(out, 0);
    }

    template <Pod T>
    [[nodiscard]] std::vector<T> allgather(const T& value) const {
        std::vector<T> out(static_cast<std::size_t>(size()));
        allgather(std::span<const T>(&value, 1), std::span<T>(out));
        return out;
    }

    // ------------------------------------------------ comm management ----

    /// MPI_Comm_split: ranks with equal `color` form a new communicator,
    /// ordered by (key, old rank). color < 0 means "not participating"
    /// (returns an invalid Comm, like MPI_COMM_NULL).
    [[nodiscard]] Comm split(int color, int key) const;

    /// MPI_Comm_split_type(MPI_COMM_TYPE_SHARED): one communicator per
    /// simulated compute node.
    [[nodiscard]] Comm split_type(SplitType type, int key) const;

    /// Node id (in the runtime topology) hosting a rank of this comm.
    [[nodiscard]] int node_of(int comm_rank) const;

    // ------------------------------------------------------- liveness ----
    // Per-rank heartbeat words and the sticky dead set, owned by the
    // transport (see transport.hpp). These back lease-based fault
    // tolerance (core::LeaseBoard, docs/fault-tolerance.md): workers bump
    // their own word at chunk boundaries, a failure detector declares a
    // rank whose word stops moving dead, and the lease layer reclaims the
    // dead rank's unfinished chunks. Ranks are *this communicator's* ranks
    // (translated to world ranks internally).

    /// Bumps this rank's heartbeat counter.
    void beat() const;

    /// Reads a member's heartbeat counter.
    [[nodiscard]] std::uint64_t heartbeat_of(int comm_rank) const;

    /// Declares a member dead (sticky for the rest of the run).
    void mark_dead(int comm_rank) const;

    [[nodiscard]] bool is_dead(int comm_rank) const;

    /// Members not marked dead.
    [[nodiscard]] int alive() const;

    /// Polls the runtime abort flag and throws ErrorCode::Aborted when a
    /// peer failed — the check every lease-layer wait loop interleaves so
    /// it can never outlive an aborting team.
    void poll_abort() const { require_valid(); state_->check_abort(); }

private:
    friend class Context;
    friend class Runtime;
    friend class Window;

    Comm(detail::RuntimeState* state, std::shared_ptr<const detail::CommMeta> meta,
         int my_rank)
        : state_(state),
          meta_(std::move(meta)),
          counters_(std::make_shared<detail::CommCounters>()),
          rank_(my_rank) {}

    void require_valid() const;
    void check_root(int root) const;

    // Collective internals (implemented in comm.cpp).
    void bcast_bytes(void* data, std::size_t bytes, int root) const;
    void gather_bytes(const void* in, std::size_t in_bytes, void* out, std::size_t out_bytes,
                      int root) const;

    void coll_send(const void* data, std::size_t bytes, int dst, int phase,
                   std::uint64_t cseq) const;
    void coll_recv(void* data, std::size_t max_bytes, int src, int phase,
                   std::uint64_t cseq) const;

    detail::RuntimeState* state_ = nullptr;
    std::shared_ptr<const detail::CommMeta> meta_;
    std::shared_ptr<detail::CommCounters> counters_;
    int rank_ = -1;
};

}  // namespace minimpi
