#pragma once
/// \file window.hpp
/// One-sided (RMA) windows with MPI-3 passive-target semantics, including
/// the shared-memory windows (MPI_Win_allocate_shared) at the heart of the
/// paper's MPI+MPI approach.
///
/// Semantics preserved from MPI-3:
///  * allocate_shared is collective over a communicator whose ranks share a
///    node; each rank contributes a segment and can address every segment
///    directly (shared_query).
///  * lock/unlock open and close passive-target access epochs; Exclusive
///    locks on the same target rank are mutually exclusive, Shared locks
///    admit concurrent readers.
///  * fetch_and_op / compare_and_swap are element-wise atomic with respect
///    to every other accumulate access to the same location, regardless of
///    locks — exactly the property the distributed chunk-calculation
///    protocol relies on.
///  * flush/sync order memory accesses (mapped to seq-cst fences here).
///
/// The backing store and the lock table live behind the transport seam
/// (detail::WindowStorage): a heap buffer on the thread transport, the
/// shm arena on the shm transport, both with per-rank epoch lock words
/// (lock_word.hpp — releasable from any thread, because epochs belong to
/// Window handles and a handle may be destroyed anywhere). Window itself
/// only computes offsets and enforces epoch/abort semantics.

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "minimpi/backoff.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/transport.hpp"

namespace minimpi {

/// Request handle of a nonblocking CAS-retry transform (the request-based
/// RMA shape of MPI_Rget_accumulate + MPI_Test/MPI_Wait): the origin
/// issues the update with Window::start_atomic_update, overlaps whatever
/// it likes, and completes through test()/wait(). Each test() makes
/// exactly one compare-and-swap attempt — a failed attempt refreshes the
/// expected value and advances the Backoff ladder, so a polling origin
/// degrades as gracefully as a blocked Window::lock origin does.
///
/// A default-constructed request is already complete (the empty request,
/// MPI_REQUEST_NULL): test() is true, wait() returns T{}.
template <typename T>
class AtomicUpdateRequest {
public:
    AtomicUpdateRequest() = default;

    /// True once the update has been applied (the empty request counts as
    /// complete).
    [[nodiscard]] bool done() const noexcept { return done_; }

    /// One completion attempt: applies f to the freshest observed value
    /// via compare-and-swap. Returns true when the update landed; on
    /// contention records the new observed value, backs off once and
    /// returns false. `f` may thus be evaluated several times and must be
    /// side-effect free (the atomic_update contract). Throws
    /// ErrorCode::Aborted if the runtime is unwinding — a pending request
    /// never spins past a peer failure.
    bool test() {
        if (done_) {
            return true;
        }
        if (const auto applied = attempt_()) {
            result_ = *applied;
            done_ = true;
            hdls::metrics::rt().window_requests_completed->inc();
            return true;
        }
        hdls::metrics::rt().window_cas_retries->inc();
        backoff_.pause();
        return false;
    }

    /// Drives test() to completion and returns the value the update was
    /// applied to (the fetch result, as Window::atomic_update returns).
    T wait() {
        while (!test()) {
        }
        return result_;
    }

    /// The fetch result; only meaningful once done().
    [[nodiscard]] T result() const noexcept { return result_; }

private:
    friend class Window;
    /// `attempt` performs one CAS try, owning the in-progress state (the
    /// last observed value) in its closure; an engaged return is the value
    /// the transform was applied to.
    explicit AtomicUpdateRequest(std::function<std::optional<T>()> attempt)
        : attempt_(std::move(attempt)), done_(false) {}

    std::function<std::optional<T>()> attempt_;
    bool done_ = true;
    T result_{};
    Backoff backoff_;
};

namespace detail {

/// Layout + storage of one window; shared by every attached rank's Window
/// handle. The storage (backing bytes and the passive-target lock table)
/// is owned by the transport-specific WindowStorage. A window's storage
/// never moves, so its base address and rank count are cached here: the
/// per-op address computation needs no virtual call.
class WindowImpl {
public:
    WindowImpl(std::uint64_t id, CommMeta meta, std::vector<std::size_t> offsets,
               std::vector<std::size_t> sizes, std::unique_ptr<WindowStorage> storage)
        : id_(id),
          meta_(std::move(meta)),
          offsets_(std::move(offsets)),
          sizes_(std::move(sizes)),
          storage_(std::move(storage)),
          base_(storage_->base()),
          size_(static_cast<int>(meta_.members.size())) {}

    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] int size() const noexcept { return size_; }
    [[nodiscard]] std::byte* segment(int rank) noexcept {
        return base_ + offsets_[static_cast<std::size_t>(rank)];
    }
    [[nodiscard]] std::size_t segment_size(int rank) const noexcept {
        return sizes_[static_cast<std::size_t>(rank)];
    }
    [[nodiscard]] WindowStorage& storage() noexcept { return *storage_; }
    [[nodiscard]] const CommMeta& meta() const noexcept { return meta_; }

private:
    std::uint64_t id_;
    CommMeta meta_;
    std::vector<std::size_t> offsets_;
    std::vector<std::size_t> sizes_;
    std::unique_ptr<WindowStorage> storage_;
    std::byte* base_;
    int size_;
};

}  // namespace detail

/// RMA window handle (value type; copies refer to the same window).
///
/// Epoch ownership: open epochs belong to the *handle* that opened them,
/// not to the window. A copy starts with no open epochs of its own; a move
/// transfers them; destroying a handle releases whatever epochs it still
/// holds (so a rank unwinding on an exception cannot leave a target locked
/// forever — the peer-failure contract).
class Window {
public:
    Window() = default;
    ~Window() { release_held(); }

    Window(const Window& other) : impl_(other.impl_), comm_(other.comm_), rank_(other.rank_) {}
    Window& operator=(const Window& other) {
        if (this != &other) {
            release_held();
            impl_ = other.impl_;
            comm_ = other.comm_;
            rank_ = other.rank_;
        }
        return *this;
    }
    Window(Window&& other) noexcept
        : impl_(std::move(other.impl_)),
          comm_(std::move(other.comm_)),
          rank_(other.rank_),
          held_(std::move(other.held_)) {
        other.held_.clear();
        other.rank_ = -1;
    }
    Window& operator=(Window&& other) noexcept {
        if (this != &other) {
            release_held();
            impl_ = std::move(other.impl_);
            comm_ = std::move(other.comm_);
            rank_ = other.rank_;
            held_ = std::move(other.held_);
            other.held_.clear();
            other.rank_ = -1;
        }
        return *this;
    }

    /// Collective over `comm`: allocates `local_bytes` for the calling rank
    /// inside one contiguous shared region. Every rank's segment is 64-byte
    /// aligned *absolutely* (the storage base is rounded up to 64 and
    /// segments are padded to 64-byte multiples), on both transports —
    /// matching the `alloc_shared_noncontig` layout real MPIs use, so
    /// cache-line-padded cells laid out in a segment never straddle lines.
    [[nodiscard]] static Window allocate_shared(const Comm& comm, std::size_t local_bytes);

    /// MPI_Win_allocate. Under this runtime every window is physically
    /// shared, so this is allocate_shared with the same semantics for
    /// get/put/atomics; only direct load/store addressing of remote
    /// segments is (by convention) reserved for shared windows.
    [[nodiscard]] static Window allocate(const Comm& comm, std::size_t local_bytes);

    [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }
    [[nodiscard]] int rank() const noexcept { return rank_; }
    [[nodiscard]] int size() const noexcept { return impl_ ? impl_->size() : 0; }

    /// This rank's segment.
    [[nodiscard]] std::span<std::byte> local_span() const;

    /// Address and size of any rank's segment (MPI_Win_shared_query).
    [[nodiscard]] std::pair<std::byte*, std::size_t> shared_query(int target_rank) const;

    /// Typed view of a target segment (shared windows are meant to be
    /// addressed directly once queried).
    template <Pod T>
    [[nodiscard]] std::span<T> shared_span(int target_rank) const {
        auto [ptr, bytes] = shared_query(target_rank);
        return {reinterpret_cast<T*>(ptr), bytes / sizeof(T)};
    }

    // ------------------------------------------------ passive target ----

    /// Opens an access epoch on `target_rank` (MPI_Win_lock). Exclusive
    /// epochs are mutually exclusive per target; Shared epochs admit
    /// concurrent holders. Acquisition polls the runtime abort flag
    /// between attempts (under every LockPolicy, including Block), so a
    /// rank contending for an epoch a failed peer still holds unwinds
    /// with ErrorCode::Aborted instead of hanging.
    void lock(LockType type, int target_rank) const;

    /// Closes the epoch opened by lock() (MPI_Win_unlock). Throws if no
    /// epoch is open on that target from this handle.
    void unlock(int target_rank) const;

    /// Shared lock on every rank (MPI_Win_lock_all / unlock_all). If any
    /// acquisition throws, the epochs this call already opened are rolled
    /// back before the exception propagates — lock_all is all-or-nothing.
    void lock_all() const;
    void unlock_all() const;

    // ------------------------------------------------------ accumulate ----

    /// Atomically applies `op` to the element at `elem_offset` (in units of
    /// T) of `target_rank`'s segment and returns the *previous* value
    /// (MPI_Fetch_and_op).
    template <Pod T>
    T fetch_and_op(T operand, int target_rank, std::size_t elem_offset, AccumulateOp op) const
        requires std::is_arithmetic_v<T>
    {
        T* addr = checked_address<T>(target_rank, elem_offset);
        std::atomic_ref<T> cell(*addr);
        switch (op) {
            case AccumulateOp::Sum:
                if constexpr (std::is_integral_v<T>) {
                    return cell.fetch_add(operand, std::memory_order_acq_rel);
                } else {
                    T old = cell.load(std::memory_order_acquire);
                    while (!cell.compare_exchange_weak(old, static_cast<T>(old + operand),
                                                       std::memory_order_acq_rel)) {
                    }
                    return old;
                }
            case AccumulateOp::Replace:
                return cell.exchange(operand, std::memory_order_acq_rel);
            case AccumulateOp::Min: {
                T old = cell.load(std::memory_order_acquire);
                while (operand < old && !cell.compare_exchange_weak(old, operand,
                                                                    std::memory_order_acq_rel)) {
                }
                return old;
            }
            case AccumulateOp::Max: {
                T old = cell.load(std::memory_order_acquire);
                while (operand > old && !cell.compare_exchange_weak(old, operand,
                                                                    std::memory_order_acq_rel)) {
                }
                return old;
            }
            case AccumulateOp::NoOp:
                return cell.load(std::memory_order_acquire);
        }
        throw Error(ErrorCode::InvalidArgument, "minimpi: unknown AccumulateOp");
    }

    /// Atomic read (MPI_Fetch_and_op with MPI_NO_OP).
    template <Pod T>
    [[nodiscard]] T atomic_read(int target_rank, std::size_t elem_offset) const
        requires std::is_arithmetic_v<T>
    {
        return fetch_and_op<T>(T{}, target_rank, elem_offset, AccumulateOp::NoOp);
    }

    /// Atomic write (MPI_Accumulate with MPI_REPLACE).
    template <Pod T>
    void atomic_write(T value, int target_rank, std::size_t elem_offset) const
        requires std::is_arithmetic_v<T>
    {
        (void)fetch_and_op<T>(value, target_rank, elem_offset, AccumulateOp::Replace);
    }

    /// MPI_Compare_and_swap: atomically replaces the element with `desired`
    /// iff it equals `expected`; returns the previous value.
    template <Pod T>
    T compare_and_swap(T expected, T desired, int target_rank, std::size_t elem_offset) const
        requires std::is_integral_v<T>
    {
        T* addr = checked_address<T>(target_rank, elem_offset);
        std::atomic_ref<T> cell(*addr);
        T exp = expected;
        cell.compare_exchange_strong(exp, desired, std::memory_order_acq_rel);
        return exp;  // previous value whether or not the swap happened
    }

    /// CAS-retry transform: atomically replaces the element with
    /// `f(current)` and returns the value the update was applied to. Built
    /// from compare_and_swap exactly as an MPI program would loop
    /// MPI_Compare_and_swap; `f` may be evaluated several times under
    /// contention and must be side-effect free. This is the primitive behind
    /// the adaptive queue's remaining-iterations cell, where the new value
    /// depends on the old (new = old - chunk(old)). Each failed CAS polls
    /// the runtime abort flag, so the retry loop observes a peer failure
    /// in bounded time.
    template <Pod T, typename F>
    T atomic_update(int target_rank, std::size_t elem_offset, F&& f) const
        requires std::is_integral_v<T>
    {
        T old = atomic_read<T>(target_rank, elem_offset);
        for (;;) {
            const T desired = static_cast<T>(f(old));
            const T prev = compare_and_swap<T>(old, desired, target_rank, elem_offset);
            if (prev == old) {
                return old;
            }
            comm_.state_->check_abort();
            hdls::metrics::rt().window_cas_retries->inc();
            old = prev;
        }
    }

    /// Nonblocking atomic_update (the request form: MPI_Rget_accumulate +
    /// MPI_Test/MPI_Wait): issues the CAS-retry transform and returns its
    /// request handle instead of spinning to completion. The origin may
    /// overlap computation or other communication and complete the update
    /// later via the handle's test()/wait(); contended completions retry
    /// one CAS per test() under the same Backoff ladder as a blocked
    /// Window::lock, and every attempt observes the runtime abort flag.
    /// The returned handle keeps the window alive; `f` must be side-effect
    /// free (it may run once per completion attempt).
    template <Pod T, typename F>
    [[nodiscard]] AtomicUpdateRequest<T> start_atomic_update(int target_rank,
                                                             std::size_t elem_offset,
                                                             F f) const
        requires std::is_integral_v<T>
    {
        // Validate the access eagerly: a bad target/offset must throw at
        // issue time, not at first test().
        (void)checked_address<T>(target_rank, elem_offset);
        return AtomicUpdateRequest<T>(
            [win = *this, target_rank, elem_offset, f = std::move(f),
             observed = std::optional<T>{}]() mutable -> std::optional<T> {
                win.comm_.state_->check_abort();
                if (!observed) {
                    observed = win.template atomic_read<T>(target_rank, elem_offset);
                }
                const T desired = static_cast<T>(f(*observed));
                const T prev = win.template compare_and_swap<T>(*observed, desired,
                                                                target_rank, elem_offset);
                if (prev == *observed) {
                    return *observed;
                }
                observed = prev;  // refreshed for the next attempt
                return std::nullopt;
            });
    }

    // ------------------------------------------------------------ put/get --

    /// Copies into the target segment. Not atomic: the caller must hold an
    /// epoch (lock) covering concurrent writers, as in MPI.
    template <Pod T>
    void put(std::span<const T> values, int target_rank, std::size_t elem_offset) const {
        T* addr = checked_address<T>(target_rank, elem_offset, values.size());
        if (!values.empty()) {
            std::memcpy(addr, values.data(), values.size_bytes());
        }
    }

    template <Pod T>
    void get(std::span<T> values, int target_rank, std::size_t elem_offset) const {
        T* addr = checked_address<T>(target_rank, elem_offset, values.size());
        if (!values.empty()) {
            std::memcpy(values.data(), addr, values.size_bytes());
        }
    }

    // ------------------------------------------------------ completion ----

    /// Orders RMA accesses (MPI_Win_flush / MPI_Win_sync). In-process
    /// windows need only a memory fence.
    void flush(int target_rank) const;
    void flush_all() const;
    void sync() const;

    /// Collective teardown (MPI_Win_free). The handle becomes invalid even
    /// if the closing barrier throws (a peer failed mid-free); the window
    /// registry entry is dropped either way — no leak on abort.
    void free();

private:
    Window(std::shared_ptr<detail::WindowImpl> impl, Comm comm)
        : impl_(std::move(impl)), comm_(std::move(comm)), rank_(comm_.rank()) {}

    void require_valid() const;
    void check_target(int target_rank) const;
    void release_held() noexcept;

    /// Validates inline: one null test and one unsigned compare on the
    /// hot path; require_valid/check_target (and their throws) run only
    /// when that test fails.
    template <Pod T>
    [[nodiscard]] T* checked_address(int target_rank, std::size_t elem_offset,
                                     std::size_t elems = 1) const {
        if (impl_ == nullptr ||
            static_cast<unsigned>(target_rank) >= static_cast<unsigned>(impl_->size()))
            [[unlikely]] {
            require_valid();
            check_target(target_rank);
        }
        const std::size_t byte_off = elem_offset * sizeof(T);
        const std::size_t need = byte_off + elems * sizeof(T);
        if (need > impl_->segment_size(target_rank)) {
            throw Error(ErrorCode::WindowUsage,
                        "minimpi: window access past the end of the target segment");
        }
        std::byte* addr = impl_->segment(target_rank) + byte_off;
        if (reinterpret_cast<std::uintptr_t>(addr) % alignof(T) != 0) {
            throw Error(ErrorCode::WindowUsage, "minimpi: misaligned window access");
        }
        return reinterpret_cast<T*>(addr);
    }

    std::shared_ptr<detail::WindowImpl> impl_;
    Comm comm_;
    int rank_ = -1;
    /// Open epochs held by this handle (target rank -> lock type); a plain
    /// map is fine because a handle belongs to a single rank thread.
    mutable std::unordered_map<int, LockType> held_;
};

}  // namespace minimpi
