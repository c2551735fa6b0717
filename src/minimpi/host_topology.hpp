#pragma once
/// \file host_topology.hpp
/// One level below minimpi::Topology: the physical layout of the host the
/// process runs on — sockets (NUMA packages) and the logical CPUs of each.
///
/// minimpi::Topology describes the *machine tree* the scheduler partitions
/// work over (racks / nodes / cores); this file describes where the leaf
/// workers physically land: ompsim::ThreadTeam pins its members according
/// to a PinPolicy plan over this topology (HDLS_PIN).
///
/// Detection reads sysfs (physical_package_id per CPU); on non-Linux hosts
/// or restricted containers it degrades to a single socket spanning
/// hardware_concurrency, which turns every policy into plain core pinning.

#include <optional>
#include <string_view>
#include <vector>

namespace minimpi {

/// How a thread team lays its members over the host CPUs.
enum class PinPolicy {
    None,     ///< no affinity calls; the OS scheduler places threads
    Compact,  ///< fill a socket's CPUs before spilling to the next
    Scatter,  ///< round-robin consecutive workers across sockets
};

[[nodiscard]] std::string_view pin_policy_name(PinPolicy p) noexcept;
[[nodiscard]] std::optional<PinPolicy> pin_policy_from_string(std::string_view name) noexcept;

/// One physical package and its logical CPUs (sorted ascending).
struct HostSocket {
    int id = 0;
    std::vector<int> cpus;
};

/// The socket/CPU layout of this host.
class HostTopology {
public:
    /// Detects the layout from sysfs; falls back to a single socket of
    /// hardware_concurrency CPUs when sysfs is unavailable.
    [[nodiscard]] static HostTopology detect();

    /// Synthetic layout (tests): `sockets` packages of `cpus_per_socket`
    /// consecutively-numbered CPUs each.
    [[nodiscard]] static HostTopology uniform(int sockets, int cpus_per_socket);

    [[nodiscard]] const std::vector<HostSocket>& sockets() const noexcept { return sockets_; }
    [[nodiscard]] int total_cpus() const noexcept;

    /// The CPU assignment of `count` workers whose global worker indices
    /// start at `first_worker` (so co-located teams of one process, e.g.
    /// the per-rank teams of the threads transport, interleave instead of
    /// stacking onto the same cores). Entry i is the CPU of worker i, or
    /// -1 for PinPolicy::None. Workers beyond total_cpus() wrap around.
    [[nodiscard]] std::vector<int> plan(PinPolicy policy, int first_worker,
                                        int count) const;

private:
    std::vector<HostSocket> sockets_;
};

/// Pins the calling thread to `cpu`; returns false when unsupported or the
/// kernel refuses (cpuset-restricted containers). cpu < 0 is a no-op true.
bool pin_current_thread(int cpu) noexcept;

/// The calling thread's allowed-CPU list (empty when unsupported).
[[nodiscard]] std::vector<int> current_thread_affinity();

/// Restores an affinity list previously captured by
/// current_thread_affinity(); empty input is a no-op.
bool set_current_thread_affinity(const std::vector<int>& cpus) noexcept;

}  // namespace minimpi
