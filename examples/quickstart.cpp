/// \file quickstart.cpp
/// Smallest complete hdls program: self-schedule a loop hierarchically on a
/// thread-backed "cluster" of 2 nodes x 4 workers with GSS across nodes and
/// GSS within nodes (the paper's MPI+MPI approach), then print the report.
///
///   $ ./quickstart
///   $ HDLS_SCHEDULE=GSS+SS ./quickstart                    # other techniques
///   $ HDLS_TOPOLOGY=racks=2,nodes=2,cores=2 ./quickstart   # 3-level tree
///   $ HDLS_INTER_BACKEND=sharded ./quickstart              # stealing levels
///
/// The loop body just burns a deterministic, intentionally imbalanced
/// amount of time per iteration; the report shows how the scheduling
/// hierarchy balanced it.

#include <chrono>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "core/hdls.hpp"

int main() {
    using namespace hdls;

    constexpr std::int64_t kIterations = 2000;

    core::ClusterShape shape;
    shape.nodes = 2;
    shape.workers_per_node = 4;

    core::HierConfig cfg;
    cfg.inter = dls::Technique::GSS;   // between level-0 groups (root queue)
    cfg.intra = dls::Technique::GSS;   // within a leaf group (shared local queue)
    // HDLS_SCHEDULE=GSS+SS (or any "L0+L1[+L2...]" string) replaces the
    // per-level techniques; a malformed value keeps GSS+GSS with a warning.
    cfg = core::schedule_from_env(cfg);
    core::ChaosSpec chaos;
    bool lease = false;
    try {
        // HDLS_INTER_BACKEND=sharded swaps every interior level for the
        // work-stealing backend (per-entity shards at the root, per-child
        // shards in the relays — see README, "Architecture").
        cfg.inter_backend = core::inter_backend_from_env();
        // HDLS_TOPOLOGY reshapes the machine tree (racks=2,nodes=2,cores=2
        // schedules the same 8 workers through a 3-level hierarchy).
        // Malformed values throw — fix the spec rather than silently
        // measuring defaults.
        cfg.topology = core::topology_from_env();
        // HDLS_PREFETCH=1 overlaps each worker's next chunk acquisition
        // with its current chunk's execution (double-buffered slot).
        cfg.prefetch = core::prefetch_from_env();
        // HDLS_CHAOS=kill:<rank>@<pct>% fail-stops a rank mid-loop; with
        // HDLS_LEASE=1 the survivors reclaim its chunks (the fault drill —
        // see docs/fault-tolerance.md). Both are only peeked at here to
        // decide whether the baseline comparison below makes sense.
        chaos = core::chaos_from_env();
        lease = core::lease_from_env();
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    if (!cfg.topology.empty()) {
        shape = core::shape_from_topology(cfg.topology);
    }

    // Iteration i costs ~ (1 + i mod 7) * 30us: mildly imbalanced.
    const auto body = [](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
            std::this_thread::sleep_for(std::chrono::microseconds(30 * (1 + i % 7)));
        }
    };

    // Show the hierarchy the run will schedule over, level by level.
    const core::ResolvedHierarchy rh = core::resolve_hierarchy(shape, cfg);
    std::cout << "hdls quickstart: " << kIterations << " iterations on " << shape.nodes
              << " leaf groups x " << shape.workers_per_node << " workers\n"
              << "scheduling hierarchy:\n";
    for (int d = 0; d < rh.depth(); ++d) {
        const auto& lv = rh.tree[static_cast<std::size_t>(d)];
        const auto& lc = rh.levels[static_cast<std::size_t>(d)];
        std::cout << "  level " << d << ": " << lv.name << " x" << lv.fan_out << "  ["
                  << dls::technique_name(lc.technique);
        if (lc.backend) {
            std::cout << ", " << dls::inter_backend_name(*lc.backend);
        } else {
            std::cout << ", shared local queue";
        }
        std::cout << "]\n";
    }
    std::cout << "\n";

    const core::ExecutionReport report =
        parallel_for(shape, core::Approach::MpiMpi, cfg, kIterations, body);
    report.print(std::cout);

    bool all_once = report.executed_iterations() == kIterations;
    if (chaos.enabled()) {
        // A fault drill only exercises the MPI+MPI executor; the baseline
        // has no failure handling and would refuse the chaos spec.
        std::cout << "\n(baseline comparison skipped: HDLS_CHAOS drills the"
                     " MPI+MPI executor only)\n";
    } else if (lease) {
        // The baseline would ignore the lease, so it would compare two
        // changes at once (and its chunks would dilute the lease metrics).
        std::cout << "\n(baseline comparison skipped: the MPI+OpenMP baseline has no"
                     " lease mode)\n";
    } else {
        // The same loop under the MPI+OpenMP-style baseline, for comparison.
        const core::ExecutionReport baseline =
            parallel_for(shape, core::Approach::MpiOpenMp, cfg, kIterations, body);
        baseline.print(std::cout);
        all_once = all_once && baseline.executed_iterations() == kIterations;
    }

    std::cout << "\nEvery iteration ran exactly once: " << (all_once ? "yes" : "NO (bug!)")
              << "\n";
    return all_once ? 0 : 1;
}
