#pragma once
/// \file hdls.hpp
/// Umbrella header and the primary public entry point of the hierarchical
/// DLS library.
///
/// Quickstart:
///
///   #include "core/hdls.hpp"
///
///   hdls::core::ClusterShape shape{.nodes = 4, .workers_per_node = 8};
///   hdls::core::HierConfig cfg{.inter = hdls::dls::Technique::GSS,
///                              .intra = hdls::dls::Technique::Static};
///   auto report = hdls::parallel_for(shape, hdls::core::Approach::MpiMpi,
///                                    cfg, n_iterations,
///                                    [&](std::int64_t b, std::int64_t e) {
///                                        for (auto i = b; i < e; ++i) work(i);
///                                    });
///   report.print(std::cout);

#include "core/adaptive_queue.hpp"    // IWYU pragma: export
#include "core/env_config.hpp"        // IWYU pragma: export
#include "core/global_queue.hpp"      // IWYU pragma: export
#include "core/hierarchy.hpp"         // IWYU pragma: export
#include "core/inter_queue.hpp"       // IWYU pragma: export
#include "core/hybrid_executor.hpp"   // IWYU pragma: export
#include "core/local_queue.hpp"       // IWYU pragma: export
#include "core/mpi_mpi_executor.hpp"  // IWYU pragma: export
#include "core/report.hpp"            // IWYU pragma: export
#include "core/runner.hpp"            // IWYU pragma: export
#include "core/sharded_queue.hpp"     // IWYU pragma: export
#include "core/sharded_relay.hpp"     // IWYU pragma: export
#include "core/types.hpp"             // IWYU pragma: export
#include "core/work_source.hpp"       // IWYU pragma: export
#include "trace/analysis.hpp"         // IWYU pragma: export
#include "trace/export.hpp"           // IWYU pragma: export
#include "trace/recorder.hpp"         // IWYU pragma: export
#include "trace/trace.hpp"            // IWYU pragma: export

namespace hdls {

/// Executes the loop [0, n) hierarchically — see core::run_hierarchical.
[[nodiscard]] inline core::ExecutionReport parallel_for(const core::ClusterShape& shape,
                                                        core::Approach approach,
                                                        const core::HierConfig& cfg,
                                                        std::int64_t n,
                                                        const core::ChunkBody& body) {
    return core::run_hierarchical(shape, approach, cfg, n, body);
}

}  // namespace hdls
