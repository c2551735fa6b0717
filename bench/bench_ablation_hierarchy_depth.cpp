/// \file bench_ablation_hierarchy_depth.cpp
/// Ablation: two-level vs. three-level scheduling hierarchy as the node
/// count grows — the depth axis of the PR-3 shard-contention result.
///
/// A two-level tree funnels every node-queue refill to the level-0 queue:
/// under a fine-grained root schedule the rank-0 server serializes the
/// whole cluster and the per-acquire latency climbs with the node count.
/// A three-level tree (racks -> nodes -> cores) interposes one relay per
/// rack: the root hands each rack a few large FAC2 batches, the rack relay
/// slices them with SS at node-local cost, and only the rare rack-level
/// refills cross the fabric to rank 0 — so the refill contention divides
/// by the rack count. This bench sweeps 8 -> 64 simulated nodes (16
/// workers each, racks of 8 nodes) and reports the mean per-acquire
/// latency (successful GlobalAcquire/Steal events at any level), the
/// parallel time and the finish CoV.
///
/// Expected: depth 3 helps a little even at one rack (the simulator prices
/// a relay pop as one lock epoch, the paper's protocol, and the root's
/// distributed calculation as two serialized RMA ops); from 32 nodes on it
/// wins the acquire latency by an order of
/// magnitude, the same way sharding did — the tree is the composable form
/// of that fix, and the two compose (a sharded middle level).
///
/// Every row above is a traced simulation, so the bench also reports what
/// tracing costs: the trace_overhead section times the same FAC2+SS
/// simulation at 64x16 workers with and without tracing (CI gates the
/// ratio).

#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>

#include "common/json_report.hpp"
#include "common/workloads.hpp"
#include "trace/trace.hpp"
#include "util/table.hpp"

namespace {

/// Fastest-of-`reps` wall time of one simulate() call, in seconds.
double fastest_simulate_s(const hdls::sim::ClusterSpec& cluster,
                          const hdls::sim::SimConfig& cfg,
                          const hdls::sim::WorkloadTrace& trace, int reps) {
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = simulate(hdls::sim::ExecModel::MpiMpi, cluster, cfg, trace);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

/// Traced vs untraced wall time of one 64x16-worker FAC2+SS simulation of
/// a 4k-point PSIA trace (fixed sizes, independent of --scale): tracing
/// must stay cheap enough to leave on for sim-only studies.
void run_trace_overhead_section(hdls::bench::JsonReport& json, std::ostream& os) {
    using namespace hdls;
    const sim::WorkloadTrace trace = bench::psia_paper_trace(4096);
    sim::ClusterSpec cluster;
    cluster.nodes = 64;
    cluster.workers_per_node = 16;
    sim::SimConfig cfg;
    cfg.inter = dls::Technique::FAC2;
    cfg.intra = dls::Technique::SS;
    constexpr int kReps = 5;
    const double untraced_s = fastest_simulate_s(cluster, cfg, trace, kReps);
    cfg.trace = true;
    const double traced_s = fastest_simulate_s(cluster, cfg, trace, kReps);
    const double ratio = traced_s / untraced_s;
    os << "\ntrace overhead (64x16 workers, PSIA 4k points, FAC2+SS, fastest of " << kReps
       << "):\n  untraced " << util::format_double(untraced_s * 1e3, 3) << " ms  traced "
       << util::format_double(traced_s * 1e3, 3) << " ms  ratio "
       << util::format_double(ratio, 2) << "x\n";
    json.point()
        .label("section", "trace_overhead")
        .sample("untraced_ms", untraced_s * 1e3)
        .sample("traced_ms", traced_s * 1e3)
        .sample("trace_overhead_x", ratio);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace hdls;
    util::ArgParser cli("bench_ablation_hierarchy_depth",
                        "Two-level vs. three-level scheduling hierarchy under growing "
                        "node counts");
    bench::add_common_options(cli);
    bench::add_json_option(cli);
    try {
        if (!cli.parse(argc, argv)) {
            return 0;
        }
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    const sim::WorkloadTrace trace =
        bench::psia_paper_trace(bench::scaled_psia_points(cli) / 4);

    bench::JsonReport json("bench_ablation_hierarchy_depth");
    json.add_param("scale", cli.get_double("scale"));
    json.add_param("rpn", cli.get_int("rpn"));
    json.add_param("min_chunk", std::int64_t{8});

    util::TextTable table({"nodes", "hierarchy", "acquire (us)", "T (s)", "finish CoV",
                           "acquires", "steals"});
    for (const int nodes : {8, 16, 32, 64}) {
        const int racks = nodes / 8;
        const int per_rack = nodes / racks;
        struct Row {
            std::string label;
            sim::ClusterSpec cluster;
            sim::SimConfig cfg;
        };
        std::vector<Row> rows;
        {
            // Depth 2, centralized: the PR-3 hotspot baseline.
            Row r{"nodes,cores (centralized)", bench::cluster_from_options(cli, nodes), {}};
            r.cfg.inter = dls::Technique::SS;
            r.cfg.intra = dls::Technique::Static;
            rows.push_back(std::move(r));
        }
        {
            // Depth 2, sharded: PR 3's flat fix, for reference.
            Row r{"nodes,cores (sharded)", bench::cluster_from_options(cli, nodes), {}};
            r.cfg.inter = dls::Technique::SS;
            r.cfg.intra = dls::Technique::Static;
            r.cfg.inter_backend = dls::InterBackend::Sharded;
            rows.push_back(std::move(r));
        }
        {
            // Depth 3: FAC2 batches per rack, SS slicing inside the rack.
            Row r{"racks,nodes,cores (FAC2>SS)", bench::cluster_from_options(cli, nodes),
                  {}};
            r.cluster.tree = {{"racks", racks},
                              {"nodes", per_rack},
                              {"cores", r.cluster.workers_per_node}};
            r.cfg.levels = {{dls::Technique::FAC2, std::nullopt},
                            {dls::Technique::SS, std::nullopt},
                            {dls::Technique::Static, std::nullopt}};
            rows.push_back(std::move(r));
        }
        for (Row& row : rows) {
            row.cfg.min_chunk = 8;
            row.cfg.trace = true;
            const auto r = simulate(sim::ExecModel::MpiMpi, row.cluster, row.cfg, trace);
            const bench::AcquireStats acq = bench::acquire_stats(*r.trace);
            table.add_row({std::to_string(nodes), row.label,
                           util::format_double(acq.mean_latency * 1e6, 3),
                           util::format_double(r.parallel_time, 3),
                           util::format_double(r.finish_cov(), 4),
                           std::to_string(acq.acquires), std::to_string(acq.steals)});
            json.point()
                .label("nodes", static_cast<std::int64_t>(nodes))
                .label("hierarchy", row.label)
                .sample("acquire_us", acq.mean_latency * 1e6)
                .sample("parallel_s", r.parallel_time)
                .sample("finish_cov", r.finish_cov())
                .sample("steals", static_cast<double>(acq.steals));
        }
    }
    std::cout << "Hierarchy-depth ablation (PSIA workload, min_chunk=8, racks of 8 nodes, "
              << cli.get_int("rpn") << " ranks/node):\n";
    if (cli.get_flag("csv")) {
        table.print_csv(std::cout);
    } else {
        table.print(std::cout);
    }
    std::cout << "\nExpected: as racks multiply, leaf refills fan out over per-rack\n"
                 "relay servers and only rack-sized FAC2 batches reach rank 0, so the\n"
                 "three-level acquire latency stays nearly flat while the two-level\n"
                 "centralized latency climbs with the node count.\n";
    run_trace_overhead_section(json, std::cout);
    try {
        bench::maybe_write_json(cli, json);
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    return 0;
}
