/// \file cluster_sim_explorer.cpp
/// Interactive front-end to the discrete-event cluster simulator: pick an
/// execution model, a scheduling combination, a cluster shape and a
/// workload, and inspect the per-worker time breakdown. Useful for
/// exploring configurations beyond the paper's figures.
///
///   $ ./cluster_sim_explorer --model MPI+MPI --inter GSS --intra SS
///       --nodes 4 --rpn 16 --workload exponential --iterations 100000
///       --mean-us 300 --cov 1.0 --per-worker

#include <iostream>

#include "apps/mandelbrot.hpp"
#include "apps/synthetic.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace hdls;
    util::ArgParser cli("cluster_sim_explorer",
                        "Explore the hierarchical-DLS cluster simulator interactively");
    cli.add_string("model", "MPI+MPI", "MPI+MPI | MPI+OpenMP");
    cli.add_string("inter", "GSS", "inter-node DLS technique");
    cli.add_string("intra", "GSS", "intra-node DLS technique");
    cli.add_int("nodes", 4, "compute nodes");
    cli.add_int("rpn", 16, "workers per node");
    cli.add_string("workload",
                   "exponential",
                   "constant|uniform|gaussian|exponential|bimodal|increasing|decreasing|"
                   "mandelbrot");
    cli.add_int("iterations", 100000, "loop size (synthetic workloads)");
    cli.add_double("mean-us", 300.0, "mean iteration cost in us (synthetic workloads)");
    cli.add_double("cov", 1.0, "target CoV (synthetic workloads)");
    cli.add_int("min-chunk", 1, "minimum chunk size of both levels");
    cli.add_flag("per-worker", "print the per-worker breakdown table");
    try {
        if (!cli.parse(argc, argv)) {
            return 0;
        }
        const auto model = sim::exec_model_from_string(cli.get_string("model"));
        const auto inter = dls::technique_from_string(cli.get_string("inter"));
        const auto intra = dls::technique_from_string(cli.get_string("intra"));
        if (!model || !inter || !intra) {
            std::cerr << "unknown model or technique\n";
            return 2;
        }

        sim::WorkloadTrace trace;
        const std::string workload = cli.get_string("workload");
        if (workload == "mandelbrot") {
            apps::MandelbrotConfig mcfg;
            mcfg.width = 512;
            mcfg.height = 512;
            trace = sim::WorkloadTrace(
                apps::mandelbrot_cost_trace(mcfg, cli.get_double("mean-us") * 1e-6 / 50.0));
        } else {
            const auto kind = apps::workload_from_string(workload);
            if (!kind) {
                std::cerr << "unknown workload '" << workload << "'\n";
                return 2;
            }
            apps::WorkloadSpec spec;
            spec.kind = *kind;
            spec.iterations = static_cast<std::size_t>(cli.get_int("iterations"));
            spec.mean_seconds = cli.get_double("mean-us") * 1e-6;
            spec.cov = cli.get_double("cov");
            trace = sim::WorkloadTrace(apps::make_workload(spec));
        }

        sim::ClusterSpec cluster;
        cluster.nodes = static_cast<int>(cli.get_int("nodes"));
        cluster.workers_per_node = static_cast<int>(cli.get_int("rpn"));
        sim::SimConfig cfg;
        cfg.inter = *inter;
        cfg.intra = *intra;
        cfg.min_chunk = cli.get_int("min-chunk");

        const auto s = trace.stats();
        std::cout << exec_model_name(*model) << " " << dls::technique_name(*inter) << "+"
                  << dls::technique_name(*intra) << " on " << cluster.nodes << "x"
                  << cluster.workers_per_node << ", workload '" << workload
                  << "': N=" << trace.iterations() << ", mean "
                  << util::format_seconds(s.mean) << ", CoV " << util::format_double(s.cov, 2)
                  << "\n\n";

        const auto report = simulate(*model, cluster, cfg, trace);
        report.print(std::cout);

        if (cli.get_flag("per-worker")) {
            util::TextTable table({"node", "worker", "busy (s)", "overhead (s)",
                                   "lock wait (s)", "idle (s)", "finish (s)", "iters",
                                   "chunks", "refills"});
            for (const auto& w : report.workers) {
                table.add_row({std::to_string(w.node), std::to_string(w.worker_in_node),
                               util::format_double(w.busy, 3),
                               util::format_double(w.overhead, 4),
                               util::format_double(w.lock_wait, 4),
                               util::format_double(w.idle, 4),
                               util::format_double(w.finish, 3), std::to_string(w.iterations),
                               std::to_string(w.sub_chunks),
                               std::to_string(w.global_refills)});
            }
            std::cout << "\n";
            table.print(std::cout);
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
