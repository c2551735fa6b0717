/// \file bench_ablation_lock_polling.cpp
/// Ablation: how the MPI_Win_lock polling parameters drive the intra-node
/// SS penalty of the MPI+MPI approach (the paper's ref [38] argument).
/// Sweeps the polling period and the per-attempt agent cost and reports
/// the MPI+MPI : MPI+OpenMP time ratio for X+SS.
///
/// A second, *real* (thread-backed) section measures the runtime's own
/// lock-acquisition discipline on a contended SS+SS run: naive
/// yield-polling vs. the exponential pause/yield/sleep backoff ladder vs.
/// a blocking OS lock (minimpi::LockPolicy), reporting wall time and the
/// traced lock-grant latency for each. Leaf pops are lock-free, so the
/// epochs it contends for are the node-queue pushes: under SS+SS every
/// root chunk is one iteration, and every iteration is one leaf refill.

#include <chrono>
#include <iostream>

#include "common/json_report.hpp"
#include "common/workloads.hpp"
#include "core/hdls.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace hdls;
    util::ArgParser cli("bench_ablation_lock_polling",
                        "SS-penalty sensitivity to the MPI_Win_lock polling model");
    bench::add_common_options(cli);
    bench::add_json_option(cli);
    cli.add_int("nodes", 2, "node count");
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
    const int nodes = static_cast<int>(cli.get_int("nodes"));
    sim::SimConfig cfg;
    cfg.inter = dls::Technique::GSS;
    cfg.intra = dls::Technique::SS;

    // The baseline does not use the windows at all: constant reference.
    const auto hybrid =
        simulate(sim::ExecModel::MpiOpenMp, bench::cluster_from_options(cli, nodes), cfg, trace);

    bench::JsonReport json("bench_ablation_lock_polling");
    json.add_param("nodes", static_cast<std::int64_t>(nodes));
    json.add_param("scale", cli.get_double("scale"));
    json.add_param("rpn", cli.get_int("rpn"));

    util::TextTable table({"poll (us)", "attempt (us)", "MPI+MPI T (s)", "MPI+OpenMP T (s)",
                           "ratio", "lock wait (worker-s)"});
    for (const double poll : {0.0, 1.0, 2.5, 5.0, 10.0}) {
        for (const double attempt : {0.0, 1.0, 3.0, 6.0}) {
            sim::ClusterSpec cluster = bench::cluster_from_options(cli, nodes);
            cluster.costs.shmem_lock_poll_us = poll;
            cluster.costs.shmem_lock_attempt_us = attempt;
            const auto r = simulate(sim::ExecModel::MpiMpi, cluster, cfg, trace);
            table.add_row({util::format_double(poll, 1), util::format_double(attempt, 1),
                           util::format_double(r.parallel_time, 3),
                           util::format_double(hybrid.parallel_time, 3),
                           util::format_double(r.parallel_time / hybrid.parallel_time, 2),
                           util::format_double(r.total_lock_wait(), 2)});
            json.point()
                .label("sweep", "polling_model")
                .label("poll_us", util::format_double(poll, 1))
                .label("attempt_us", util::format_double(attempt, 1))
                .sample("mpimpi_s", r.parallel_time)
                .sample("ratio", r.parallel_time / hybrid.parallel_time)
                .sample("lock_wait_s", r.total_lock_wait());
        }
    }
    std::cout << "Lock-polling ablation (PSIA workload, GSS+SS, " << nodes << " nodes x "
              << cli.get_int("rpn") << "):\n";
    if (cli.get_flag("csv")) {
        table.print_csv(std::cout);
    } else {
        table.print(std::cout);
    }
    std::cout << "\nExpected: the SS penalty grows with both knobs; with a free lock\n"
                 "(poll=attempt=0) MPI+MPI matches the OpenMP atomic-dequeue baseline.\n";

    // ---- real-executor section: the lock-polling backoff ladder ---------
    // SS+SS on the thread-backed runtime refills the node queue once per
    // iteration, and every refill pushes inside one exclusive window
    // epoch (pops are lock-free compare-and-swaps): the heaviest lock
    // contention the library can produce. The backoff ladder should cut
    // wall time (and traced lock-grant latency) against naive
    // yield-polling under oversubscription.
    constexpr std::int64_t kRealIterations = 4000;
    core::HierConfig real_cfg;
    real_cfg.inter = dls::Technique::SS;
    real_cfg.intra = dls::Technique::SS;
    real_cfg.trace = true;
    const auto body = [](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
            const auto t0 = std::chrono::steady_clock::now();
            while (std::chrono::steady_clock::now() - t0 < std::chrono::microseconds(5)) {
            }
        }
    };
    const auto policy_name = [](minimpi::LockPolicy p) {
        switch (p) {
            case minimpi::LockPolicy::Spin:
                return "spin (naive poll)";
            case minimpi::LockPolicy::Backoff:
                return "exponential backoff";
            case minimpi::LockPolicy::Block:
                return "blocking";
        }
        return "?";
    };
    const minimpi::LockPolicy original = minimpi::lock_policy();
    util::TextTable real_table(
        {"lock policy", "wall (s)", "lock wait (worker-s)", "p99 grant (us)"});
    for (const minimpi::LockPolicy policy :
         {minimpi::LockPolicy::Spin, minimpi::LockPolicy::Backoff,
          minimpi::LockPolicy::Block}) {
        minimpi::set_lock_policy(policy);
        double best = 0.0;
        double lock_wait = 0.0;
        double p99 = 0.0;
        auto& point = json.point();
        point.label("sweep", "real_lock_policy").label("policy", policy_name(policy));
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            const auto report = hdls::parallel_for(core::ClusterShape{2, 8},
                                                   core::Approach::MpiMpi, real_cfg,
                                                   kRealIterations, body);
            const double wall =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
            point.sample("wall_s", wall);
            if (rep == 0 || wall < best) {
                best = wall;
                const auto analysis = trace::analyze(*report.trace);
                lock_wait = analysis.total_lock_wait;
                p99 = analysis.lock_wait_stats.p99;
            }
        }
        real_table.add_row({policy_name(policy), util::format_double(best, 4),
                            util::format_double(lock_wait, 4),
                            util::format_double(p99 * 1e6, 2)});
    }
    minimpi::set_lock_policy(original);
    std::cout << "\nReal thread-backed run (SS+SS, 2 nodes x 8 ranks, "
              << kRealIterations << " iterations, best of 3):\n";
    if (cli.get_flag("csv")) {
        real_table.print_csv(std::cout);
    } else {
        real_table.print(std::cout);
    }
    std::cout << "\nExpected: backoff at or below naive polling (well below when the\n"
                 "host is oversubscribed), both within reach of the blocking baseline\n"
                 "an RMA agent cannot use.\n";
    try {
        bench::maybe_write_json(cli, json);
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    return 0;
}
