/// \file bench_table1_schedule_mapping.cpp
/// Regenerates Table 1: the mapping between DLS techniques and the OpenMP
/// `schedule` clause — and *verifies* it, by comparing the chunk sequence
/// produced by the ompsim worksharing runtime against the DLS library's
/// master-side scheduler for each mapped technique.

#include <algorithm>
#include <iostream>
#include <mutex>
#include <vector>

#include "common/json_report.hpp"
#include "dls/scheduler.hpp"
#include "ompsim/team.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using hdls::dls::Technique;
using hdls::ompsim::ForOptions;
using hdls::ompsim::ThreadTeam;

/// Chunk-size sequence of one ompsim worksharing run, ordered by start.
std::vector<std::int64_t> ompsim_chunk_sizes(int threads, std::int64_t n,
                                             const ForOptions& opts) {
    ThreadTeam team(threads);
    std::mutex mutex;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    team.parallel_for(0, n, opts, [&](std::int64_t b, std::int64_t e, int) {
        const std::lock_guard<std::mutex> lock(mutex);
        chunks.emplace_back(b, e - b);
    });
    std::sort(chunks.begin(), chunks.end());
    std::vector<std::int64_t> sizes;
    sizes.reserve(chunks.size());
    for (const auto& [start, size] : chunks) {
        sizes.push_back(size);
    }
    return sizes;
}

std::vector<std::int64_t> dls_chunk_sizes(Technique t, std::int64_t n, int workers) {
    hdls::dls::LoopParams p;
    p.total_iterations = n;
    p.workers = workers;
    std::vector<std::int64_t> sizes;
    for (const auto& c : hdls::dls::enumerate_chunks(t, p)) {
        sizes.push_back(c.size);
    }
    return sizes;
}

}  // namespace

int main(int argc, char** argv) {
    hdls::util::ArgParser cli("bench_table1",
                              "Reproduces Table 1: DLS <-> OpenMP schedule clause mapping, "
                              "verified by chunk-sequence comparison");
    cli.add_flag("csv", "emit CSV");
    hdls::bench::add_json_option(cli);
    cli.add_int("n", 10000, "loop size used for the verification runs");
    try {
        if (!cli.parse(argc, argv)) {
            return 0;
        }
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    const auto n = cli.get_int("n");

    hdls::util::TextTable table(
        {"DLS technique", "OpenMP schedule clause", "sequence check (P=4,8,16)"});

    struct Row {
        Technique tech;
        std::string clause;
        ForOptions opts;
        bool expressible;
    };
    const std::vector<Row> rows = {
        {Technique::Static, "schedule(static)", {hdls::ompsim::Schedule::Static, 0}, true},
        {Technique::SS, "schedule(dynamic,1)", {hdls::ompsim::Schedule::Dynamic, 1}, true},
        {Technique::GSS, "schedule(guided,1)", {hdls::ompsim::Schedule::Guided, 1}, true},
        {Technique::TSS, "- (extension: schedule tss)", {}, false},
        {Technique::FAC2, "- (extension: schedule fac2)", {}, false},
    };

    hdls::bench::JsonReport json("bench_table1");
    json.add_param("n", n);

    bool all_ok = true;
    for (const auto& row : rows) {
        std::string check;
        bool ok = true;
        if (!row.expressible) {
            check = "not expressible in OpenMP 5";
        } else {
            for (const int p : {4, 8, 16}) {
                // The guided/dynamic cursor rules make the ordered chunk
                // sizes deterministic regardless of thread interleaving, so
                // exact equality is the correct check.
                ok = ok && (ompsim_chunk_sizes(p, n, row.opts) ==
                            dls_chunk_sizes(row.tech, n, p));
            }
            all_ok = all_ok && ok;
            check = ok ? "exact match" : "MISMATCH";
        }
        table.add_row({std::string(hdls::dls::technique_name(row.tech)), row.clause, check});
        json.point()
            .label("technique", std::string(hdls::dls::technique_name(row.tech)))
            .label("clause", row.clause)
            .sample("expressible", row.expressible ? 1.0 : 0.0)
            .sample("match", row.expressible && ok ? 1.0 : 0.0);
    }

    std::cout << "Table 1 reproduction (verification loop: N=" << n << ")\n";
    if (cli.get_flag("csv")) {
        table.print_csv(std::cout);
    } else {
        table.print(std::cout, hdls::util::Align::Left);
    }
    std::cout << (all_ok ? "\nAll mapped schedules verified.\n"
                         : "\nERROR: schedule mapping mismatch!\n");
    try {
        hdls::bench::maybe_write_json(cli, json);
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    return all_ok ? 0 : 1;
}
