#include "trace/analysis.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

#include "trace/sort.hpp"
#include "trace/worker_table.hpp"
#include "util/table.hpp"

namespace hdls::trace {

namespace {

/// One worker's running breakdown and its open ChunkExecBegin. Executors
/// emit Begin/End strictly nested and in order, so the open Begin matches
/// the worker's next End.
struct WorkerState {
    WorkerBreakdown totals;
    double exec_begin = 0.0;
    bool exec_open = false;
};

}  // namespace

TraceAnalysis analyze(const Trace& trace) {
    TraceAnalysis out;
    detail::WorkerTable<WorkerState> workers(trace.workers());
    std::vector<double> lock_waits;

    // Per-level overhead, indexed by the signed 8-bit level tag + 128.
    std::array<LevelOverhead, 256> levels{};
    std::array<bool, 256> level_used{};
    const auto level_slot = [&](const Event& e) -> LevelOverhead& {
        const auto i = static_cast<std::size_t>(e.level + 128);
        if (!level_used[i]) {
            level_used[i] = true;
            levels[i].level = e.level;
        }
        return levels[i];
    };

    for (const Event& e : trace.events) {
        auto [state, first] = workers.at(e.worker);
        WorkerBreakdown& w = state.totals;
        if (first) {
            w.worker = e.worker;
            w.node = e.node;
        }
        w.finish = std::max(w.finish, e.t1);
        switch (e.kind) {
            case EventKind::GlobalAcquire:
            case EventKind::Steal: {
                w.sched_overhead += e.duration();
                LevelOverhead& lo = level_slot(e);
                lo.acquire_seconds += e.duration();
                if (e.b > 0) {
                    ++w.global_chunks;
                    ++lo.acquires;
                    if (e.kind == EventKind::Steal) {
                        ++lo.steals;
                    }
                }
                break;
            }
            case EventKind::LocalPop: {
                w.sched_overhead += e.duration();
                w.lock_wait += e.wait;
                lock_waits.push_back(e.wait);
                LevelOverhead& lo = level_slot(e);
                lo.pop_seconds += e.duration();
                lo.lock_wait_seconds += e.wait;
                if (e.a >= 0) {  // empty probes record a == b == -1
                    ++lo.pops;
                }
                break;
            }
            case EventKind::ChunkExecBegin:
                state.exec_begin = e.t0;
                state.exec_open = true;
                break;
            case EventKind::ChunkExecEnd:
                if (state.exec_open) {
                    w.compute += e.t1 - state.exec_begin;
                    state.exec_open = false;
                } // an unmatched End (Begin dropped on overflow) adds nothing
                ++w.chunks;
                w.iterations += e.b - e.a;
                break;
            case EventKind::BarrierWait:
                w.barrier_wait += e.duration();
                break;
            case EventKind::Prefetch:
                if (e.a != 0) {
                    ++out.prefetch_hits;
                } else {
                    ++out.prefetch_misses;
                }
                out.prefetch_hidden_seconds += e.wait;
                break;
            case EventKind::Reclaim:
                out.reclaimed.emplace_back(e.a, e.b);
                out.reclaimed_iterations += e.b;
                break;
            case EventKind::RefillBegin:
            case EventKind::RefillEnd:
            case EventKind::Terminate:
            case EventKind::FeedbackReport:
                break;  // markers: no time attributed
        }
    }

    util::OnlineStats finish;
    workers.for_each([&](int, const WorkerState& state) {
        const WorkerBreakdown& w = state.totals;
        out.workers.push_back(w);
        finish.add(w.finish);
        out.total_compute += w.compute;
        out.total_sched_overhead += w.sched_overhead;
        out.total_lock_wait += w.lock_wait;
        out.total_barrier_wait += w.barrier_wait;
    });
    out.max_finish = finish.max();
    out.mean_finish = finish.mean();
    out.makespan = finish.max();
    out.finish_cov = finish.cov();
    if (out.mean_finish > 0.0) {
        out.max_over_mean = out.max_finish / out.mean_finish;
        out.percent_imbalance = (out.max_over_mean - 1.0) * 100.0;
    }
    detail::radix_sort(lock_waits, [](double t) { return detail::order_key(t); });
    out.lock_wait_stats = util::summarize_sorted(lock_waits);
    for (std::size_t i = 0; i < levels.size(); ++i) {
        if (level_used[i]) {
            out.levels.push_back(levels[i]);
        }
    }
    return out;
}

double TraceAnalysis::overhead_fraction() const noexcept {
    const double accounted = total_compute + total_sched_overhead + total_barrier_wait;
    return accounted > 0.0 ? total_sched_overhead / accounted : 0.0;
}

void TraceAnalysis::print(std::ostream& os) const {
    util::TextTable table({"worker", "node", "compute (ms)", "overhead (ms)", "lock wait (ms)",
                           "barrier wait (ms)", "finish (ms)", "chunks", "iterations"});
    for (const WorkerBreakdown& w : workers) {
        table.add_row({std::to_string(w.worker), std::to_string(w.node),
                       util::format_double(w.compute * 1e3, 3),
                       util::format_double(w.sched_overhead * 1e3, 3),
                       util::format_double(w.lock_wait * 1e3, 3),
                       util::format_double(w.barrier_wait * 1e3, 3),
                       util::format_double(w.finish * 1e3, 3), std::to_string(w.chunks),
                       std::to_string(w.iterations)});
    }
    table.print(os);
    if (!levels.empty()) {
        util::TextTable per_level({"level", "acquire (ms)", "acquires", "steals",
                                   "mean acquire", "pop (ms)", "pops", "lock wait (ms)"});
        for (const LevelOverhead& lo : levels) {
            per_level.add_row({std::to_string(lo.level),
                               util::format_double(lo.acquire_seconds * 1e3, 3),
                               std::to_string(lo.acquires), std::to_string(lo.steals),
                               util::format_seconds(lo.mean_acquire_seconds()),
                               util::format_double(lo.pop_seconds * 1e3, 3),
                               std::to_string(lo.pops),
                               util::format_double(lo.lock_wait_seconds * 1e3, 3)});
        }
        os << "per-level scheduling overhead (level 0 = root):\n";
        per_level.print(os);
    }
    if (!reclaimed.empty()) {
        os << "reclaimed: " << reclaimed.size() << " chunk(s), " << reclaimed_iterations
           << " iteration(s) re-executed after owner failure:";
        for (const auto& [start, size] : reclaimed) {
            os << " [" << start << "," << start + size << ")";
        }
        os << "\n";
    }
    if (prefetch_hits + prefetch_misses > 0) {
        os << "prefetch: " << prefetch_hits << " hits / " << prefetch_misses << " misses ("
           << util::format_double(prefetch_hit_rate() * 100.0, 1) << "% hit rate), "
           << util::format_seconds(prefetch_hidden_seconds)
           << " of acquisition prefetched ahead of demand\n";
    }
    os << "makespan: " << util::format_seconds(makespan)
       << "  imbalance: " << util::format_double(percent_imbalance, 2) << "%"
       << "  finish CoV: " << util::format_double(finish_cov, 4)
       << "  overhead share: " << util::format_double(overhead_fraction() * 100.0, 2) << "%\n"
       << "lock wait: mean " << util::format_seconds(lock_wait_stats.mean) << "  p99 "
       << util::format_seconds(lock_wait_stats.p99) << "  max "
       << util::format_seconds(lock_wait_stats.max) << "  (" << lock_wait_stats.count
       << " epochs)\n";
}

}  // namespace hdls::trace
