#include "sim/report.hpp"

#include "util/stats.hpp"
#include "util/table.hpp"

namespace hdls::sim {

std::int64_t SimReport::executed_iterations() const noexcept {
    std::int64_t n = 0;
    for (const auto& w : workers) {
        n += w.iterations;
    }
    return n;
}

std::int64_t SimReport::global_chunks() const noexcept {
    std::int64_t n = 0;
    for (const auto& w : workers) {
        n += w.global_refills;
    }
    return n;
}

std::int64_t SimReport::sub_chunks() const noexcept {
    std::int64_t n = 0;
    for (const auto& w : workers) {
        n += w.sub_chunks;
    }
    return n;
}

double SimReport::total_busy() const noexcept {
    double s = 0.0;
    for (const auto& w : workers) {
        s += w.busy;
    }
    return s;
}

double SimReport::total_overhead() const noexcept {
    double s = 0.0;
    for (const auto& w : workers) {
        s += w.overhead;
    }
    return s;
}

double SimReport::total_lock_wait() const noexcept {
    double s = 0.0;
    for (const auto& w : workers) {
        s += w.lock_wait;
    }
    return s;
}

double SimReport::total_idle() const noexcept {
    double s = 0.0;
    for (const auto& w : workers) {
        s += w.idle;
    }
    return s;
}

double SimReport::efficiency() const noexcept {
    const double denom = parallel_time * static_cast<double>(workers.size());
    return denom > 0.0 ? total_busy() / denom : 0.0;
}

double SimReport::finish_cov() const noexcept {
    util::OnlineStats s;
    for (const auto& w : workers) {
        s.add(w.finish);
    }
    return s.cov();
}

void SimReport::print(std::ostream& os) const {
    os << "nodes=" << nodes << " workers/node=" << workers_per_node
       << " N=" << total_iterations << "\n";
    if (topology.size() > 2) {
        os << "  hierarchy:";
        for (std::size_t d = 0; d < topology.size(); ++d) {
            os << (d == 0 ? " " : " -> ") << topology[d].name << "=" << topology[d].fan_out;
        }
        os << "\n";
    }
    os
       << "  T_par=" << util::format_seconds(parallel_time)
       << "  efficiency=" << util::format_double(100.0 * efficiency(), 1) << "%"
       << "  finish CoV=" << util::format_double(finish_cov(), 4) << "\n"
       << "  busy=" << util::format_seconds(total_busy())
       << "  overhead=" << util::format_seconds(total_overhead())
       << " (lock wait " << util::format_seconds(total_lock_wait()) << ")"
       << "  idle=" << util::format_seconds(total_idle()) << "\n"
       << "  global chunks=" << global_chunks() << "  sub-chunks=" << sub_chunks() << "\n";
}

}  // namespace hdls::sim
