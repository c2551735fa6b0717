#include "trace/export.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/worker_table.hpp"

namespace hdls::trace {

namespace {

/// A double rendered as printf("%.3f") would (Chrome microsecond values);
/// non-finite values render as 0.
struct Fixed3 {
    double v;
};

/// A double rendered as printf("%.9g") would (CSV second values, whose
/// full precision Fixed3 would quantize to 1 ms); non-finite values
/// render as 0.
struct General9 {
    double v;
};

/// A string written JSON-escaped (the strings here are technique/approach
/// names, but stay correct for arbitrary content).
struct Escaped {
    std::string_view s;
};

/// Formats into one reusable char buffer with std::to_chars and hands it
/// to the stream in large writes: no per-value temporaries, no locale.
class Writer {
public:
    explicit Writer(std::ostream& os)
        : os_(os), buf_(std::make_unique_for_overwrite<char[]>(kSize)) {}

    template <typename... Ts>
    void put(const Ts&... parts) {
        (put_one(parts), ...);
    }

    /// Writes out what is buffered; call once at the end.
    void flush() {
        os_.write(buf_.get(), static_cast<std::streamsize>(pos_));
        pos_ = 0;
    }

private:
    static constexpr std::size_t kSize = std::size_t{1} << 16;
    /// Room for any one number: %.3f of the largest double is 314 chars.
    static constexpr std::size_t kNumberRoom = 320;

    void make_room(std::size_t n) {
        if (kSize - pos_ < n) {
            flush();
        }
    }

    void put_one(std::string_view s) {
        if (s.size() > kSize - pos_) {
            flush();
            if (s.size() > kSize) {
                os_.write(s.data(), static_cast<std::streamsize>(s.size()));
                return;
            }
        }
        std::memcpy(buf_.get() + pos_, s.data(), s.size());
        pos_ += s.size();
    }

    template <std::integral T>
    void put_one(T v) {
        make_room(kNumberRoom);
        pos_ = static_cast<std::size_t>(
            std::to_chars(buf_.get() + pos_, buf_.get() + kSize, v).ptr - buf_.get());
    }

    void put_one(Fixed3 x) {
        if (!put_fixed3_short(x.v)) {
            put_double(x.v, std::chars_format::fixed, 3);
        }
    }
    void put_one(General9 x) { put_double(x.v, std::chars_format::general, 9); }

    /// %.3f in integer arithmetic, for the common case (several times
    /// cheaper than the general to_chars). Below 2^40 the rounded product
    /// v * 1000 is within 2^-14 of the exact one, so unless its fraction
    /// lies within 2^-10 of one half, rounding it to an integer rounds the
    /// exact product the same way printf does. Writes nothing and returns
    /// false otherwise (including for non-finite values).
    bool put_fixed3_short(double v) {
        const double scaled = std::fabs(v * 1000.0);
        if (!(scaled < 0x1p40)) {
            return false;
        }
        const double whole = std::floor(scaled);
        const double frac = scaled - whole;  // exact
        if (std::fabs(frac - 0.5) < 0x1p-10) {
            return false;
        }
        const auto milli = static_cast<std::uint64_t>(whole) + (frac > 0.5 ? 1 : 0);
        make_room(kNumberRoom);
        char* p = buf_.get() + pos_;
        if (std::signbit(v)) {
            *p++ = '-';  // printf keeps the sign of values that round to zero
        }
        p = std::to_chars(p, buf_.get() + kSize, milli / 1000).ptr;
        const auto rest = static_cast<unsigned>(milli % 1000);
        p[0] = '.';
        p[1] = static_cast<char>('0' + rest / 100);
        p[2] = static_cast<char>('0' + rest / 10 % 10);
        p[3] = static_cast<char>('0' + rest % 10);
        pos_ = static_cast<std::size_t>(p + 4 - buf_.get());
        return true;
    }

    void put_double(double v, std::chars_format fmt, int precision) {
        if (!std::isfinite(v)) {
            put_one(std::string_view{"0"});
            return;
        }
        make_room(kNumberRoom);
        pos_ = static_cast<std::size_t>(
            std::to_chars(buf_.get() + pos_, buf_.get() + kSize, v, fmt, precision).ptr -
            buf_.get());
    }

    void put_one(Escaped x) {
        for (const char c : x.s) {
            switch (c) {
                case '"':
                    put_one(std::string_view{"\\\""});
                    break;
                case '\\':
                    put_one(std::string_view{"\\\\"});
                    break;
                case '\n':
                    put_one(std::string_view{"\\n"});
                    break;
                case '\t':
                    put_one(std::string_view{"\\t"});
                    break;
                default:
                    if (static_cast<unsigned char>(c) < 0x20) {
                        constexpr std::string_view kHex = "0123456789abcdef";
                        const char code[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf],
                                             kHex[c & 0xf]};
                        put_one(std::string_view{code, sizeof(code)});
                    } else {
                        put_one(std::string_view{&c, 1});
                    }
            }
        }
    }

    std::ostream& os_;
    std::unique_ptr<char[]> buf_;
    std::size_t pos_ = 0;
};

[[nodiscard]] double us(double seconds) { return seconds * 1e6; }

/// Marks the first event of every (node, worker) lane: a flat table over
/// the lanes' id ranges, falling back to a set for sparse ids.
class LaneSet {
public:
    explicit LaneSet(const std::vector<Event>& events) {
        if (events.empty()) {
            return;
        }
        int node_hi = node_lo_ = events.front().node;
        int worker_hi = worker_lo_ = events.front().worker;
        for (const Event& e : events) {
            node_lo_ = std::min(node_lo_, e.node);
            node_hi = std::max(node_hi, e.node);
            worker_lo_ = std::min(worker_lo_, e.worker);
            worker_hi = std::max(worker_hi, e.worker);
        }
        const auto nodes = static_cast<std::size_t>(std::int64_t{node_hi} - node_lo_ + 1);
        workers_ = static_cast<std::size_t>(std::int64_t{worker_hi} - worker_lo_ + 1);
        if (nodes <= kMaxFlat / workers_) {
            flat_.assign(nodes * workers_, 0);
        }
    }

    /// True the first time a lane is inserted.
    bool insert(int node, int worker) {
        if (flat_.empty()) {
            return sparse_.insert({node, worker}).second;
        }
        unsigned char& seen = flat_[static_cast<std::size_t>(node - node_lo_) * workers_ +
                                    static_cast<std::size_t>(worker - worker_lo_)];
        const bool fresh = seen == 0;
        seen = 1;
        return fresh;
    }

private:
    static constexpr std::size_t kMaxFlat = std::size_t{1} << 22;
    int node_lo_ = 0;
    int worker_lo_ = 0;
    std::size_t workers_ = 1;
    std::vector<unsigned char> flat_;
    std::set<std::pair<int, int>> sparse_;
};

}  // namespace

void export_chrome_json(const Trace& trace, std::ostream& os) {
    Writer w(os);
    w.put("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"approach\":\"",
          Escaped{trace.meta.approach}, "\",\"inter\":\"", Escaped{trace.meta.inter},
          "\",\"intra\":\"", Escaped{trace.meta.intra}, "\",\"nodes\":", trace.meta.nodes,
          ",\"workers_per_node\":", trace.meta.workers_per_node,
          ",\"total_iterations\":", trace.meta.total_iterations,
          ",\"dropped_events\":", trace.dropped(), "},\"traceEvents\":[");

    // Entries are separated by ",\n"; the first is preceded by "\n" only.
    bool first = true;
    const auto next_entry = [&] {
        w.put(first ? "\n" : ",\n");
        first = false;
    };

    // Thread-name metadata: label every worker lane (pid = node).
    LaneSet lanes(trace.events);
    for (const Event& e : trace.events) {
        if (lanes.insert(e.node, e.worker)) {
            next_entry();
            w.put("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":", e.node,
                  ",\"tid\":", e.worker, ",\"args\":{\"name\":\"worker ", e.worker, "\"}}");
        }
    }

    for (const Event& e : trace.events) {
        next_entry();
        const int level = e.level;
        const auto head = [&](std::string_view name_ph) {
            w.put("{\"name\":\"", name_ph, ",\"pid\":", e.node, ",\"tid\":", e.worker,
                  ",\"ts\":", Fixed3{us(e.t0)});
        };
        const auto dur = [&] { w.put(",\"dur\":", Fixed3{us(e.duration())}); };
        switch (e.kind) {
            case EventKind::GlobalAcquire:
                head("GlobalAcquire\",\"ph\":\"X\"");
                dur();
                w.put(",\"args\":{\"start\":", e.a, ",\"size\":", e.b, ",\"level\":", level,
                      "}}");
                break;
            case EventKind::LocalPop:
                head("LocalPop\",\"ph\":\"X\"");
                dur();
                w.put(",\"args\":{\"begin\":", e.a, ",\"end\":", e.b,
                      ",\"lock_wait_us\":", Fixed3{us(e.wait)}, ",\"level\":", level, "}}");
                break;
            case EventKind::BarrierWait:
                head("BarrierWait\",\"ph\":\"X\"");
                dur();
                w.put("}");
                break;
            case EventKind::ChunkExecBegin:
                head("ChunkExec\",\"ph\":\"B\"");
                w.put(",\"args\":{\"begin\":", e.a, ",\"end\":", e.b, "}}");
                break;
            case EventKind::ChunkExecEnd:
                head("ChunkExec\",\"ph\":\"E\"");
                w.put("}");
                break;
            case EventKind::RefillBegin:
                head("Refill\",\"ph\":\"B\"");
                w.put("}");
                break;
            case EventKind::RefillEnd:
                head("Refill\",\"ph\":\"E\"");
                w.put(",\"args\":{\"start\":", e.a, ",\"size\":", e.b, "}}");
                break;
            case EventKind::Terminate:
                head("Terminate\",\"ph\":\"i\",\"s\":\"t\"");
                w.put("}");
                break;
            case EventKind::FeedbackReport:
                head("FeedbackReport\",\"ph\":\"i\",\"s\":\"t\"");
                w.put(",\"args\":{\"iterations\":", e.a, ",\"time_ns\":", e.b, "}}");
                break;
            case EventKind::Steal:
                head("Steal\",\"ph\":\"X\"");
                dur();
                w.put(",\"args\":{\"start\":", e.a, ",\"size\":", e.b, ",\"level\":", level,
                      "}}");
                break;
            case EventKind::Prefetch:
                head("Prefetch\",\"ph\":\"i\",\"s\":\"t\"");
                w.put(",\"args\":{\"hit\":", e.a, ",\"start\":", e.b,
                      ",\"hidden_us\":", Fixed3{us(e.wait)}, ",\"level\":", level, "}}");
                break;
            case EventKind::Reclaim:
                head("Reclaim\",\"ph\":\"i\",\"s\":\"t\"");
                w.put(",\"args\":{\"start\":", e.a, ",\"size\":", e.b, "}}");
                break;
        }
    }
    w.put("\n]}\n");
    w.flush();
}

void export_csv(const Trace& trace, std::ostream& os) {
    Writer w(os);
    w.put("kind,worker,node,level,t0,t1,wait,a,b\n");
    for (const Event& e : trace.events) {
        w.put(event_kind_name(e.kind), ",", e.worker, ",", e.node, ",", int{e.level}, ",",
              General9{e.t0}, ",", General9{e.t1}, ",", General9{e.wait}, ",", e.a, ",", e.b,
              "\n");
    }
    w.flush();
}

void ascii_gantt(const Trace& trace, std::ostream& os, int width) {
    width = std::max(width, 10);
    const double span = trace.duration();
    if (trace.events.empty() || span <= 0.0) {
        os << "(empty trace)\n";
        return;
    }

    const double col_w = span / width;
    const auto col_of = [&](double t) {
        return std::clamp(static_cast<int>(t / col_w), 0, width - 1);
    };
    // Painting priority: exec over overhead over wait over idle.
    const auto paint = [&](std::string& row, double t0, double t1, char c) {
        const auto rank = [](char ch) {
            switch (ch) {
                case '#':
                    return 3;
                case '+':
                    return 2;
                case '.':
                    return 1;
                default:
                    return 0;
            }
        };
        for (int col = col_of(t0); col <= col_of(std::max(t0, t1 - 1e-12)); ++col) {
            if (rank(c) > rank(row[static_cast<std::size_t>(col)])) {
                row[static_cast<std::size_t>(col)] = c;
            }
        }
    };

    // One pass paints every worker's row.
    struct Row {
        std::string cells;
        double exec_begin = -1.0;  ///< t0 of the open ChunkExecBegin, or -1
    };
    detail::WorkerTable<Row> rows(trace.workers());
    for (const Event& e : trace.events) {
        auto [row, first] = rows.at(e.worker);
        if (first) {
            row.cells.assign(static_cast<std::size_t>(width), ' ');
        }
        switch (e.kind) {
            case EventKind::GlobalAcquire:
            case EventKind::Steal:
            case EventKind::LocalPop:
                paint(row.cells, e.t0, e.t1, '+');
                break;
            case EventKind::BarrierWait:
                paint(row.cells, e.t0, e.t1, '.');
                break;
            case EventKind::ChunkExecBegin:
                row.exec_begin = e.t0;
                break;
            case EventKind::ChunkExecEnd:
                if (row.exec_begin >= 0.0) {
                    paint(row.cells, row.exec_begin, e.t1, '#');
                    row.exec_begin = -1.0;
                }
                break;
            default:
                break;
        }
    }
    rows.for_each([&](int worker, const Row& row) {
        char label[16];
        std::snprintf(label, sizeof(label), "w%-3d |", worker);
        os << label << row.cells << "|\n";
    });
    Writer w(os);
    w.put("      0", std::string(static_cast<std::size_t>(std::max(0, width - 1)), ' '), "t=",
          Fixed3{span * 1e3}, "ms\n",
          "      '#' compute  '+' scheduling overhead  '.' wait  ' ' idle\n");
    w.flush();
}

}  // namespace hdls::trace
