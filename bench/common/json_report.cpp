#include "common/json_report.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "metrics/exposition.hpp"
#include "metrics/metrics.hpp"
#include "util/stats.hpp"

#ifndef HDLS_GIT_SHA
#define HDLS_GIT_SHA "unknown"
#endif

namespace hdls::bench {

namespace {

[[nodiscard]] std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
            case '"':
                out += "\\\"";
                break;
            case '\\':
                out += "\\\\";
                break;
            case '\n':
                out += "\\n";
                break;
            case '\t':
                out += "\\t";
                break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

/// Full-precision compact number rendering (JSON has no NaN/Inf: they
/// serialize as 0, matching the trace exporters' convention).
[[nodiscard]] std::string number(double v) {
    if (!std::isfinite(v)) {
        return "0";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

void append_string_object(std::string& out,
                          const std::vector<std::pair<std::string, std::string>>& kv) {
    out += "{";
    for (std::size_t i = 0; i < kv.size(); ++i) {
        if (i > 0) {
            out += ",";
        }
        out += '"';
        out += json_escape(kv[i].first);
        out += "\":\"";
        out += json_escape(kv[i].second);
        out += '"';
    }
    out += "}";
}

/// Run metadata stamped into every report: which build produced the
/// numbers, where, and when — so archived CI artifacts stay attributable.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> run_metadata() {
    std::vector<std::pair<std::string, std::string>> meta;
    meta.emplace_back("git_sha", HDLS_GIT_SHA);
    char host[256] = "unknown";
    if (::gethostname(host, sizeof(host)) == 0) {
        host[sizeof(host) - 1] = '\0';
    }
    meta.emplace_back("hostname", host);
    std::time_t now = std::time(nullptr);
    std::tm utc{};
    char stamp[32] = "unknown";
    if (gmtime_r(&now, &utc) != nullptr) {
        std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
    }
    meta.emplace_back("timestamp_utc", stamp);
#if defined(__VERSION__)
    meta.emplace_back("compiler", __VERSION__);
#else
    meta.emplace_back("compiler", "unknown");
#endif
    return meta;
}

}  // namespace

JsonReport::Point& JsonReport::Point::label(const std::string& key, const std::string& value) {
    labels_.emplace_back(key, value);
    return *this;
}

JsonReport::Point& JsonReport::Point::label(const std::string& key, std::int64_t value) {
    return label(key, std::to_string(value));
}

JsonReport::Point& JsonReport::Point::sample(const std::string& metric, double value) {
    samples_[metric].push_back(value);
    return *this;
}

JsonReport::JsonReport(std::string name) : name_(std::move(name)) {}

void JsonReport::add_param(const std::string& key, const std::string& value) {
    params_.emplace_back(key, value);
}

void JsonReport::add_param(const std::string& key, double value) {
    add_param(key, std::string(number(value)));
}

void JsonReport::add_param(const std::string& key, std::int64_t value) {
    add_param(key, std::to_string(value));
}

JsonReport::Point& JsonReport::point() {
    points_.emplace_back();
    return points_.back();
}

std::string JsonReport::render() const {
    std::string out = "{\"name\":\"" + json_escape(name_) + "\",\"meta\":";
    append_string_object(out, run_metadata());
    out += ",\"params\":";
    append_string_object(out, params_);
    out += ",\"points\":[";
    for (std::size_t p = 0; p < points_.size(); ++p) {
        if (p > 0) {
            out += ",";
        }
        const Point& pt = points_[p];
        out += "\n{\"labels\":";
        append_string_object(out, pt.labels_);
        out += ",\"metrics\":{";
        bool first = true;
        for (const auto& [metric, values] : pt.samples_) {
            if (!first) {
                out += ",";
            }
            first = false;
            const util::Summary s = util::summarize(values);
            out += '"';
            out += json_escape(metric);
            out += "\":{\"count\":";
            out += std::to_string(s.count) + ",\"median\":" + number(s.median) +
                   ",\"mean\":" + number(s.mean) +
                   ",\"stddev\":" + number(s.stddev) + ",\"min\":" + number(s.min) +
                   ",\"max\":" + number(s.max) + ",\"values\":[";
            for (std::size_t i = 0; i < values.size(); ++i) {
                if (i > 0) {
                    out += ",";
                }
                out += number(values[i]);
            }
            out += "]}";
        }
        out += "}}";
    }
    // The process-wide runtime-metrics snapshot at render time: what the
    // scheduling layers actually did while the bench ran (counters are
    // process totals, not per-point deltas).
    out += "\n],\"metrics\":" + metrics::to_json(metrics::registry().snapshot()) + "}\n";
    return out;
}

void JsonReport::write(const std::string& path) const {
    const std::string doc = render();
    if (path == "-") {
        std::cout << doc;
        return;
    }
    std::ofstream file(path);
    if (!file) {
        throw std::runtime_error("json report: cannot open '" + path + "' for writing");
    }
    file << doc;
    if (!file) {
        throw std::runtime_error("json report: write to '" + path + "' failed");
    }
}

void add_json_option(util::ArgParser& cli) {
    cli.add_string("json", "",
                   "write a machine-readable report of this run to the given path "
                   "('-' for stdout); see bench/common/json_report.hpp for the schema");
}

bool maybe_write_json(const util::ArgParser& cli, const JsonReport& report) {
    const std::string path = cli.get_string("json");
    if (path.empty()) {
        return false;
    }
    report.write(path);
    return true;
}

}  // namespace hdls::bench
