#pragma once
/// \file json_report.hpp
/// Machine-readable benchmark output — the common `--json <path>` flag of
/// every bench binary.
///
/// A run serializes to one JSON document:
///
///   {"name": "bench_ablation_shard_contention",
///    "meta": {"git_sha": "...", "hostname": "...",
///             "timestamp_utc": "2026-08-08T12:00:00Z", "compiler": "..."},
///    "params": {"scale": "0.02", "rpn": "16"},
///    "points": [
///      {"labels": {"nodes": "32", "backend": "sharded"},
///       "metrics": {"acquire_us": {"count": 3, "median": 2.2,
///                   "mean": 2.3, "stddev": 0.1, "min": 2.2, "max": 2.4,
///                   "values": [2.2, 2.4, 2.2]}}}],
///    "metrics": {...}}   // process-wide runtime-metrics snapshot
///                        // (metrics::to_json) taken at render time
///
/// Repeated samples of a metric at one point are aggregated through
/// util::summarize — the one stats implementation — instead of the ad-hoc
/// mean/median math bench binaries used to hand-roll. CI's perf-smoke job
/// parses these artifacts and fails on sanity inversions, so the perf
/// claims of the ablation benches hold as a machine-checked trend rather
/// than an eyeballed table. (The bench_micro_* binaries are Google
/// Benchmark programs; use their native --benchmark_format=json instead.)

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace hdls::bench {

class JsonReport {
public:
    /// One measured point of a sweep, identified by its labels (e.g.
    /// nodes=32, backend=sharded). Metrics hold one sample per repetition.
    class Point {
    public:
        Point& label(const std::string& key, const std::string& value);
        Point& label(const std::string& key, std::int64_t value);
        /// Adds one repetition's sample of `metric` at this point.
        Point& sample(const std::string& metric, double value);

    private:
        friend class JsonReport;
        std::vector<std::pair<std::string, std::string>> labels_;
        std::map<std::string, std::vector<double>> samples_;
    };

    /// `name` is the bench binary's name (the document's identity in CI).
    explicit JsonReport(std::string name);

    /// Run-level parameters (workload scale, ranks per node, cost-model
    /// overrides, ...), rendered in insertion order.
    void add_param(const std::string& key, const std::string& value);
    void add_param(const std::string& key, double value);
    void add_param(const std::string& key, std::int64_t value);

    /// Appends a new point and returns it for label()/sample() chaining.
    /// The reference stays valid until the next point() call.
    [[nodiscard]] Point& point();

    /// Renders the whole document (exposed for tests; write() uses it).
    [[nodiscard]] std::string render() const;

    /// Serializes to `path` ("-" writes to stdout). Throws
    /// std::runtime_error when the file cannot be opened.
    void write(const std::string& path) const;

private:
    std::string name_;
    std::vector<std::pair<std::string, std::string>> params_;
    std::vector<Point> points_;
};

/// Registers the common `--json <path>` option on a bench parser (call
/// alongside add_common_options).
void add_json_option(util::ArgParser& cli);

/// Writes `report` to the path given via --json, if one was provided.
/// Returns true when a file was written.
bool maybe_write_json(const util::ArgParser& cli, const JsonReport& report);

}  // namespace hdls::bench
