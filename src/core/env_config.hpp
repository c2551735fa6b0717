#pragma once
/// \file env_config.hpp
/// Runtime selection of the scheduling combination — the flexibility the
/// paper's Section 3 calls for ("one input parameter specifies the
/// selected DLS technique", like OpenMP's schedule(runtime) clause) and
/// plans as future work for its library form.
///
/// Combination syntax:  "<L0>+<L1>[+<L2>...][,min_chunk=<k>]"
/// e.g. "GSS+STATIC", "FAC2+SS,min_chunk=4", "FAC2+GSS+SS" (one technique
/// per topology level, outermost first; two techniques are the classic
/// inter+intra pair).
/// Approach syntax:     "MPI+MPI" | "MPI+OpenMP".
/// Topology syntax:     "<name>=<fanout>,<name>=<fanout>,..." outermost
/// level first, e.g. "racks=2,nodes=4,cores=8" (the fan-outs must
/// multiply to the world size; the innermost level is the shared-memory
/// leaf).
///
/// The environment variables (the schedule(runtime) analogue):
///     HDLS_SCHEDULE       — combination string as above
///     HDLS_TRACE          — "1"/"on"/"true" enables chunk-event tracing
///     HDLS_INTER_BACKEND  — "centralized" | "sharded" inter-level backend
///     HDLS_TOPOLOGY       — machine tree as above
///     HDLS_PREFETCH       — "1"/"on"/"true" enables async chunk prefetching
///     HDLS_METRICS        — "1"/"on"/"true" starts the metrics sampler and
///                           stall watchdog for run_hierarchical calls
///     HDLS_METRICS_PERIOD_MS — sampler/watchdog period in ms (default 100)
///     HDLS_METRICS_FILE   — Prometheus exposition file path (default
///                           "hdls-metrics.prom")
///     HDLS_TRANSPORT      — "threads" | "shm" minimpi substrate of MPI+MPI
///                           runs (thread mailboxes vs one POSIX shm segment;
///                           read by minimpi::transport_from_env)
///     HDLS_SIMD           — "auto" | "scalar" | "native" SIMD backend
///                           policy for the batch kernels (src/simd/)
///     HDLS_PIN            — "none" | "compact" | "scatter" thread/rank
///                           placement over the host's sockets
///     HDLS_LEASE          — "1"/"on"/"true" enables lease-based fault
///                           tolerance under MPI+MPI (docs/fault-tolerance.md)
///     HDLS_LEASE_K        — lease-deadline multiplier over the chunk-time
///                           EMA (a positive number, default 8)
///     HDLS_HEARTBEAT_TIMEOUT_MS — failure-detector staleness timeout in ms
///                           (default 1000)
///     HDLS_CHAOS          — fault injection: "kill:<rank>@<pct>%" fail-stops
///                           a rank at a loop-progress fraction (chaos tests)
///
/// Malformed HDLS_SCHEDULE / HDLS_TRACE fall back with a warning
/// (mirroring how OpenMP runtimes treat bad OMP_SCHEDULE values);
/// every other malformed knob — HDLS_TOPOLOGY / HDLS_INTER_BACKEND /
/// HDLS_PREFETCH / HDLS_METRICS / HDLS_METRICS_PERIOD_MS / HDLS_TRANSPORT /
/// HDLS_SIMD / HDLS_PIN / HDLS_LEASE / HDLS_LEASE_K /
/// HDLS_HEARTBEAT_TIMEOUT_MS / HDLS_CHAOS — *throws* a one-line
/// std::invalid_argument instead — a mis-shaped machine tree, an unknown
/// backend or a typo'd toggle silently reverting to defaults would change
/// what the run measures (or silently disable the observability or fault
/// tolerance the user asked for).

#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.hpp"

namespace hdls::core {

/// Parses "L0+L1[+L2...][,min_chunk=k]" (case-insensitive, spaces
/// allowed). Two techniques set inter/intra; more additionally fill
/// HierConfig::levels (backends unset — they inherit inter_backend).
/// Returns std::nullopt with no side effects on malformed input.
[[nodiscard]] std::optional<HierConfig> parse_schedule(std::string_view text);

/// Renders a config back to its canonical string ("GSS+STATIC,min_chunk=4";
/// the suffix is omitted when min_chunk == 1; deeper configs render every
/// level's technique). parse(format(x)) == x.
[[nodiscard]] std::string format_schedule(const HierConfig& cfg);

/// Parses "MPI+MPI" / "MPI+OpenMP" (several common spellings accepted).
[[nodiscard]] std::optional<Approach> parse_approach(std::string_view text);

/// Parses "name=fanout,name=fanout,..." (case-preserving names, spaces
/// allowed, outermost level first). Throws std::invalid_argument with a
/// one-line message for empty input, empty level entries, missing '=',
/// empty names or fan-outs < 1. The fan-out product is validated against
/// the world size where the topology is used (resolve_hierarchy /
/// minimpi::Runtime).
[[nodiscard]] std::vector<minimpi::TopologyLevel> parse_topology(std::string_view text);

/// Renders a tree back to its canonical string ("racks=2,nodes=4,cores=8").
[[nodiscard]] std::string format_topology(const std::vector<minimpi::TopologyLevel>& tree);

/// Reads HDLS_SCHEDULE; falls back to `fallback` when unset or malformed
/// (malformed values are reported via util::log_warn).
[[nodiscard]] HierConfig schedule_from_env(const HierConfig& fallback = HierConfig{});

/// Reads HDLS_TRACE ("1"/"on"/"true"/"yes" enable, "0"/"off"/"false"/"no"
/// disable, case-insensitive); same fallback contract.
[[nodiscard]] bool trace_from_env(bool fallback = false);

/// Reads HDLS_PREFETCH ("1"/"on"/"true"/"yes" enable, "0"/"off"/"false"/
/// "no" disable, case-insensitive). Returns `fallback` when unset; throws
/// std::invalid_argument when set to anything else (no silent fallback).
[[nodiscard]] bool prefetch_from_env(bool fallback = false);

/// Reads HDLS_INTER_BACKEND ("centralized" | "sharded", case-insensitive).
/// Returns `fallback` when unset; throws std::invalid_argument when set to
/// anything else (no silent fallback — see the file comment).
[[nodiscard]] dls::InterBackend inter_backend_from_env(
    dls::InterBackend fallback = dls::InterBackend::Centralized);

/// Reads HDLS_TOPOLOGY. Returns `fallback` when unset; throws
/// std::invalid_argument when set but malformed (no silent fallback).
[[nodiscard]] std::vector<minimpi::TopologyLevel> topology_from_env(
    std::vector<minimpi::TopologyLevel> fallback = {});

/// Reads HDLS_METRICS ("1"/"on"/"true"/"yes" enable, "0"/"off"/"false"/
/// "no" disable, case-insensitive): run_hierarchical starts the background
/// MetricsSampler (exposition file included) and the StallWatchdog when
/// enabled. Returns `fallback` when unset; throws std::invalid_argument
/// when set to anything else (no silent fallback).
[[nodiscard]] bool metrics_from_env(bool fallback = false);

/// Reads HDLS_METRICS_PERIOD_MS (a positive integer, milliseconds).
/// Returns `fallback` when unset; throws std::invalid_argument when set
/// but not a positive integer (no silent fallback).
[[nodiscard]] std::chrono::milliseconds metrics_period_from_env(
    std::chrono::milliseconds fallback = std::chrono::milliseconds(100));

/// Reads HDLS_METRICS_FILE (the Prometheus exposition file path). Returns
/// `fallback` when unset; throws std::invalid_argument when set but empty.
[[nodiscard]] std::string metrics_file_from_env(
    std::string fallback = "hdls-metrics.prom");

/// Reads HDLS_SIMD ("auto" | "scalar" | "native", case-insensitive): the
/// SIMD backend policy of the batch kernels. Returns `fallback` when unset;
/// throws std::invalid_argument when set to anything else (no silent
/// fallback — a typo'd "avx" silently measuring scalar would invalidate
/// every throughput number the run produces).
[[nodiscard]] simd::SimdMode simd_mode_from_env(
    simd::SimdMode fallback = simd::SimdMode::Auto);

/// Reads HDLS_LEASE ("1"/"on"/"true"/"yes" enable, "0"/"off"/"false"/"no"
/// disable, case-insensitive): lease-based fault tolerance for MPI+MPI
/// runs. Returns `fallback` when unset; throws std::invalid_argument when
/// set to anything else (no silent fallback — a typo'd toggle silently
/// running without leases would change what a failure drill exercises).
[[nodiscard]] bool lease_from_env(bool fallback = false);

/// Reads HDLS_LEASE_K (a positive number): the lease-deadline multiplier
/// over the worker's chunk-time EMA. Returns `fallback` when unset; throws
/// std::invalid_argument when set but not a positive number.
[[nodiscard]] double lease_k_from_env(double fallback = 8.0);

/// Reads HDLS_HEARTBEAT_TIMEOUT_MS (a positive integer, milliseconds): how
/// long a rank's heartbeat word may stay unchanged before the failure
/// detector declares it dead. Returns `fallback` when unset; throws
/// std::invalid_argument when set but not a positive integer.
[[nodiscard]] std::chrono::milliseconds heartbeat_timeout_from_env(
    std::chrono::milliseconds fallback = std::chrono::milliseconds(1000));

/// Parses a chaos spec "kill:<rank>@<pct>%" (spaces allowed; the trailing
/// '%' optional), e.g. "kill:1@50%": world rank 1 fail-stops once loop
/// progress passes 50% of the iteration space. Throws
/// std::invalid_argument with a one-line message on anything else.
[[nodiscard]] ChaosSpec parse_chaos(std::string_view text);

/// Reads HDLS_CHAOS. Returns `fallback` (default: no injection) when
/// unset; throws std::invalid_argument when set but malformed (no silent
/// fallback — a typo'd chaos spec silently running a healthy cluster would
/// invalidate the whole drill).
[[nodiscard]] ChaosSpec chaos_from_env(ChaosSpec fallback = ChaosSpec{});

/// Reads HDLS_PIN ("none" | "compact" | "scatter", case-insensitive): the
/// placement of leaf workers over the host's sockets. Returns `fallback`
/// when unset; throws std::invalid_argument when set to anything else (no
/// silent fallback — a typo'd pin policy silently running unpinned would
/// change what a NUMA experiment measures).
[[nodiscard]] minimpi::PinPolicy pin_from_env(
    minimpi::PinPolicy fallback = minimpi::PinPolicy::None);

}  // namespace hdls::core
