#include "core/env_config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <stdexcept>

#include "util/log.hpp"

namespace hdls::core {

namespace {

[[nodiscard]] std::string normalized(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char ch : text) {
        if (!std::isspace(static_cast<unsigned char>(ch))) {
            out.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(ch))));
        }
    }
    return out;
}

[[nodiscard]] std::string stripped(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char ch : text) {
        if (!std::isspace(static_cast<unsigned char>(ch))) {
            out.push_back(ch);
        }
    }
    return out;
}

[[nodiscard]] std::vector<std::string> split(const std::string& text, char sep) {
    std::vector<std::string> parts;
    std::size_t from = 0;
    for (;;) {
        const std::size_t at = text.find(sep, from);
        if (at == std::string::npos) {
            parts.push_back(text.substr(from));
            return parts;
        }
        parts.push_back(text.substr(from, at - from));
        from = at + 1;
    }
}

/// The one boolean grammar: "1"/"on"/"true"/"yes" and "0"/"off"/"false"/
/// "no", case- and whitespace-insensitive; nullopt for anything else.
[[nodiscard]] std::optional<bool> parse_bool(std::string_view text) {
    const std::string s = normalized(text);
    if (s == "1" || s == "ON" || s == "TRUE" || s == "YES") {
        return true;
    }
    if (s == "0" || s == "OFF" || s == "FALSE" || s == "NO") {
        return false;
    }
    return std::nullopt;
}

/// A strict boolean knob: `fallback` when unset, throws when malformed.
[[nodiscard]] bool strict_bool_from_env(const char* name, bool fallback) {
    const char* value = std::getenv(name);
    if (value == nullptr) {
        return fallback;
    }
    if (const auto b = parse_bool(value)) {
        return *b;
    }
    throw std::invalid_argument(std::string(name) + "='" + value +
                                "' is not a boolean (expected 1/on/true/yes or 0/off/false/no)");
}

/// A strict integer knob of at least `min`: `fallback` when unset, throws
/// "<name>='<value>' is not <expected>" when malformed or below `min`.
template <class Int>
[[nodiscard]] Int strict_int_from_env(const char* name, Int fallback, Int min,
                                      const char* expected) {
    const char* value = std::getenv(name);
    if (value == nullptr) {
        return fallback;
    }
    const std::string s = stripped(value);
    Int v = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || ptr != s.data() + s.size() || v < min) {
        throw std::invalid_argument(std::string(name) + "='" + value + "' is not " + expected);
    }
    return v;
}

}  // namespace

std::optional<HierConfig> parse_schedule(std::string_view text) {
    const std::string s = normalized(text);
    if (s.empty()) {
        return std::nullopt;
    }
    std::string combo = s;
    HierConfig cfg;
    if (const auto comma = s.find(','); comma != std::string::npos) {
        combo = s.substr(0, comma);
        const std::string option = s.substr(comma + 1);
        constexpr std::string_view kKey = "MIN_CHUNK=";
        if (option.rfind(kKey, 0) != 0) {
            return std::nullopt;
        }
        const std::string value = option.substr(kKey.size());
        std::int64_t k = 0;
        const auto [ptr, ec] =
            std::from_chars(value.data(), value.data() + value.size(), k);
        if (ec != std::errc{} || ptr != value.data() + value.size() || k < 1) {
            return std::nullopt;
        }
        cfg.min_chunk = k;
    }
    const std::vector<std::string> parts = split(combo, '+');
    if (parts.size() < 2) {
        return std::nullopt;
    }
    std::vector<dls::Technique> techniques;
    techniques.reserve(parts.size());
    for (const std::string& part : parts) {
        const auto t = dls::technique_from_string(part);
        if (!t) {
            return std::nullopt;
        }
        techniques.push_back(*t);
    }
    cfg.inter = techniques.front();
    cfg.intra = techniques.back();
    if (techniques.size() > 2) {
        // One technique per topology level; backends stay unset so each
        // interior level inherits the run's inter_backend.
        cfg.levels.reserve(techniques.size());
        for (const dls::Technique t : techniques) {
            cfg.levels.push_back(LevelConfig{t, std::nullopt});
        }
    }
    return cfg;
}

std::string format_schedule(const HierConfig& cfg) {
    std::string out;
    if (cfg.levels.size() > 2) {
        for (std::size_t d = 0; d < cfg.levels.size(); ++d) {
            if (d > 0) {
                out += "+";
            }
            out += std::string(dls::technique_name(cfg.levels[d].technique));
        }
    } else {
        out = std::string(dls::technique_name(cfg.inter)) + "+" +
              std::string(dls::technique_name(cfg.intra));
    }
    if (cfg.min_chunk != 1) {
        out += ",min_chunk=" + std::to_string(cfg.min_chunk);
    }
    return out;
}

std::optional<Approach> parse_approach(std::string_view text) {
    const std::string s = normalized(text);
    if (s == "MPI+MPI" || s == "MPIMPI") {
        return Approach::MpiMpi;
    }
    if (s == "MPI+OPENMP" || s == "MPIOPENMP" || s == "HYBRID") {
        return Approach::MpiOpenMp;
    }
    return std::nullopt;
}

std::vector<minimpi::TopologyLevel> parse_topology(std::string_view text) {
    const std::string s = stripped(text);
    if (s.empty()) {
        throw std::invalid_argument("topology: empty spec (expected name=fanout,...)");
    }
    std::vector<minimpi::TopologyLevel> tree;
    for (const std::string& entry : split(s, ',')) {
        if (entry.empty()) {
            throw std::invalid_argument("topology: empty level in '" + s + "'");
        }
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument("topology: level '" + entry +
                                        "' is not of the form name=fanout");
        }
        const std::string name = entry.substr(0, eq);
        const std::string value = entry.substr(eq + 1);
        if (name.empty()) {
            throw std::invalid_argument("topology: level '" + entry + "' has an empty name");
        }
        int fan_out = 0;
        const auto [ptr, ec] =
            std::from_chars(value.data(), value.data() + value.size(), fan_out);
        if (ec != std::errc{} || ptr != value.data() + value.size()) {
            throw std::invalid_argument("topology: level '" + name + "' fan-out '" + value +
                                        "' is not a number");
        }
        if (fan_out < 1) {
            throw std::invalid_argument("topology: level '" + name +
                                        "' fan-out must be >= 1 (got " + value + ")");
        }
        tree.push_back({name, fan_out});
    }
    return tree;
}

std::string format_topology(const std::vector<minimpi::TopologyLevel>& tree) {
    std::string out;
    for (std::size_t d = 0; d < tree.size(); ++d) {
        if (d > 0) {
            out += ",";
        }
        out += tree[d].name + "=" + std::to_string(tree[d].fan_out);
    }
    return out;
}

HierConfig schedule_from_env(const HierConfig& fallback) {
    const char* value = std::getenv("HDLS_SCHEDULE");
    if (value == nullptr) {
        return fallback;
    }
    if (const auto cfg = parse_schedule(value)) {
        // The env var expresses the *schedule* (per-level techniques,
        // min_chunk); every other field — tracing, topology, extension
        // schedules, WF node weights, FAC inputs, whatever is added next —
        // keeps the program's configuration.
        HierConfig merged = fallback;
        merged.inter = cfg->inter;
        merged.intra = cfg->intra;
        merged.min_chunk = cfg->min_chunk;
        merged.levels = cfg->levels;
        return merged;
    }
    util::log_warn("HDLS_SCHEDULE='", value, "' is malformed; using ",
                   format_schedule(fallback));
    return fallback;
}

bool trace_from_env(bool fallback) {
    const char* value = std::getenv("HDLS_TRACE");
    if (value == nullptr) {
        return fallback;
    }
    if (const auto b = parse_bool(value)) {
        return *b;
    }
    util::log_warn("HDLS_TRACE='", value, "' is malformed; using ",
                   fallback ? "on" : "off");
    return fallback;
}

bool prefetch_from_env(bool fallback) {
    return strict_bool_from_env("HDLS_PREFETCH", fallback);
}

dls::InterBackend inter_backend_from_env(dls::InterBackend fallback) {
    const char* value = std::getenv("HDLS_INTER_BACKEND");
    if (value == nullptr) {
        return fallback;
    }
    if (const auto b = dls::inter_backend_from_string(value)) {
        return *b;
    }
    throw std::invalid_argument(std::string("HDLS_INTER_BACKEND='") + value +
                                "' is not a backend (expected 'centralized' or 'sharded')");
}

std::vector<minimpi::TopologyLevel> topology_from_env(
    std::vector<minimpi::TopologyLevel> fallback) {
    const char* value = std::getenv("HDLS_TOPOLOGY");
    if (value == nullptr) {
        return fallback;
    }
    try {
        return parse_topology(value);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string("HDLS_TOPOLOGY: ") + e.what());
    }
}

bool metrics_from_env(bool fallback) {
    return strict_bool_from_env("HDLS_METRICS", fallback);
}

std::chrono::milliseconds metrics_period_from_env(std::chrono::milliseconds fallback) {
    return std::chrono::milliseconds(strict_int_from_env<std::int64_t>(
        "HDLS_METRICS_PERIOD_MS", fallback.count(), 1, "a positive integer (milliseconds)"));
}

simd::SimdMode simd_mode_from_env(simd::SimdMode fallback) {
    const char* value = std::getenv("HDLS_SIMD");
    if (value == nullptr) {
        return fallback;
    }
    const std::string s = normalized(value);
    if (s == "AUTO") {
        return simd::SimdMode::Auto;
    }
    if (s == "SCALAR") {
        return simd::SimdMode::ForceScalar;
    }
    if (s == "NATIVE") {
        return simd::SimdMode::Native;
    }
    throw std::invalid_argument(std::string("HDLS_SIMD='") + value +
                                "' is not a SIMD policy (expected 'auto', 'scalar' or "
                                "'native')");
}

bool lease_from_env(bool fallback) {
    return strict_bool_from_env("HDLS_LEASE", fallback);
}

double lease_k_from_env(double fallback) {
    const char* value = std::getenv("HDLS_LEASE_K");
    if (value == nullptr) {
        return fallback;
    }
    const std::string s = stripped(value);
    char* end = nullptr;
    const double k = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || s.empty() || !(k > 0.0)) {
        throw std::invalid_argument(std::string("HDLS_LEASE_K='") + value +
                                    "' is not a positive number");
    }
    return k;
}

std::chrono::milliseconds heartbeat_timeout_from_env(std::chrono::milliseconds fallback) {
    return std::chrono::milliseconds(strict_int_from_env<std::int64_t>(
        "HDLS_HEARTBEAT_TIMEOUT_MS", fallback.count(), 1,
        "a positive integer (milliseconds)"));
}

ChaosSpec parse_chaos(std::string_view text) {
    const std::string s = stripped(std::string(text));
    const auto fail = [&text]() -> ChaosSpec {
        throw std::invalid_argument(std::string("chaos spec '") + std::string(text) +
                                    "' is malformed (expected \"kill:<rank>@<pct>%\", e.g. "
                                    "\"kill:1@50%\")");
    };
    constexpr std::string_view kVerb = "kill:";
    if (s.size() <= kVerb.size() || normalized(s.substr(0, kVerb.size())) != "KILL:") {
        return fail();
    }
    const std::string rest = stripped(s.substr(kVerb.size()));
    const std::size_t at = rest.find('@');
    if (at == std::string::npos) {
        return fail();
    }
    const std::string rank_s = stripped(rest.substr(0, at));
    std::string pct_s = stripped(rest.substr(at + 1));
    if (!pct_s.empty() && pct_s.back() == '%') {
        pct_s = stripped(pct_s.substr(0, pct_s.size() - 1));
    }
    ChaosSpec spec;
    {
        const auto [ptr, ec] =
            std::from_chars(rank_s.data(), rank_s.data() + rank_s.size(), spec.kill_rank);
        if (ec != std::errc{} || ptr != rank_s.data() + rank_s.size() || spec.kill_rank < 0) {
            return fail();
        }
    }
    double pct = -1.0;
    {
        char* end = nullptr;
        pct = std::strtod(pct_s.c_str(), &end);
        if (pct_s.empty() || end != pct_s.c_str() + pct_s.size() || pct < 0.0 || pct > 100.0) {
            return fail();
        }
    }
    spec.at_fraction = pct / 100.0;
    return spec;
}

ChaosSpec chaos_from_env(ChaosSpec fallback) {
    const char* value = std::getenv("HDLS_CHAOS");
    if (value == nullptr) {
        return fallback;
    }
    try {
        return parse_chaos(value);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string("HDLS_CHAOS: ") + e.what());
    }
}

minimpi::PinPolicy pin_from_env(minimpi::PinPolicy fallback) {
    const char* value = std::getenv("HDLS_PIN");
    if (value == nullptr) {
        return fallback;
    }
    std::string s = stripped(value);
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (const auto p = minimpi::pin_policy_from_string(s)) {
        return *p;
    }
    throw std::invalid_argument(std::string("HDLS_PIN='") + value +
                                "' is not a pin policy (expected 'none', 'compact' or "
                                "'scatter')");
}

std::string metrics_file_from_env(std::string fallback) {
    const char* value = std::getenv("HDLS_METRICS_FILE");
    if (value == nullptr) {
        return fallback;
    }
    if (*value == '\0') {
        throw std::invalid_argument(
            "HDLS_METRICS_FILE='' is not a path (unset the variable to use the default)");
    }
    return value;
}

}  // namespace hdls::core
