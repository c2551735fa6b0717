#include "ompsim/schedule.hpp"

#include <algorithm>
#include <cctype>
#include <string>

namespace hdls::ompsim {

std::string_view schedule_name(Schedule s) noexcept {
    switch (s) {
        case Schedule::Static:
            return "static";
        case Schedule::Dynamic:
            return "dynamic";
        case Schedule::Guided:
            return "guided";
        case Schedule::Tss:
            return "tss";
        case Schedule::Fac2:
            return "fac2";
    }
    return "?";
}

std::optional<Schedule> schedule_from_string(std::string_view name) noexcept {
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    for (const Schedule s : {Schedule::Static, Schedule::Dynamic, Schedule::Guided,
                             Schedule::Tss, Schedule::Fac2}) {
        if (lower == schedule_name(s)) {
            return s;
        }
    }
    return std::nullopt;
}

std::optional<ForOptions> openmp_equivalent(dls::Technique t) noexcept {
    switch (t) {
        case dls::Technique::Static:
            return ForOptions{Schedule::Static, 0, false};
        case dls::Technique::SS:
            return ForOptions{Schedule::Dynamic, 1, false};
        case dls::Technique::GSS:
            return ForOptions{Schedule::Guided, 1, false};
        default:
            return std::nullopt;  // not expressible with the standard clause
    }
}

std::optional<ForOptions> extended_equivalent(dls::Technique t) noexcept {
    if (auto std_opt = openmp_equivalent(t)) {
        return std_opt;
    }
    switch (t) {
        case dls::Technique::TSS:
            return ForOptions{Schedule::Tss, 0, false};
        case dls::Technique::FAC2:
            return ForOptions{Schedule::Fac2, 0, false};
        default:
            return std::nullopt;
    }
}

}  // namespace hdls::ompsim
