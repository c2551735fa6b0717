#include "ompsim/schedule.hpp"

namespace hdls::ompsim {

std::optional<ForOptions> openmp_equivalent(dls::Technique t) noexcept {
    switch (t) {
        case dls::Technique::Static:
            return ForOptions{Schedule::Static, 0};
        case dls::Technique::SS:
            return ForOptions{Schedule::Dynamic, 1};
        case dls::Technique::GSS:
            return ForOptions{Schedule::Guided, 1};
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
            return ForOptions{Schedule::Tss, 0};
        case dls::Technique::FAC2:
            return ForOptions{Schedule::Fac2, 0};
        default:
            return std::nullopt;
    }
}

}  // namespace hdls::ompsim
