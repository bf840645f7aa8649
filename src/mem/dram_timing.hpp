/**
 * @file
 * DRAM timing and energy parameters (paper Table I).
 */

#pragma once

#include "net/types.hpp"
#include "sim/sim_config.hpp"

namespace sf::mem {

/** Timing of the die-stacked DRAM in each memory node. */
struct DramTiming {
    static constexpr double kRcdNs = 12.0;  ///< activate -> column command
    static constexpr double kClNs = 6.0;    ///< column command -> data
    static constexpr double kRpNs = 14.0;   ///< precharge
    static constexpr double kRasNs = 33.0;  ///< activate -> precharge minimum

    /** Convert nanoseconds to (ceil) network cycles. */
    static Cycle
    toCycles(double ns)
    {
        return static_cast<Cycle>(
            (ns + sim::SimConfig::kNsPerCycle - 1e-9) /
            sim::SimConfig::kNsPerCycle);
    }

    static Cycle rcd() { return toCycles(kRcdNs); }
    static Cycle cl() { return toCycles(kClNs); }
    static Cycle rp() { return toCycles(kRpNs); }
    static Cycle ras() { return toCycles(kRasNs); }
};

/** Energy constants (paper Table I) and the idle term. */
struct EnergyParams {
    static constexpr double kNetworkPjPerBitHop = 5.0;  ///< 5 pJ/bit/hop
    static constexpr double kDramPjPerBit = 12.0;  ///< 12 pJ/bit read/write

    /**
     * Background (clocking/SerDes idle) energy per active node per
     * cycle, in pJ. Not in Table I: the paper's power-management
     * study implicitly charges powered-on routers something that
     * gating recovers. This knob makes Fig 9(b) reproducible;
     * `sfx run fig09b_power_gating_edp` reports several values,
     * including 0 (see docs/substitutions.md).
     */
    double idlePjPerNodeCycle = 10.0;
};

} // namespace sf::mem
