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
    double tRcdNs = 12.0;  ///< activate -> column command
    double tClNs = 6.0;    ///< column command -> data
    double tRpNs = 14.0;   ///< precharge
    double tRasNs = 33.0;  ///< activate -> precharge minimum

    /** Convert nanoseconds to (ceil) network cycles. */
    static Cycle
    toCycles(double ns)
    {
        return static_cast<Cycle>(
            (ns + sim::SimConfig::kNsPerCycle - 1e-9) /
            sim::SimConfig::kNsPerCycle);
    }

    Cycle rcd() const { return toCycles(tRcdNs); }
    Cycle cl() const { return toCycles(tClNs); }
    Cycle rp() const { return toCycles(tRpNs); }
    Cycle ras() const { return toCycles(tRasNs); }
};

/** Energy constants (paper Table I). */
struct EnergyParams {
    double networkPjPerBitHop = 5.0;   ///< 5 pJ/bit/hop
    double dramPjPerBit = 12.0;        ///< 12 pJ/bit read/write
    /**
     * Background (clocking/SerDes idle) energy per active node per
     * cycle, in pJ. Not in Table I: the paper's power-management
     * study implicitly charges powered-on routers something that
     * gating recovers. This knob makes Fig 9(b) reproducible;
     * `sfx run fig09b_power_gating_edp` reports several values,
     * including 0 (see DESIGN.md, substitutions).
     */
    double idlePjPerNodeCycle = 10.0;
};

} // namespace sf::mem
