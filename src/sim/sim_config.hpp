/**
 * @file
 * Simulator configuration (paper Table I values).
 *
 * The network clock matches the memory-node clock: 312.5 MHz with
 * HMC-based nodes, i.e. one cycle = 3.2 ns. The per-hop SerDes delay
 * of 3.2 ns (1.6 ns each end) is one extra cycle per hop. Links are
 * one flit wide per cycle; a 64-byte cache line plus header rides in
 * five 16-byte flits.
 */

#pragma once

#include <cstdint>

#include "core/routing_policy.hpp"
#include "net/types.hpp"

namespace sf::sim {

/**
 * Parameters of one simulation. The Table I values are constants;
 * the fields are what callers vary.
 */
struct SimConfig {
    /** Buffer depth of each virtual channel, in flits. */
    static constexpr int kVcDepth = 16;
    /** Flits per data packet (header + 64B line in 16B flits). */
    static constexpr int kPacketFlits = 5;
    /** Extra cycles per hop for SerDes (3.2 ns at 312.5 MHz). */
    static constexpr Cycle kSerdesCycles = 1;
    /**
     * Head-of-line wait (cycles) before a packet transfers to the
     * escape virtual channel. High enough that ordinary congestion
     * rides it out; only a genuine cyclic stall escalates.
     */
    static constexpr Cycle kEscapeThreshold = 256;
    /**
     * Adaptive routing: a port whose downstream buffer is filled
     * beyond this fraction is diverted around when an alternative
     * candidate exists (paper: user-defined threshold, e.g. 50%).
     */
    static constexpr double kAdaptiveThreshold = 0.5;
    /** Cycles without any forward progress that mean deadlock. */
    static constexpr Cycle kWatchdogCycles = 50000;
    /** Bits per flit (16-byte flits). */
    static constexpr int kFlitBits = 128;
    /** Nanoseconds per network cycle (312.5 MHz). */
    static constexpr double kNsPerCycle = 3.2;

    /** Enable congestion-aware selection among route candidates. */
    bool adaptive = true;
    /** Traffic/selection randomness seed. */
    std::uint64_t seed = 1;
    /**
     * Removed knob: the sharded route plane it selected was deleted
     * after it measured slower than serial routing, and
     * NetworkModel's constructor throws std::invalid_argument on
     * any value but 1. Kept only because the frozen benchmark
     * (perfbench/sfbench.cpp) assigns it; to be deleted by the next
     * change that may edit perfbench/.
     */
    int shards = 1;
    /**
     * Removed knob: the memoized route plane it selected was
     * deleted (docs/greedy_routing.md), and NetworkModel's
     * constructor throws std::invalid_argument unless it is false.
     * Kept only because the frozen benchmark
     * (perfbench/sfbench.cpp) assigns it; to be deleted by the next
     * change that may edit perfbench/.
     */
    bool routeCache = false;
    /**
     * Routing policy (`sfx --policy`): which core::RoutingPolicy
     * answers route queries. This is NOT an execution knob —
     * non-greedy policies change simulated events (that is their
     * purpose), so the experiment layer records it in checkpoint
     * metadata and reports. `greedy` routes the
     * incumbent topology routing through the seam with zero
     * behaviour change; adaptive policies read a congestion
     * snapshot frozen once per cycle at the route barrier, keeping
     * every policy deterministic.
     */
    core::RoutingPolicyKind policy = core::RoutingPolicyKind::Greedy;
    /**
     * Removed knob: the commit-wavefront scheduler it selected was
     * deleted after it measured slower than the serial walk, and
     * NetworkModel's constructor throws std::invalid_argument on
     * any nonzero value. Kept only because the frozen benchmark
     * (perfbench/sfbench.cpp) assigns it; to be deleted by the next
     * change that may edit perfbench/.
     */
    int wavefront = 0;
    /**
     * Per-phase wall-clock instrumentation: accumulate steady-clock
     * nanoseconds spent in each of the four cycle phases (land,
     * snapshot, route, arbitrate) into NetStats. Costs five clock
     * reads per cycle, one per phase boundary, so it is a
     * profiling knob, off by default. Changes no simulated event.
     */
    bool profilePhases = false;
    /**
     * Run ReconfigEngine::checkInvariants() after every mid-traffic
     * gate/ungate wave of an elastic run and throw on any
     * inconsistency. Always on in debug builds (!NDEBUG); this flag
     * opts Release test binaries in. Changes no simulated event.
     */
    bool validateReconfig = false;
};

} // namespace sf::sim
