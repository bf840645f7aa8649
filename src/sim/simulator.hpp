/**
 * @file
 * Experiment harness over the network model: open-loop synthetic
 * traffic runs with warmup / measurement / drain phases, saturation
 * detection, zero-load latency, latency-vs-injection sweeps
 * (paper Fig 11), and saturation-point search (paper Fig 10).
 */

#pragma once

#include <vector>

#include "net/topology.hpp"
#include "sim/network.hpp"
#include "sim/reconfig_schedule.hpp"
#include "sim/sim_config.hpp"
#include "sim/traffic.hpp"

namespace sf::core {
class StringFigure;
}

namespace sf::sim {

/** Only named by runSynthetic's frozen-benchmark parameter. */
class Executor;

/** Phase lengths of one run, in cycles. */
struct RunPhases {
    Cycle warmup = 1000;
    Cycle measure = 3000;
    Cycle drainLimit = 20000;

    /**
     * The abbreviated phases every figure sweep uses for saturation
     * searches (Fig 10 and the ablations): long enough to reach
     * steady state, short enough to afford hundreds of grid cells.
     */
    static constexpr RunPhases saturationProbe()
    {
        return {800, 2000, 12000};
    }

    /** The longer measurement window of the Fig 11 latency curves. */
    static constexpr RunPhases latencyCurve()
    {
        return {800, 2500, 15000};
    }

    /**
     * Open-loop tail-latency runs (the hockey-stick family): a
     * longer measure window — p999 needs thousands of measured
     * packets — and a cooldown generous enough to drain a network
     * that was driven near its knee. Injection continues through
     * cooldown, so the measured tail is not flattered by an
     * emptying system.
     */
    static constexpr RunPhases openLoop()
    {
        return {1500, 6000, 25000};
    }

    /** Abbreviated open-loop phases for quick-effort sweeps. */
    static constexpr RunPhases openLoopQuick()
    {
        return {800, 3000, 12000};
    }
};

/**
 * Degradation-window telemetry of one reconfiguration wave (all
 * schedule events sharing a cycle): what the wave did to the
 * topology, and how the serving tail responded. Window percentiles
 * come from the log-bucket histogram's bin deltas over fixed
 * 256-cycle windows, so every field is a pure function of the
 * simulated event stream — byte-identical across job counts.
 */
struct ReconfigEventStats {
    Cycle at = 0;       ///< wave cycle (events applied at its start)
    int gated = 0;      ///< Leave/Fail gates applied
    int ungated = 0;    ///< Join ungates applied
    int refused = 0;    ///< Leaves skipped (canGate said no)
    int failForced = 0; ///< Fails applied where canGate said no
    int holes = 0;      ///< ring holes this wave left open
    /** p99 of the last non-empty pre-wave window (cumulative p99
     *  when the wave precedes any complete window). */
    Cycle baselineP99 = 0;
    /** Worst window p99 between the wave and reconvergence. */
    Cycle blipP99 = 0;
    /**
     * Cycles until a window p99 returned within the tolerance band
     * (<= 1.25x baseline); the degradation-window SLO. When the
     * wave never reconverged (reconverged == false), the span to
     * the end of observation instead.
     */
    Cycle reconvergeCycles = 0;
    bool reconverged = false;
    /** Packets dropped (destination gated away) in the window. */
    std::uint64_t dropBurst = 0;
    /** Packets escalated to escape channels in the window. */
    std::uint64_t escalationBurst = 0;
};

/** Outcome of one synthetic-traffic run. */
struct RunResult {
    double avgTotalLatency = 0.0;   ///< create -> eject, cycles
    double avgNetworkLatency = 0.0; ///< entry -> eject, cycles
    Cycle p50Latency = 0;
    Cycle p99Latency = 0;
    double avgHops = 0.0;
    double offeredLoad = 0.0;   ///< flits / node / cycle offered
    double acceptedLoad = 0.0;  ///< flits / node / cycle delivered
    bool saturated = false;
    std::uint64_t measuredPackets = 0;
    std::uint64_t escapeTransfers = 0;
    std::uint64_t flitHops = 0;     ///< full-run flit-hops (energy)
    Cycle simulatedCycles = 0;
    /** Tail-latency cut of the measured window, from the
     *  log-bucket histograms (full dynamic range — unlike
     *  p50Latency/p99Latency these stay meaningful past the linear
     *  histograms' range): create -> eject and entry -> eject. */
    LatencySummary tailTotal;
    LatencySummary tailNetwork;
    /** Flits / node / cycle actually injected in the measure
     *  window (open-loop runs: the schedule's realized rate). */
    double realizedLoad = 0.0;
    /** Per-phase wall time of the cycle engine
     *  (SimConfig::profilePhases, all zero otherwise): total
     *  steady-clock nanoseconds spent in each phase of
     *  docs/engine_phases.md across the profiled cycles. Divide by
     *  phaseProfiledCycles for ns/cycle. */
    std::uint64_t phaseProfiledCycles = 0;
    std::uint64_t phaseLandNs = 0;
    std::uint64_t phaseSnapshotNs = 0;
    std::uint64_t phaseRouteNs = 0;
    /** The whole arbitration walk (NetStats::phaseArbitrateNs);
     *  the name is kept because the frozen benchmark
     *  (perfbench/sfbench.cpp) reads it. */
    std::uint64_t phaseDecideNs = 0;
    /** Always 0: arbitration applies its effects in place, so no
     *  separate commit phase exists. Kept only because the frozen
     *  benchmark reads it; to be deleted, and phaseDecideNs
     *  renamed, by the next change that may edit perfbench/. */
    std::uint64_t phaseCommitNs = 0;
    /** Packets dropped because their destination was gated away
     *  mid-flight (elastic runs; 0 on immutable topologies). */
    std::uint64_t droppedUnroutable = 0;
    /** Topology generations applied during the run. */
    std::uint64_t topologyEpochs = 0;
    /** Per-wave degradation-window telemetry (runElastic only). */
    std::vector<ReconfigEventStats> reconfigEvents;
};

/**
 * Run open-loop synthetic traffic: every live node injects a
 * SimConfig::kPacketFlits packet with probability @p rate each
 * cycle toward @p pattern destinations. Injection continues during drain;
 * a run that cannot drain its measured packets (or whose source
 * backlog keeps growing) reports saturated.
 *
 * @p executor is ignored: a simulation runs on the calling thread.
 * The parameter is kept only because the frozen benchmark
 * (perfbench/sfbench.cpp) passes one; to be deleted by the next
 * change that may edit perfbench/.
 */
RunResult runSynthetic(const net::Topology &topo,
                       TrafficPattern pattern, double rate,
                       const SimConfig &cfg,
                       const RunPhases &phases = {},
                       Executor *executor = nullptr);

/**
 * Run open-loop traffic: every live node injects on its own
 * deterministic arrival schedule — a pure function of (arrival
 * config, rate, cfg.seed, node) produced by an OpenLoopSource —
 * instead of the per-cycle Bernoulli draw of runSynthetic. Offered
 * load therefore never backs off under congestion, which is what
 * makes the result's tail percentiles (RunResult::tailTotal /
 * tailNetwork, recorded into fixed-size log-bucket histograms on
 * the allocation-free measure path) a serving-system metric: the
 * latency distribution under a fixed arrival process.
 *
 * Phases run warmup -> measure -> cooldown (drainLimit): only
 * packets injected inside the measure window are recorded, and
 * injection continues through cooldown so the tail is not
 * flattered by an emptying network. Deterministic like
 * runSynthetic: byte-identical at every job count.
 */
RunResult runOpenLoop(const net::Topology &topo,
                      TrafficPattern pattern,
                      const ArrivalConfig &arrivals, double rate,
                      const SimConfig &cfg,
                      const RunPhases &phases = RunPhases::openLoop());

/**
 * Run open-loop traffic (exactly as runOpenLoop) while applying
 * @p schedule's reconfiguration events to @p topo mid-run: each
 * wave of same-cycle events gates/ungates serially at the cycle
 * barrier before injection, then advances the network model's
 * topology generation once. Leave events honour the canGate
 * feasibility courtesy (a refused victim is skipped and counted);
 * Fail events gate unconditionally, exercising the escalation and
 * drop paths for in-flight packets whose destination vanished —
 * measured drops count toward the drain condition so the run still
 * terminates. Per-wave degradation-window telemetry (p99 blip,
 * drop/escalation bursts, cycles-to-reconverge) lands in
 * RunResult::reconfigEvents.
 *
 * Routes are pure within an epoch (network.hpp), so results are
 * byte-identical at every job count — with an empty schedule,
 * byte-identical to runOpenLoop. @p topo is gated in place and
 * finishes in the schedule's final liveness state (callers own
 * restoration).
 */
RunResult runElastic(core::StringFigure &topo, TrafficPattern pattern,
                     const ArrivalConfig &arrivals, double rate,
                     const ReconfigSchedule &schedule,
                     const SimConfig &cfg,
                     const RunPhases &phases = RunPhases::openLoop());

/** Zero-load average packet latency (very light uniform traffic). */
double zeroLoadLatency(const net::Topology &topo,
                       const SimConfig &cfg,
                       TrafficPattern pattern =
                           TrafficPattern::UniformRandom);

/**
 * Saturation injection rate in packets/node/cycle: the highest rate
 * (within @p tolerance, geometric) that is not saturated. 1.0 means
 * the network absorbs full injection bandwidth.
 *
 * The search runs its probes one after another on the calling
 * thread: the zero-load calibration, the probe at 1.0, a descent
 * from 0.5 that divides the rate by 4 until a probe is unsaturated,
 * then a bisection in log space. Every probe is a pure function of
 * its rate (the traffic RNG derives from cfg.seed alone), and no
 * rate is probed twice.
 */
double findSaturationRate(const net::Topology &topo,
                          TrafficPattern pattern,
                          const SimConfig &cfg,
                          const RunPhases &phases = {},
                          double tolerance = 0.07);

} // namespace sf::sim
