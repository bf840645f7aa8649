/**
 * @file
 * Synthetic traffic: destination patterns (paper Table III) and
 * open-loop arrival processes.
 *
 * The arrival seam separates *when* a node injects from *where*
 * the packet goes. The historical closed-ish generator draws a
 * per-cycle Bernoulli from one shared RNG; the open-loop sources
 * below instead schedule injections by arrival time — like a load
 * generator driving a serving system — so offered load does not
 * back off when the network congests, which is what makes tail
 * latency under a fixed arrival process measurable at all.
 *
 * Every source is a pure function of (config, rate, seed): the
 * schedule it emits is independent of network state, query timing
 * and thread count, so runs replay identically.
 */

#pragma once

#include <array>
#include <string>

#include "net/rng.hpp"
#include "net/types.hpp"

namespace sf::sim {

/** The seven evaluated patterns. */
enum class TrafficPattern {
    UniformRandom,
    Tornado,
    Hotspot,
    Opposite,
    NearestNeighbor,
    Complement,
    Partition2,
};

/** All patterns, in the paper's Table III order. */
inline constexpr std::array<TrafficPattern, 7> kAllPatterns{
    TrafficPattern::UniformRandom,  TrafficPattern::Tornado,
    TrafficPattern::Hotspot,        TrafficPattern::Opposite,
    TrafficPattern::NearestNeighbor, TrafficPattern::Complement,
    TrafficPattern::Partition2,
};

/** Display name matching the paper's tables. */
std::string patternName(TrafficPattern pattern);

/**
 * Destination for a packet from @p src under @p pattern in an
 * @p n node network (Table III formulas, generalised to arbitrary
 * n by reducing modulo n). May return src; callers skip such
 * injections.
 */
NodeId trafficDestination(TrafficPattern pattern, NodeId src,
                          std::size_t n, Rng &rng);

// ------------------------------------------------------- open loop

/** The evaluated open-loop arrival processes. */
enum class ArrivalProcess {
    /** Memoryless: exponential inter-arrival times. */
    Poisson,
    /** Two-state MMPP: exponential on/off dwell times; the on
     *  state injects at a multiple of the mean rate. */
    Bursty,
    /** Heavy-tailed (Pareto) on/off dwell times; superposing many
     *  such sources — one per node — yields the self-similar
     *  aggregate of Willinger et al. */
    SelfSimilar,
};

/** All processes, in reporting order. */
inline constexpr std::array<ArrivalProcess, 3> kAllArrivalProcesses{
    ArrivalProcess::Poisson,
    ArrivalProcess::Bursty,
    ArrivalProcess::SelfSimilar,
};

/** Display name ("poisson" / "bursty" / "selfsim"). */
std::string arrivalProcessName(ArrivalProcess process);

/** Parse an arrival-process name; throws std::invalid_argument. */
ArrivalProcess parseArrivalProcess(std::string_view name);

/** The arrival process and the shape constants of the on/off
 *  processes (the experiment family's reporting configuration). */
struct ArrivalConfig {
    /**
     * On-state rate multiplier B of the bursty/self-similar
     * sources: the on state injects at B x the mean rate and the
     * duty cycle is 1/B, so the long-run offered load matches the
     * Poisson source at the same nominal rate.
     */
    static constexpr double kBurstFactor = 8.0;
    /** Mean on-state dwell, cycles (off dwell = (B-1) x this). */
    static constexpr double kOnMean = 200.0;
    /** Pareto tail index of the self-similar dwell times; in
     *  (1, 2) the durations have finite mean but infinite
     *  variance, the regime that produces long-range dependence. */
    static constexpr double kParetoShape = 1.5;

    ArrivalProcess process = ArrivalProcess::Poisson;
};

/**
 * Deterministic open-loop arrival schedule for one node: a stream
 * of injection cycles whose statistics follow @p config at a mean
 * rate of @p rate packets/cycle. next() yields the arrival cycles
 * in nondecreasing order (several arrivals may share a cycle).
 *
 * The stream is a pure function of (config, rate, seed): no call
 * reads anything but the source's own state, so schedules are
 * byte-identical across runs and job counts.
 */
class OpenLoopSource
{
  public:
    OpenLoopSource(const ArrivalConfig &config, double rate,
                   std::uint64_t seed);

    /** The cycle of the next arrival (monotone nondecreasing). */
    Cycle next();

  private:
    /** Inverse-CDF exponential draw with mean @p mean. */
    double expo(double mean);
    /** Inverse-CDF Pareto draw with mean @p mean (shape fixed). */
    double pareto(double mean);
    /** Enter the opposite dwell state and draw its duration. */
    void toggleState();

    ArrivalConfig cfg_;
    Rng rng_;
    double time_ = 0.0;      ///< continuous arrival clock, cycles
    double onRate_;          ///< arrival rate while on
    bool on_ = true;         ///< current dwell state (on/off pair)
    double stateEnd_ = 0.0;  ///< continuous end of current dwell
    bool modulated_;         ///< false for Poisson (always on)
};

} // namespace sf::sim
