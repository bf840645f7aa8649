#include "sim/traffic.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace sf::sim {

std::string
patternName(TrafficPattern pattern)
{
    switch (pattern) {
      case TrafficPattern::UniformRandom: return "uniform";
      case TrafficPattern::Tornado: return "tornado";
      case TrafficPattern::Hotspot: return "hotspot";
      case TrafficPattern::Opposite: return "opposite";
      case TrafficPattern::NearestNeighbor: return "neighbor";
      case TrafficPattern::Complement: return "complement";
      case TrafficPattern::Partition2: return "partition2";
    }
    return "?";
}

NodeId
trafficDestination(TrafficPattern pattern, NodeId src,
                   std::size_t n, Rng &rng)
{
    const auto nn = static_cast<NodeId>(n);
    switch (pattern) {
      case TrafficPattern::UniformRandom:
        return static_cast<NodeId>(rng.below(n));
      case TrafficPattern::Tornado:
        return static_cast<NodeId>((src + nn / 2) % nn);
      case TrafficPattern::Hotspot:
        // A single fixed destination; mid-id keeps it away from any
        // privileged corner in grid-based baselines.
        return nn / 2;
      case TrafficPattern::Opposite:
        return nn - 1 - src;
      case TrafficPattern::NearestNeighbor:
        return static_cast<NodeId>((src + 1) % nn);
      case TrafficPattern::Complement:
        // Bitwise complement within the id width (Table III); reduce
        // modulo n for non-power-of-two scales.
        return static_cast<NodeId>((src ^ (nn - 1)) % nn);
      case TrafficPattern::Partition2: {
        // Two halves; nodes pick random destinations in their half.
        const NodeId half = nn / 2;
        if (src < half)
            return static_cast<NodeId>(rng.below(half));
        return static_cast<NodeId>(half + rng.below(nn - half));
      }
    }
    return src;
}

// ------------------------------------------------------- open loop

std::string
arrivalProcessName(ArrivalProcess process)
{
    switch (process) {
      case ArrivalProcess::Poisson: return "poisson";
      case ArrivalProcess::Bursty: return "bursty";
      case ArrivalProcess::SelfSimilar: return "selfsim";
    }
    return "?";
}

ArrivalProcess
parseArrivalProcess(std::string_view name)
{
    if (name == "poisson")
        return ArrivalProcess::Poisson;
    if (name == "bursty")
        return ArrivalProcess::Bursty;
    if (name == "selfsim")
        return ArrivalProcess::SelfSimilar;
    throw std::invalid_argument("unknown arrival process: " +
                                std::string(name));
}

OpenLoopSource::OpenLoopSource(const ArrivalConfig &config,
                               double rate, std::uint64_t seed)
    : cfg_(config),
      rng_(seed),
      onRate_(rate),
      modulated_(config.process != ArrivalProcess::Poisson)
{
    if (rate <= 0.0) {
        onRate_ = 0.0;
        return;
    }
    if (modulated_) {
        onRate_ = rate * ArrivalConfig::kBurstFactor;
        // Random initial phase: each node starts on with the duty
        // probability 1/B, so dwell states never align across the
        // network at cycle 0 (which would be a synchronized burst
        // no open-loop client fleet produces).
        const bool start_on =
            rng_.chance(1.0 / ArrivalConfig::kBurstFactor);
        on_ = !start_on;
        toggleState();  // flips into the sampled state and draws
                        // its initial dwell
    }
}

double
OpenLoopSource::expo(double mean)
{
    // Inverse CDF; 1 - u maps [0,1) onto (0,1] so log() is finite.
    return -mean * std::log(1.0 - rng_.uniform());
}

double
OpenLoopSource::pareto(double mean)
{
    // Pareto(xm, a) has mean xm * a / (a - 1); invert for xm.
    const double a = ArrivalConfig::kParetoShape;
    const double xm = mean * (a - 1.0) / a;
    return xm / std::pow(1.0 - rng_.uniform(), 1.0 / a);
}

void
OpenLoopSource::toggleState()
{
    on_ = !on_;
    const double mean =
        on_ ? ArrivalConfig::kOnMean
            : ArrivalConfig::kOnMean *
                  (ArrivalConfig::kBurstFactor - 1.0);
    const double dwell =
        cfg_.process == ArrivalProcess::SelfSimilar ? pareto(mean)
                                                    : expo(mean);
    stateEnd_ = time_ + dwell;
}

Cycle
OpenLoopSource::next()
{
    if (onRate_ <= 0.0)
        return std::numeric_limits<Cycle>::max();
    if (!modulated_) {
        time_ += expo(1.0 / onRate_);
        return static_cast<Cycle>(time_);
    }
    for (;;) {
        if (!on_) {
            time_ = stateEnd_;
            toggleState();
            continue;
        }
        const double dt = expo(1.0 / onRate_);
        if (time_ + dt <= stateEnd_) {
            time_ += dt;
            return static_cast<Cycle>(time_);
        }
        // The draw crosses the end of the on dwell: the residual
        // is discarded at the renewal boundary (negligible at the
        // configured dwell lengths; realized load is reported).
        time_ = stateEnd_;
        toggleState();
    }
}

} // namespace sf::sim
