/**
 * @file
 * Internal helpers shared by the built-in experiment definitions.
 */

#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>

#include "exp/spec.hpp"
#include "sim/simulator.hpp"

namespace sf::exp {

/** printf-style std::string formatter. */
inline std::string
fmt(const char *format, ...)
{
    char buffer[160];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buffer, sizeof buffer, format, args);
    va_end(args);
    return buffer;
}

/** Pick a value by effort level (by value: callers pass literals,
 *  and returning a reference to a parameter would invite dangling
 *  `const auto &` bindings). */
template <typename T>
T
pick(Effort effort, const T &quick, const T &def, const T &full)
{
    if (effort == Effort::Quick)
        return quick;
    if (effort == Effort::Full)
        return full;
    return def;
}

/**
 * The SimConfig every simulator body starts from: traffic
 * randomness follows the per-run derived seed (topologies follow
 * the base seed, so every run of a sweep simulates the same
 * generated network), and the routing policy is `sfx --policy`.
 */
inline sim::SimConfig
simConfigFor(const RunContext &rc)
{
    sim::SimConfig cfg;
    cfg.seed = rc.seed;
    cfg.policy = rc.policy;
    return cfg;
}

/** Percentile metrics of one open-loop run, in reporting order.
 *  The percentile keys (p50/p95/p99/p999/max) are the ones
 *  `sfx diff` exact-compares regardless of tolerance. */
inline void
setTailMetrics(Json &m, const sim::RunResult &r)
{
    m.set("saturated", r.saturated);
    m.set("offered_load", r.offeredLoad);
    m.set("realized_load", r.realizedLoad);
    m.set("accepted_load", r.acceptedLoad);
    m.set("avg_latency", r.avgTotalLatency);
    m.set("p50", static_cast<std::int64_t>(r.tailTotal.p50));
    m.set("p95", static_cast<std::int64_t>(r.tailTotal.p95));
    m.set("p99", static_cast<std::int64_t>(r.tailTotal.p99));
    m.set("p999", static_cast<std::int64_t>(r.tailTotal.p999));
    m.set("max", static_cast<std::int64_t>(r.tailTotal.max));
    m.set("net_p99",
          static_cast<std::int64_t>(r.tailNetwork.p99));
    m.set("measured_packets", r.measuredPackets);
}

} // namespace sf::exp
