#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/string_figure.hpp"

namespace sf::sim {

namespace {

/** Live-node list of a (possibly down-scaled) topology. */
std::vector<NodeId>
liveNodes(const net::Topology &topo)
{
    std::vector<NodeId> nodes;
    for (NodeId u = 0; u < topo.numNodes(); ++u) {
        if (topo.nodeAlive(u))
            nodes.push_back(u);
    }
    return nodes;
}

/** Per-node deterministic stream seed: mixes the run seed with the
 *  node id (and a stream tag) so every node owns an independent
 *  sequence that is still a pure function of cfg.seed. */
std::uint64_t
nodeStreamSeed(std::uint64_t seed, NodeId node, std::uint64_t tag)
{
    std::uint64_t h = seed + tag * 0x9e3779b97f4a7c15ULL +
                      (static_cast<std::uint64_t>(node) + 1) *
                          0xbf58476d1ce4e5b9ULL;
    h ^= h >> 30;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
}

/** Copy the measured-window statistics into @p result. */
void
fillMeasuredStats(RunResult &result, const NetStats &stats)
{
    result.avgTotalLatency = stats.totalLatency.mean();
    result.avgNetworkLatency = stats.networkLatencyLog.mean();
    result.p50Latency = stats.totalLatency.percentile(0.50);
    result.p99Latency = stats.totalLatency.percentile(0.99);
    result.avgHops = stats.avgHops();
    result.measuredPackets = stats.measuredPackets;
    result.escapeTransfers = stats.escapeTransfers;
    result.flitHops = stats.flitHops;
    result.tailTotal = stats.totalLatencyLog.summary();
    result.tailNetwork = stats.networkLatencyLog.summary();
    result.phaseProfiledCycles = stats.phaseProfiledCycles;
    result.phaseLandNs = stats.phaseLandNs;
    result.phaseSnapshotNs = stats.phaseSnapshotNs;
    result.phaseRouteNs = stats.phaseRouteNs;
    result.phaseDecideNs = stats.phaseArbitrateNs;
    result.droppedUnroutable = stats.droppedUnroutable;
    result.topologyEpochs = stats.topologyEpochs;
}

/** Fixed degradation-window length for reconvergence telemetry:
 *  power of two, long enough for a stable window p99 at serving
 *  rates, short enough to resolve a blip inside one measure phase. */
constexpr Cycle kReconvergeWindow = 256;

/**
 * The one run loop behind runSynthetic, runOpenLoop and runElastic:
 * warmup, measure and drain phases over @p nodes (the live nodes
 * of the topology @p net simulates), the early saturation abort
 * once source queues hold more than @p backlog_per_node packets per
 * node, and the accepted/realized load of the measure window.
 *
 * Each cycle, before the network steps, @p inject(cycle, emit)
 * calls emit(src, dst) once per packet to inject, in injection
 * order; the injector owns the arrival process, its randomness and
 * its skip rule.
 *
 * With @p schedule null (or empty) the topology never changes;
 * otherwise @p elastic must be the topology @p net simulates, and
 * the schedule's waves apply serially at cycle barriers with
 * degradation-window telemetry around each.
 */
template <class Injector>
RunResult
runLoop(NetworkModel &net, const std::vector<NodeId> &nodes,
        double rate, const SimConfig &cfg, const RunPhases &phases,
        std::uint64_t backlog_per_node, Injector &&inject,
        core::StringFigure *elastic = nullptr,
        const ReconfigSchedule *schedule = nullptr)
{
    RunResult result;
    result.offeredLoad = rate * SimConfig::kPacketFlits;

    const Cycle measure_end = phases.warmup + phases.measure;
    const Cycle hard_end = measure_end + phases.drainLimit;
    std::uint64_t measured_injected = 0;
    std::uint64_t measured_dropped = 0;
    std::uint64_t delivered_at_measure_start = 0;
    std::uint64_t delivered_at_measure_end = 0;
    // Early-abort when source queues pile several packets deep per
    // node: the network is saturated, no need to keep simulating.
    const std::uint64_t backlog_cap = nodes.size() * backlog_per_node;

    // Elastic bookkeeping: the schedule cursor, and the
    // degradation-window tracker of the wave in flight.
    const bool reconfiguring = schedule && !schedule->empty();
    std::size_t next_ev = 0;
    int active_wave = -1;
    std::uint64_t wave_drop_base = 0;
    std::uint64_t wave_esc_base = 0;
    LogHistogram window_snap;
    Cycle last_window_p99 = 0;
    bool last_window_valid = false;
    if (reconfiguring) {
        // Measured packets whose destination vanished must count
        // toward the drain condition, or the run would wait forever
        // for deliveries that can no longer happen.
        net.setDropHandler([&](const Packet &p, Cycle) {
            if (p.measured)
                ++measured_dropped;
        });
    }

    const auto finalize_wave = [&](Cycle end) {
        if (active_wave < 0)
            return;
        ReconfigEventStats &ev = result.reconfigEvents
            [static_cast<std::size_t>(active_wave)];
        ev.reconvergeCycles = end > ev.at ? end - ev.at : 0;
        ev.dropBurst =
            net.stats().droppedUnroutable - wave_drop_base;
        ev.escalationBurst =
            net.stats().escapeTransfers - wave_esc_base;
        active_wave = -1;
    };

    const auto apply_wave = [&](Cycle now) {
        finalize_wave(now);
        ReconfigEventStats ev;
        ev.at = now;
        int applied = 0;
        while (next_ev < schedule->events.size() &&
               schedule->events[next_ev].at <= now) {
            const ReconfigEvent &e = schedule->events[next_ev++];
            switch (e.action) {
            case ReconfigAction::Leave: {
                if (!elastic->reconfig().canGate(e.node)) {
                    ++ev.refused;
                    break;
                }
                const auto r = elastic->gate(e.node);
                ev.gated += r.applied ? 1 : 0;
                ev.holes += r.holes;
                applied += r.applied ? 1 : 0;
                break;
            }
            case ReconfigAction::Fail: {
                // No feasibility courtesy: the node is gone whether
                // or not its rings can be repaired.
                const bool forced =
                    elastic->nodeAlive(e.node) &&
                    !elastic->reconfig().canGate(e.node);
                const auto r = elastic->gate(e.node);
                ev.gated += r.applied ? 1 : 0;
                ev.failForced += (forced && r.applied) ? 1 : 0;
                ev.holes += r.holes;
                applied += r.applied ? 1 : 0;
                break;
            }
            case ReconfigAction::Join: {
                const auto r = elastic->ungate(e.node);
                ev.ungated += r.applied ? 1 : 0;
                applied += r.applied ? 1 : 0;
                break;
            }
            }
        }
        // One epoch per wave: the generation advances exactly once
        // no matter how many nodes the wave touched.
        if (applied > 0)
            net.onTopologyChanged();
#ifdef NDEBUG
        constexpr bool kAlwaysValidate = false;
#else
        constexpr bool kAlwaysValidate = true;  // Debug audits every wave
#endif
        if (kAlwaysValidate || cfg.validateReconfig) {
            const std::string err =
                elastic->reconfig().checkInvariants();
            if (!err.empty())
                throw std::runtime_error(
                    "reconfig invariants violated mid-run: " + err);
        }
        ev.baselineP99 =
            last_window_valid
                ? last_window_p99
                : net.stats().totalLatencyLog.percentile(0.99);
        wave_drop_base = net.stats().droppedUnroutable;
        wave_esc_base = net.stats().escapeTransfers;
        active_wave =
            static_cast<int>(result.reconfigEvents.size());
        result.reconfigEvents.push_back(ev);
    };

    Cycle cycle = 0;
    for (; cycle < hard_end; ++cycle) {
        if (cycle == phases.warmup)
            delivered_at_measure_start =
                net.stats().deliveredPackets;
        if (cycle == measure_end) {
            delivered_at_measure_end = net.stats().deliveredPackets;
            // Measured samples stop here, so reconvergence cannot
            // be observed past this point: close any open wave.
            finalize_wave(measure_end);
        }

        // Degradation windows: at each fixed boundary, extract the
        // window's p99 from the log-bucket bin deltas and test the
        // active wave against the tolerance band (<= 1.25x the
        // pre-wave baseline). Pure functions of the event stream —
        // identical at every job count.
        if (reconfiguring && cycle > 0 && cycle <= measure_end &&
            (cycle & (kReconvergeWindow - 1)) == 0) {
            const LogHistogram &log = net.stats().totalLatencyLog;
            if (log.countSince(window_snap) > 0) {
                const Cycle w =
                    log.percentileSince(window_snap, 0.99);
                if (active_wave >= 0) {
                    ReconfigEventStats &ev = result.reconfigEvents
                        [static_cast<std::size_t>(active_wave)];
                    ev.blipP99 = std::max(ev.blipP99, w);
                    if (w * 4 <= ev.baselineP99 * 5) {
                        ev.reconverged = true;
                        finalize_wave(cycle);
                    }
                }
                last_window_p99 = w;
                last_window_valid = true;
            }
            window_snap = log;
        }

        // Reconfig waves apply serially at the cycle barrier:
        // before injection, before the network steps.
        if (reconfiguring && next_ev < schedule->events.size() &&
            schedule->events[next_ev].at <= cycle)
            apply_wave(cycle);

        const bool in_measure =
            cycle >= phases.warmup && cycle < measure_end;
        inject(cycle, [&](NodeId src, NodeId dst) {
            net.inject(src, dst, SimConfig::kPacketFlits, kRequest,
                       cycle, 0, in_measure);
            measured_injected += in_measure ? 1 : 0;
        });
        net.step(cycle);

        if ((cycle & 0xff) == 0 &&
            net.sourceQueueBacklog() > backlog_cap) {
            result.saturated = true;
            break;
        }
        if (cycle >= measure_end &&
            net.stats().measuredPackets + measured_dropped >=
                measured_injected)
            break;  // every measured packet delivered or dropped
    }
    if (cycle >= hard_end)
        result.saturated = true;
    finalize_wave(std::min(cycle, measure_end));

    fillMeasuredStats(result, net.stats());
    result.simulatedCycles = cycle;
    if (cycle > phases.warmup && !nodes.empty()) {
        const Cycle window_end = std::min<Cycle>(cycle, measure_end);
        const std::uint64_t delivered_in_window =
            (delivered_at_measure_end > 0
                 ? delivered_at_measure_end
                 : net.stats().deliveredPackets) -
            delivered_at_measure_start;
        const double window = static_cast<double>(
            window_end - phases.warmup);
        if (window > 0) {
            result.acceptedLoad =
                static_cast<double>(delivered_in_window) *
                SimConfig::kPacketFlits /
                (window * static_cast<double>(nodes.size()));
            result.realizedLoad =
                static_cast<double>(measured_injected) *
                SimConfig::kPacketFlits /
                (window * static_cast<double>(nodes.size()));
        }
    }
    return result;
}

} // namespace

RunResult
runSynthetic(const net::Topology &topo, TrafficPattern pattern,
             double rate, const SimConfig &cfg,
             const RunPhases &phases, Executor * /*executor*/)
{
    // A Bernoulli trial per live node per cycle, drawn with its
    // destination from one traffic RNG in ascending node order.
    NetworkModel net(topo, cfg);
    Rng traffic_rng(cfg.seed * 0x9e3779b9ULL + 17);
    const auto nodes = liveNodes(topo);
    const auto n_all = topo.numNodes();
    return runLoop(
        net, nodes, rate, cfg, phases, 6,
        [&](Cycle, auto &&emit) {
            for (const NodeId src : nodes) {
                if (!traffic_rng.chance(rate))
                    continue;
                const NodeId dst = trafficDestination(
                    pattern, src, n_all, traffic_rng);
                if (dst == src || !topo.nodeAlive(dst))
                    continue;
                emit(src, dst);
            }
        });
}

namespace {

/**
 * The open-loop injector behind runOpenLoop and runElastic, over
 * runLoop. With @p schedule null (or empty) this is the exact
 * runOpenLoop engine, event for event; otherwise @p elastic must
 * alias @p topo.
 */
RunResult
runOpenLoopImpl(const net::Topology &topo, TrafficPattern pattern,
                const ArrivalConfig &arrivals, double rate,
                const SimConfig &cfg, const RunPhases &phases,
                core::StringFigure *elastic,
                const ReconfigSchedule *schedule)
{
    NetworkModel net(topo, cfg);
    const auto nodes = liveNodes(topo);
    const auto n_all = topo.numNodes();

    // Per-node arrival schedules and destination streams. Both are
    // pure functions of (cfg.seed, node), so the whole injection
    // sequence is fixed before the first cycle executes —
    // congestion cannot push back on the offered load, and no
    // execution knob (jobs) can reach it.
    std::vector<OpenLoopSource> sources;
    std::vector<Rng> destRng;
    std::vector<Cycle> nextArrival;
    sources.reserve(nodes.size());
    destRng.reserve(nodes.size());
    nextArrival.reserve(nodes.size());
    for (const NodeId src : nodes) {
        sources.emplace_back(arrivals, rate,
                             nodeStreamSeed(cfg.seed, src, 1));
        destRng.emplace_back(nodeStreamSeed(cfg.seed, src, 2));
        nextArrival.push_back(sources.back().next());
    }

    // Deeper early-abort cap than runSynthetic's: on/off arrival
    // processes legitimately pile transient bursts tens of packets
    // deep per node and then drain — only a backlog far beyond any
    // burst working set means the offered load exceeds capacity.
    return runLoop(
        net, nodes, rate, cfg, phases, 24,
        [&](Cycle cycle, auto &&emit) {
            // Serial, ascending-node injection order: the arrival
            // heap's push interleaving is load-bearing (ROADMAP
            // total-event-order constraint), so schedules drain in
            // a fixed order no matter how they were generated.
            for (std::size_t i = 0; i < nodes.size(); ++i) {
                while (nextArrival[i] <= cycle) {
                    nextArrival[i] = sources[i].next();
                    const NodeId src = nodes[i];
                    const NodeId dst = trafficDestination(
                        pattern, src, n_all, destRng[i]);
                    // Gated sources and destinations skip the
                    // inject but still consume their stream draws,
                    // so the schedules of the surviving nodes are
                    // untouched by who else is live.
                    if (dst == src || !topo.nodeAlive(dst) ||
                        !topo.nodeAlive(src))
                        continue;
                    emit(src, dst);
                }
            }
        },
        elastic, schedule);
}

} // namespace

RunResult
runOpenLoop(const net::Topology &topo, TrafficPattern pattern,
            const ArrivalConfig &arrivals, double rate,
            const SimConfig &cfg, const RunPhases &phases)
{
    return runOpenLoopImpl(topo, pattern, arrivals, rate, cfg,
                           phases, nullptr, nullptr);
}

RunResult
runElastic(core::StringFigure &topo, TrafficPattern pattern,
           const ArrivalConfig &arrivals, double rate,
           const ReconfigSchedule &schedule, const SimConfig &cfg,
           const RunPhases &phases)
{
    return runOpenLoopImpl(topo, pattern, arrivals, rate, cfg,
                           phases, &topo, &schedule);
}

double
zeroLoadLatency(const net::Topology &topo, const SimConfig &cfg,
                TrafficPattern pattern)
{
    RunPhases phases;
    phases.warmup = 500;
    phases.measure = 4000;
    phases.drainLimit = 20000;
    const auto result =
        runSynthetic(topo, pattern, 0.002, cfg, phases);
    return result.avgTotalLatency;
}

double
findSaturationRate(const net::Topology &topo, TrafficPattern pattern,
                   const SimConfig &cfg, const RunPhases &phases,
                   double tolerance)
{
    // A rate saturates when its run cannot drain or its average
    // latency exceeds 3x the zero-load latency (at least 120
    // cycles).
    const double latency_cap =
        std::max(3.0 * zeroLoadLatency(topo, cfg, pattern), 120.0);
    const auto saturated = [&](double rate) {
        const RunResult r =
            runSynthetic(topo, pattern, rate, cfg, phases);
        return r.saturated || r.avgTotalLatency > latency_cap;
    };

    if (!saturated(1.0))
        return 1.0;
    // Geometric descent to the first unsaturated rate...
    double hi = 1.0;
    double lo = 0.5;
    while (lo > 1e-4 && saturated(lo)) {
        hi = lo;
        lo /= 4.0;
    }
    if (lo <= 1e-4)
        return lo;
    // ...then bisection in log space down to the tolerance.
    while (hi / lo > 1.0 + tolerance) {
        const double mid = std::sqrt(hi * lo);
        if (saturated(mid))
            hi = mid;
        else
            lo = mid;
    }
    return lo;
}

} // namespace sf::sim
