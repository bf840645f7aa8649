/**
 * @file
 * Routing-overhead microbenchmarks (paper Section III-B claims):
 * forwarding decisions cost a fixed, small number of distance
 * computations independent of scale; routing state stays bounded
 * at p(p+1) entries; construction and reconfiguration are cheap.
 *
 * Replaces the old google-benchmark harness with steady_clock
 * timing loops so the experiment rides the same registry, CLI, and
 * report as everything else; like google-benchmark's repetitions,
 * every run repeats its timing loop and reports min / mean /
 * stddev, so scheduling jitter is visible instead of folded into a
 * single mean. Timing metrics are inherently machine-dependent, so
 * the spec is marked non-deterministic and excluded from
 * byte-identical report checks.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/string_figure.hpp"
#include "core/topology_builder.hpp"
#include "exp/experiments/builtin.hpp"
#include "exp/experiments/common.hpp"
#include "exp/registry.hpp"
#include "net/rng.hpp"
#include "sim/simulator.hpp"
#include "topos/factory.hpp"

namespace sf::exp {

namespace {

core::SFParams
paramsFor(std::size_t n, std::uint64_t seed)
{
    core::SFParams params;
    params.numNodes = n;
    params.routerPorts = n <= 128 ? 4 : 8;
    params.seed = seed;
    return params;
}

/**
 * Run @p op in a timing loop for ~@p budget_ms and return average
 * nanoseconds per iteration (includes a short warmup batch).
 */
template <typename Op>
double
nsPerIteration(Op &&op, double budget_ms)
{
    using clock = std::chrono::steady_clock;
    for (int i = 0; i < 64; ++i)
        op();
    std::uint64_t iterations = 0;
    const auto start = clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        budget_ms));
    auto now = start;
    while (now < deadline) {
        for (int i = 0; i < 256; ++i)
            op();
        iterations += 256;
        now = clock::now();
    }
    const double ns =
        std::chrono::duration<double, std::nano>(now - start)
            .count();
    return ns / static_cast<double>(iterations);
}

/** min / mean / population stddev over timing repetitions. */
struct TimingStats {
    double min = 0.0;
    double mean = 0.0;
    double stddev = 0.0;
};

/**
 * Repeat the @p budget_ms timing loop @p reps times (what the old
 * google-benchmark harness did with --benchmark_repetitions) so a
 * run reports scheduling noise instead of hiding it: min is the
 * least-disturbed estimate, stddev the jitter.
 */
template <typename Op>
TimingStats
timedReps(Op &&op, int reps, double budget_ms)
{
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r)
        samples.push_back(nsPerIteration(op, budget_ms));
    TimingStats stats;
    stats.min = samples[0];
    for (const double s : samples) {
        stats.min = std::min(stats.min, s);
        stats.mean += s;
    }
    stats.mean /= static_cast<double>(samples.size());
    double var = 0.0;
    for (const double s : samples)
        var += (s - stats.mean) * (s - stats.mean);
    stats.stddev =
        std::sqrt(var / static_cast<double>(samples.size()));
    return stats;
}

/** Emit "<key>_min/_mean/_stddev", scaled by @p scale. */
void
setTimingMetrics(Json &m, const char *key,
                 const TimingStats &stats, double scale = 1.0)
{
    const std::string base(key);
    m.set(base + "_min", stats.min * scale);
    m.set(base + "_mean", stats.mean * scale);
    m.set(base + "_stddev", stats.stddev * scale);
}

ExperimentSpec
microSpec()
{
    ExperimentSpec spec;
    spec.name = "micro_routing";
    spec.artefact = "Sec III-B";
    spec.title = "routing/decision/construction latency "
                 "microbenchmarks (wall-clock; non-deterministic)";
    spec.deterministic = false;
    spec.plan = [](const PlanContext &ctx) {
        const double budget_ms = pick(ctx.effort, 10.0, 40.0, 120.0);
        const int reps = pick(ctx.effort, 3, 5, 8);
        std::vector<RunSpec> runs;

        const auto add_decision =
            [&](const char *which, std::size_t n, bool widen) {
                RunSpec run;
                run.id = fmt("%s/n%zu", which, n);
                run.params.set("op", which);
                run.params.set("nodes", n);
                run.params.set("reps", reps);
                run.body = [n, widen, budget_ms, reps](
                               const RunContext &rc) -> Json {
                    const core::StringFigure topo(
                        paramsFor(n, rc.baseSeed));
                    Rng rng(rc.seed);
                    LinkId out[net::kMaxRouteCandidates];
                    const auto stats = timedReps(
                        [&] {
                            const auto s = static_cast<NodeId>(
                                rng.below(n));
                            const auto t = static_cast<NodeId>(
                                rng.below(n));
                            if (s == t)
                                return;
                            topo.routeCandidates(s, t, widen,
                                                 out);
                        },
                        reps, budget_ms);
                    Json m = Json::object();
                    setTimingMetrics(m, "ns_per_decision",
                                     stats);
                    m.set("table_entries_max",
                          topo.tables().maxEntriesSeen());
                    return m;
                };
                runs.push_back(std::move(run));
            };
        for (const std::size_t n : {64u, 256u, 1296u})
            add_decision("greedy_decision", n, false);
        for (const std::size_t n : {256u, 1296u})
            add_decision("adaptive_first_hop", n, true);

        for (const std::size_t n : {256u, 1296u}) {
            RunSpec run;
            run.id = fmt("routed_walk/n%zu", n);
            run.params.set("op", "routed_walk");
            run.params.set("nodes", n);
            run.params.set("reps", reps);
            run.body = [n, budget_ms,
                        reps](const RunContext &rc) -> Json {
                const core::StringFigure topo(
                    paramsFor(n, rc.baseSeed));
                Rng rng(rc.seed);
                long long sink = 0;
                const auto stats = timedReps(
                    [&] {
                        const auto s =
                            static_cast<NodeId>(rng.below(n));
                        const auto t =
                            static_cast<NodeId>(rng.below(n));
                        if (s == t)
                            return;
                        sink += net::routedHops(topo, s, t);
                    },
                    reps, budget_ms);
                Json m = Json::object();
                setTimingMetrics(m, "ns_per_walk", stats);
                m.set("checksum", sink >= 0);
                return m;
            };
            runs.push_back(std::move(run));
        }

        for (const std::size_t n : {128u, 1296u}) {
            RunSpec run;
            run.id = fmt("topology_build/n%zu", n);
            run.params.set("op", "topology_build");
            run.params.set("nodes", n);
            run.params.set("reps", reps);
            run.body = [n, budget_ms,
                        reps](const RunContext &rc) -> Json {
                std::size_t links = 0;
                const auto stats = timedReps(
                    [&] {
                        // The deployed-network build: wire
                        // construction, routing tables, and the
                        // reconfiguration engine.
                        const auto topo = core::buildTopology(
                            paramsFor(n, rc.baseSeed));
                        links = topo->graph().numLinks();
                    },
                    reps,
                    // Construction is ms-scale; one batch is
                    // enough at quick effort.
                    budget_ms * 10.0);
                Json m = Json::object();
                setTimingMetrics(m, "ms_per_build", stats,
                                 1.0 / 1e6);
                m.set("links", links);
                return m;
            };
            runs.push_back(std::move(run));
        }

        for (const std::size_t n : {256u, 1296u}) {
            RunSpec run;
            run.id = fmt("reconfig_round_trip/n%zu", n);
            run.params.set("op", "reconfig_round_trip");
            run.params.set("nodes", n);
            run.params.set("reps", reps);
            run.body = [n, budget_ms,
                        reps](const RunContext &rc) -> Json {
                // Private instance: gating mutates the topology.
                core::StringFigure topo(
                    paramsFor(n, rc.baseSeed));
                Rng rng(rc.seed);
                const auto stats = timedReps(
                    [&] {
                        const auto u =
                            static_cast<NodeId>(rng.below(n));
                        if (!topo.reconfig().canGate(u))
                            return;
                        topo.gate(u);
                        topo.ungate(u);
                    },
                    reps, budget_ms);
                Json m = Json::object();
                setTimingMetrics(m, "us_per_round_trip", stats,
                                 1.0 / 1e3);
                m.set("table_rebuilds",
                      topo.reconfig().stats().tableRebuilds);
                return m;
            };
            runs.push_back(std::move(run));
        }
        return runs;
    };
    return spec;
}

/**
 * Peak resident set of this process, in kilobytes (Linux VmHWM; 0
 * where /proc is unavailable). VmHWM is monotonic for the process
 * lifetime, so each run calls resetPeakRss() first; without that
 * reset a low-load row would inherit the peak of whatever ran
 * before it. Whole-process either way, so only meaningful at
 * --jobs 1 with nothing else in flight — which is exactly how the
 * CI perf-smoke job invokes it.
 */
std::size_t
processPeakRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    std::size_t kb = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return kb;
}

/** Reset VmHWM to the current RSS (Linux: "5" into clear_refs);
 *  best-effort — where unsupported, VmHWM stays monotonic. */
void
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return;
    std::fputs("5", f);
    std::fclose(f);
}

/**
 * Cycle-engine hot-path benchmark (BENCH_sim_hotpath.json): wall
 * clock of full runSynthetic simulations on the paper's largest
 * Fig 11 configuration — 1024 nodes, uniform-random traffic — at a
 * low, a mid, and a high (near-saturation) load point. The
 * `cycles_per_sec` metric is the engine's headline throughput; the
 * perf-smoke CI job archives the report so the trajectory is
 * visible PR over PR.
 *
 * The per-point `phases` rows run with SimConfig::profilePhases
 * and report wall time per pipeline phase of docs/engine_phases.md
 * (land / snapshot / route / arbitrate, ns per cycle), so a speedup
 * is attributable to the phase it shrank.
 */
ExperimentSpec
microSimulatorSpec()
{
    ExperimentSpec spec;
    spec.name = "micro_simulator";
    spec.artefact = "Sec VI";
    spec.title = "cycle-engine hot-path wall clock on 1024-node "
                 "uniform-random runs (non-deterministic)";
    spec.deterministic = false;
    spec.plan = [](const PlanContext &ctx) {
        const int reps = pick(ctx.effort, 1, 2, 3);
        std::vector<RunSpec> runs;
        // Beyond-saturation rates trip the backlog early-abort
        // within a few hundred cycles and measure almost nothing,
        // so "high" is the heaviest sustained load: just under the
        // 1024-node SF saturation point of the Fig 11 curve.
        const struct {
            const char *label;
            double rate;
        } points[] = {
            {"low", 0.005},
            {"mid", 0.020},
            {"high", 0.045},
        };
        for (const auto &point : points) {
            // Both rows of a load point share its seed, so they
            // simulate the identical event sequence: equal
            // simulated_cycles across the two are determinism
            // evidence right in the benchmark report.
            const std::string point_id =
                fmt("n1024/uniform/%s", point.label);
            const double rate = point.rate;
            {
                RunSpec run;
                run.id = point_id;
                run.params.set("nodes", 1024);
                run.params.set("pattern", "uniform");
                run.params.set("load", point.label);
                run.params.set("rate", point.rate);
                run.params.set("reps", reps);
                run.body = [rate, reps,
                            point_id](const RunContext &rc) -> Json {
                    resetPeakRss();
                    const auto topo = topos::cachedTopology(
                        topos::TopoKind::SF, 1024, rc.baseSeed);
                    sim::SimConfig cfg;
                    cfg.seed = deriveSeed("micro_simulator",
                                          point_id, rc.baseSeed);
                    const auto phases =
                        sim::RunPhases::latencyCurve();
                    using clock = std::chrono::steady_clock;
                    double best_s = 0.0;
                    double sum_s = 0.0;
                    sim::RunResult result;
                    for (int r = 0; r < reps; ++r) {
                        const auto start = clock::now();
                        result = sim::runSynthetic(
                            *topo,
                            sim::TrafficPattern::UniformRandom,
                            rate, cfg, phases);
                        const double s =
                            std::chrono::duration<double>(
                                clock::now() - start)
                                .count();
                        sum_s += s;
                        if (r == 0 || s < best_s)
                            best_s = s;
                    }
                    Json m = Json::object();
                    m.set("cycles_per_sec",
                          best_s > 0.0
                              ? static_cast<double>(
                                    result.simulatedCycles) /
                                    best_s
                              : 0.0);
                    m.set("wall_s_min", best_s);
                    m.set("wall_s_mean",
                          sum_s / static_cast<double>(reps));
                    m.set("simulated_cycles",
                          static_cast<std::uint64_t>(
                              result.simulatedCycles));
                    m.set("measured_packets",
                          result.measuredPackets);
                    m.set("flit_hops", result.flitHops);
                    m.set("saturated", result.saturated);
                    m.set("process_peak_rss_kb",
                          processPeakRssKb());
                    return m;
                };
                runs.push_back(std::move(run));
            }
            // Per-phase wall-time breakdown
            // (SimConfig::profilePhases): where each simulated
            // cycle's nanoseconds actually go, phase by phase of
            // docs/engine_phases.md.
            {
                RunSpec run;
                run.id = point_id + "/phases";
                run.params.set("nodes", 1024);
                run.params.set("pattern", "uniform");
                run.params.set("load", point.label);
                run.params.set("rate", point.rate);
                run.params.set("op", "phase_profile");
                run.body = [rate,
                            point_id](const RunContext &rc) -> Json {
                    const auto topo = topos::cachedTopology(
                        topos::TopoKind::SF, 1024, rc.baseSeed);
                    sim::SimConfig cfg;
                    cfg.seed = deriveSeed("micro_simulator",
                                          point_id, rc.baseSeed);
                    cfg.profilePhases = true;
                    const auto result = sim::runSynthetic(
                        *topo,
                        sim::TrafficPattern::UniformRandom, rate,
                        cfg, sim::RunPhases::latencyCurve());
                    const double cycles =
                        result.phaseProfiledCycles > 0
                            ? static_cast<double>(
                                  result.phaseProfiledCycles)
                            : 1.0;
                    Json m = Json::object();
                    m.set("profiled_cycles",
                          result.phaseProfiledCycles);
                    m.set("land_ns_per_cycle",
                          static_cast<double>(result.phaseLandNs) /
                              cycles);
                    m.set("snapshot_ns_per_cycle",
                          static_cast<double>(
                              result.phaseSnapshotNs) /
                              cycles);
                    m.set("route_ns_per_cycle",
                          static_cast<double>(
                              result.phaseRouteNs) /
                              cycles);
                    m.set("arbitrate_ns_per_cycle",
                          static_cast<double>(
                              result.phaseDecideNs) /
                              cycles);
                    m.set("simulated_cycles",
                          static_cast<std::uint64_t>(
                              result.simulatedCycles));
                    return m;
                };
                runs.push_back(std::move(run));
            }
        }
        return runs;
    };
    return spec;
}

} // namespace

void
registerMicroExperiments(Registry &r)
{
    r.add(microSpec());
    r.add(microSimulatorSpec());
}

void
registerBuiltinExperiments(Registry &r)
{
    registerStructureExperiments(r);
    registerTrafficExperiments(r);
    registerWorkloadExperiments(r);
    registerAblationExperiments(r);
    registerMicroExperiments(r);
    registerOpenLoopExperiments(r);
    registerRoutingExperiments(r);
    registerElasticExperiments(r);
}

} // namespace sf::exp
