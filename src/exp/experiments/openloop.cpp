/**
 * @file
 * Open-loop tail-latency experiments: the hockey-stick family
 * (latency percentiles vs offered load, per pattern x arrival
 * process x topology) and the micro_openloop wall-clock rows.
 *
 * A hockey-stick cell drives sim::runOpenLoop at a fixed nominal
 * rate: arrival schedules are pure functions of seed + rate, the
 * per-packet latencies land in fixed-size log-bucket histograms on
 * the allocation-free measure path, and the reported percentiles
 * are pure functions of the event stream — so the whole family is
 * byte-identical across --jobs, and the percentile metrics are
 * exact-compared by `sfx diff`.
 */

#include <chrono>
#include <memory>
#include <string_view>
#include <vector>

#include "exp/experiments/builtin.hpp"
#include "exp/experiments/common.hpp"
#include "exp/registry.hpp"
#include "sim/simulator.hpp"
#include "topos/factory.hpp"

namespace sf::exp {

namespace {

ExperimentSpec
hockeyStickSpec()
{
    ExperimentSpec spec;
    spec.name = "hockey_stick";
    spec.artefact = "tail latency";
    spec.title = "latency percentiles (p50..p999/max, cycles) vs "
                 "offered load, per pattern x arrival process x "
                 "design";
    spec.plan = [](const PlanContext &ctx) {
        const std::vector<std::size_t> sizes = pick<
            std::vector<std::size_t>>(ctx.effort, {64}, {64, 256},
                                      {64, 256, 1024});
        const std::vector<sim::TrafficPattern> patterns =
            pick<std::vector<sim::TrafficPattern>>(
                ctx.effort,
                {sim::TrafficPattern::UniformRandom},
                {sim::TrafficPattern::UniformRandom,
                 sim::TrafficPattern::Tornado,
                 sim::TrafficPattern::Hotspot},
                {sim::TrafficPattern::UniformRandom,
                 sim::TrafficPattern::Tornado,
                 sim::TrafficPattern::Hotspot,
                 sim::TrafficPattern::Complement});
        // Load steps in packets/node/cycle: dense enough around
        // the SF knee (~0.045-0.06 at the evaluated scales) that
        // the hockey stick's bend is visible in the report.
        const std::vector<double> rates = pick<
            std::vector<double>>(
            ctx.effort, {0.005, 0.015, 0.03, 0.045, 0.06},
            {0.0025, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.065},
            {0.0025, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06,
             0.07, 0.08});
        const sim::RunPhases phases =
            ctx.effort == Effort::Quick
                ? sim::RunPhases::openLoopQuick()
                : sim::RunPhases::openLoop();
        std::vector<RunSpec> runs;
        for (const std::size_t n : sizes) {
            for (const auto pattern : patterns) {
                for (const auto kind : topos::kAllKinds) {
                    if (!topos::supported(kind, n))
                        continue;
                    for (const auto process :
                         sim::kAllArrivalProcesses) {
                        for (const double rate : rates) {
                            RunSpec run;
                            const std::string kname =
                                topos::kindName(kind);
                            const std::string pname =
                                sim::arrivalProcessName(process);
                            run.id = fmt(
                                "n%zu/%s/%s/%s/r%.4f", n,
                                sim::patternName(pattern)
                                    .c_str(),
                                kname.c_str(), pname.c_str(),
                                rate);
                            run.params.set("nodes", n);
                            run.params.set(
                                "pattern",
                                sim::patternName(pattern));
                            run.params.set("design", kname);
                            run.params.set("process", pname);
                            run.params.set("rate", rate);
                            run.body = [n, pattern, kind, process,
                                        rate, phases](
                                           const RunContext &rc)
                                -> Json {
                                const auto topo =
                                    topos::cachedTopology(
                                        kind, n, rc.baseSeed);
                                const sim::SimConfig cfg =
                                    simConfigFor(rc);
                                sim::ArrivalConfig arrivals;
                                arrivals.process = process;
                                const auto r = sim::runOpenLoop(
                                    *topo, pattern, arrivals,
                                    rate, cfg, phases);
                                Json m = Json::object();
                                setTailMetrics(m, r);
                                return m;
                            };
                            runs.push_back(std::move(run));
                        }
                    }
                }
            }
        }
        return runs;
    };
    return spec;
}

/**
 * Open-loop engine wall clock (BENCH rows): runOpenLoop on the
 * 1024-node String Figure network per arrival process, at a mid
 * and a near-saturation load point. Wall-clock metrics are
 * machine-dependent (non-deterministic spec), but the row also
 * carries measured_packets / p99 — equal values across reruns are
 * determinism evidence for the generator itself.
 */
ExperimentSpec
microOpenLoopSpec()
{
    ExperimentSpec spec;
    spec.name = "micro_openloop";
    spec.artefact = "Sec VI";
    spec.title = "open-loop generator + histogram hot-path wall "
                 "clock on 1024-node runs (non-deterministic)";
    spec.deterministic = false;
    spec.plan = [](const PlanContext &ctx) {
        const int reps = pick(ctx.effort, 1, 2, 3);
        const struct {
            const char *label;
            double rate;
        } points[] = {
            {"mid", 0.020},
            {"high", 0.045},
        };
        std::vector<RunSpec> runs;
        for (const auto &point : points) {
            // Quick effort keeps one load point per process so the
            // row set stays CI-affordable.
            if (ctx.effort == Effort::Quick &&
                std::string_view(point.label) != "high")
                continue;
            for (const auto process : sim::kAllArrivalProcesses) {
                RunSpec run;
                const std::string pname =
                    sim::arrivalProcessName(process);
                run.id = fmt("n1024/uniform/%s/%s",
                             pname.c_str(), point.label);
                run.params.set("nodes", 1024);
                run.params.set("pattern", "uniform");
                run.params.set("process", pname);
                run.params.set("load", point.label);
                run.params.set("rate", point.rate);
                run.params.set("reps", reps);
                const double rate = point.rate;
                const std::string point_id =
                    fmt("n1024/uniform/%s", point.label);
                run.body = [rate, reps, process, point_id](
                               const RunContext &rc) -> Json {
                    const auto topo = topos::cachedTopology(
                        topos::TopoKind::SF, 1024, rc.baseSeed);
                    sim::SimConfig cfg = simConfigFor(rc);
                    // Seeded per load point so every process row
                    // of a point is comparable run to run.
                    cfg.seed = deriveSeed("micro_openloop",
                                          point_id, rc.baseSeed);
                    sim::ArrivalConfig arrivals;
                    arrivals.process = process;
                    const auto phases =
                        sim::RunPhases::openLoopQuick();
                    using clock = std::chrono::steady_clock;
                    double best_s = 0.0;
                    sim::RunResult result;
                    for (int r = 0; r < reps; ++r) {
                        const auto start = clock::now();
                        result = sim::runOpenLoop(
                            *topo,
                            sim::TrafficPattern::UniformRandom,
                            arrivals, rate, cfg, phases);
                        const double s =
                            std::chrono::duration<double>(
                                clock::now() - start)
                                .count();
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
                    m.set("simulated_cycles",
                          static_cast<std::uint64_t>(
                              result.simulatedCycles));
                    m.set("measured_packets",
                          result.measuredPackets);
                    m.set("p99", static_cast<std::int64_t>(
                                     result.tailTotal.p99));
                    m.set("saturated", result.saturated);
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
registerOpenLoopExperiments(Registry &r)
{
    r.add(hockeyStickSpec());
    r.add(microOpenLoopSpec());
}

} // namespace sf::exp
