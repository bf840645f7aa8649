/**
 * @file
 * Synthetic-traffic experiments on the flit simulator: Fig 10
 * (saturation injection rate across designs / patterns / scales)
 * and Fig 11 (latency-vs-injection-rate curves). These are the
 * heavyweight sweeps the thread-pool scheduler exists for: every
 * grid cell is one independent simulation.
 *
 * Both sweeps route over shared immutable topologies from the
 * process-wide cache (one build per design/scale, not per cell).
 * A Fig 10 saturation search probes its rates one after another
 * inside its run.
 */

#include <vector>

#include "exp/experiments/builtin.hpp"
#include "exp/experiments/common.hpp"
#include "exp/registry.hpp"
#include "sim/simulator.hpp"
#include "topos/factory.hpp"

namespace sf::exp {

namespace {

ExperimentSpec
fig10Spec()
{
    ExperimentSpec spec;
    spec.name = "fig10_saturation";
    spec.artefact = "Fig 10";
    spec.title = "saturation injection rate (%) vs number of "
                 "memory nodes";
    spec.plan = [](const PlanContext &ctx) {
        std::vector<std::size_t> sizes{16, 64, 256, 1024};
        if (ctx.effort == Effort::Quick)
            sizes = {16, 64, 256};
        if (ctx.effort == Effort::Full)
            sizes = {16, 32, 64, 128, 256, 512, 1024};
        const double tolerance =
            ctx.effort == Effort::Full ? 0.07 : 0.12;
        std::vector<RunSpec> runs;
        for (const auto pattern :
             {sim::TrafficPattern::UniformRandom,
              sim::TrafficPattern::Hotspot,
              sim::TrafficPattern::Tornado}) {
            for (const std::size_t n : sizes) {
                for (const auto kind : topos::kAllKinds) {
                    if (!topos::supported(kind, n))
                        continue;
                    RunSpec run;
                    const std::string kname =
                        topos::kindName(kind);
                    run.id = fmt(
                        "%s/n%zu/%s",
                        sim::patternName(pattern).c_str(), n,
                        kname.c_str());
                    run.params.set("pattern",
                                   sim::patternName(pattern));
                    run.params.set("nodes", n);
                    run.params.set("design", kname);
                    run.body = [pattern, n, kind, tolerance](
                                   const RunContext &rc) -> Json {
                        const auto topo = topos::cachedTopology(
                            kind, n, rc.baseSeed);
                        const sim::SimConfig cfg =
                            simConfigFor(rc);
                        const double sat =
                            sim::findSaturationRate(
                                *topo, pattern, cfg,
                                sim::RunPhases::
                                    saturationProbe(),
                                tolerance);
                        Json m = Json::object();
                        m.set("saturation_rate", sat);
                        m.set("saturation_pct", 100.0 * sat);
                        return m;
                    };
                    runs.push_back(std::move(run));
                }
            }
        }
        return runs;
    };
    return spec;
}

ExperimentSpec
fig11Spec()
{
    ExperimentSpec spec;
    spec.name = "fig11_latency_curves";
    spec.artefact = "Fig 11";
    spec.title =
        "avg packet latency (cycles) vs injection rate";
    spec.plan = [](const PlanContext &ctx) {
        std::vector<std::size_t> sizes{64, 256};
        if (ctx.effort == Effort::Full)
            sizes = {64, 256, 1024};
        std::vector<sim::TrafficPattern> patterns{
            sim::TrafficPattern::UniformRandom,
            sim::TrafficPattern::Tornado,
            sim::TrafficPattern::Opposite,
            sim::TrafficPattern::Complement};
        if (ctx.effort == Effort::Quick)
            patterns = {sim::TrafficPattern::UniformRandom};
        const std::vector<double> rates{0.005, 0.01, 0.02, 0.03,
                                        0.045, 0.06, 0.08, 0.10};
        std::vector<RunSpec> runs;
        for (const std::size_t n : sizes) {
            for (const auto pattern : patterns) {
                for (const auto kind : topos::kAllKinds) {
                    if (!topos::supported(kind, n))
                        continue;
                    for (const double rate : rates) {
                        RunSpec run;
                        const std::string kname =
                            topos::kindName(kind);
                        run.id = fmt(
                            "n%zu/%s/%s/r%.3f", n,
                            sim::patternName(pattern).c_str(),
                            kname.c_str(), rate);
                        run.params.set("nodes", n);
                        run.params.set(
                            "pattern",
                            sim::patternName(pattern));
                        run.params.set("design", kname);
                        run.params.set("rate", rate);
                        run.body = [n, pattern, kind, rate](
                                       const RunContext &rc)
                            -> Json {
                            // Shared: every rate point of every
                            // pattern rides one immutable build.
                            const auto topo =
                                topos::cachedTopology(
                                    kind, n, rc.baseSeed);
                            const sim::SimConfig cfg =
                                simConfigFor(rc);
                            const auto r = sim::runSynthetic(
                                *topo, pattern, rate, cfg,
                                sim::RunPhases::latencyCurve());
                            Json m = Json::object();
                            m.set("saturated", r.saturated);
                            m.set("avg_latency",
                                  r.avgTotalLatency);
                            m.set("network_latency",
                                  r.avgNetworkLatency);
                            m.set("p50",
                                  static_cast<std::int64_t>(
                                      r.p50Latency));
                            m.set("p99",
                                  static_cast<std::int64_t>(
                                      r.p99Latency));
                            m.set("avg_hops", r.avgHops);
                            m.set("accepted_load",
                                  r.acceptedLoad);
                            return m;
                        };
                        runs.push_back(std::move(run));
                    }
                }
            }
        }
        return runs;
    };
    return spec;
}

} // namespace

void
registerTrafficExperiments(Registry &r)
{
    r.add(fig10Spec());
    r.add(fig11Spec());
}

} // namespace sf::exp
