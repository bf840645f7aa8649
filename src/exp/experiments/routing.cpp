/**
 * @file
 * The routing bake-off (ROADMAP item 3): race the paper's greedy
 * routing against a UGAL-L-style adaptive competitor and a static
 * shortest-path oracle across topology designs and adversarial
 * traffic patterns. Every grid cell pins one (policy, design,
 * pattern, scale) combination, searches its saturation rate, then
 * measures the latency distribution just below the knee (0.9 x
 * saturation) so the tail percentiles are comparable across
 * policies at equivalent relative load.
 *
 * The policy is a grid parameter here — each cell sets
 * SimConfig::policy itself — unlike the global `sfx --policy`
 * knob, which retargets entire sweeps. Everything else rides the
 * usual execution knob (--jobs), which stays
 * byte-identical-invisible; the quick slice of this grid is
 * golden-pinned at jobs 1 and 8 in tests/test_routing_policy.cpp.
 */

#include <cstdint>
#include <vector>

#include "core/routing_policy.hpp"
#include "exp/experiments/builtin.hpp"
#include "exp/experiments/common.hpp"
#include "exp/registry.hpp"
#include "sim/simulator.hpp"
#include "topos/factory.hpp"

namespace sf::exp {

namespace {

ExperimentSpec
routingBakeoffSpec()
{
    ExperimentSpec spec;
    spec.name = "routing_bakeoff";
    spec.artefact = "routing bake-off";
    spec.title = "saturation rate + latency tail at 0.9x "
                 "saturation, per routing policy x design x "
                 "pattern";
    spec.plan = [](const PlanContext &ctx) {
        const std::vector<std::size_t> sizes =
            pick<std::vector<std::size_t>>(ctx.effort, {64},
                                           {64, 256},
                                           {64, 256, 1024});
        // Quick keeps three designs at one scale so the pinned
        // slice still exercises a full >=3x3x3 matrix; larger
        // efforts race every supported design.
        const std::vector<topos::TopoKind> kinds =
            ctx.effort == Effort::Quick
                ? std::vector<topos::TopoKind>{
                      topos::TopoKind::DM, topos::TopoKind::S2,
                      topos::TopoKind::SF}
                : std::vector<topos::TopoKind>(
                      std::begin(topos::kAllKinds),
                      std::end(topos::kAllKinds));
        const std::vector<sim::TrafficPattern> patterns{
            sim::TrafficPattern::UniformRandom,
            sim::TrafficPattern::Tornado,
            sim::TrafficPattern::Hotspot};
        const double tolerance =
            ctx.effort == Effort::Full ? 0.07 : 0.12;
        // One abbreviated phase set for both the search probes and
        // the tail measurement: at 0.9x saturation a 2000-cycle
        // window already measures thousands of packets, and a
        // shared definition keeps cells cheap enough for a
        // hundred-cell matrix.
        const sim::RunPhases phases =
            sim::RunPhases::saturationProbe();
        std::vector<RunSpec> runs;
        for (const std::size_t n : sizes) {
            for (const auto pattern : patterns) {
                for (const auto kind : kinds) {
                    if (!topos::supported(kind, n))
                        continue;
                    for (const auto pol :
                         core::kAllRoutingPolicies) {
                        RunSpec run;
                        const std::string kname =
                            topos::kindName(kind);
                        const std::string pname =
                            core::routingPolicyName(pol);
                        run.id = fmt(
                            "n%zu/%s/%s/%s", n,
                            sim::patternName(pattern).c_str(),
                            kname.c_str(), pname.c_str());
                        run.params.set(
                            "pattern",
                            sim::patternName(pattern));
                        run.params.set("nodes", n);
                        run.params.set("design", kname);
                        run.params.set("policy", pname);
                        run.body = [n, pattern, kind, pol,
                                    tolerance, phases](
                                       const RunContext &rc)
                            -> Json {
                            const auto topo =
                                topos::cachedTopology(
                                    kind, n, rc.baseSeed);
                            sim::SimConfig cfg;
                            cfg.seed = rc.seed;
                            // The cell's policy, not the global
                            // --policy knob: the bake-off races
                            // policies against each other inside
                            // one sweep.
                            cfg.policy = pol;
                            const double sat =
                                sim::findSaturationRate(
                                    *topo, pattern, cfg, phases,
                                    tolerance);
                            const double probe = 0.9 * sat;
                            const auto r = sim::runSynthetic(
                                *topo, pattern, probe, cfg,
                                phases);
                            Json m = Json::object();
                            m.set("saturation_rate", sat);
                            m.set("saturation_pct",
                                  100.0 * sat);
                            m.set("probe_rate", probe);
                            m.set("avg_latency",
                                  r.avgTotalLatency);
                            m.set("p50",
                                  static_cast<std::int64_t>(
                                      r.tailTotal.p50));
                            m.set("p99",
                                  static_cast<std::int64_t>(
                                      r.tailTotal.p99));
                            m.set("p999",
                                  static_cast<std::int64_t>(
                                      r.tailTotal.p999));
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
registerRoutingExperiments(Registry &r)
{
    r.add(routingBakeoffSpec());
}

} // namespace sf::exp
