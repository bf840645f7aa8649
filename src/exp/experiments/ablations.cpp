/**
 * @file
 * Design-knob ablations (the old ablation_* harnesses):
 *
 *   ablation_adaptive        — first-hop adaptive vs pure greediest
 *   ablation_balance         — balanced vs i.i.d. uniform coordinates
 *   ablation_two_hop         — one-hop-only vs one+two-hop tables
 *   ablation_coord_bits      — quantised table coordinate precision
 *   ablation_unidir          — uni- vs bidirectional wiring
 *   ablation_reconfig_repair — repair-wire inventory under gating
 *   ablation_reconfig_envelope — how far sequential gating shrinks
 */

#include <algorithm>
#include <memory>
#include <vector>

#include "core/string_figure.hpp"
#include "exp/experiments/builtin.hpp"
#include "exp/experiments/common.hpp"
#include "exp/registry.hpp"
#include "net/paths.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "topos/factory.hpp"

namespace sf::exp {

namespace {

core::SFParams
sfParams(std::size_t n, std::uint64_t seed)
{
    core::SFParams params;
    params.numNodes = n;
    params.routerPorts = n <= 128 ? 4 : 8;
    params.seed = seed;
    return params;
}

ExperimentSpec
adaptiveSpec()
{
    ExperimentSpec spec;
    spec.name = "ablation_adaptive";
    spec.artefact = "Sec III-B";
    spec.title = "first-hop adaptive routing vs pure greediest "
                 "(saturation rate)";
    spec.plan = [](const PlanContext &ctx) {
        const std::size_t n =
            ctx.effort == Effort::Quick ? 64 : 256;
        std::vector<RunSpec> runs;
        for (const auto pattern :
             {sim::TrafficPattern::UniformRandom,
              sim::TrafficPattern::Tornado,
              sim::TrafficPattern::Hotspot}) {
            for (const bool adaptive : {true, false}) {
                RunSpec run;
                run.id = fmt("%s/%s",
                             sim::patternName(pattern).c_str(),
                             adaptive ? "adaptive" : "greedy");
                run.params.set("pattern",
                               sim::patternName(pattern));
                run.params.set("adaptive", adaptive);
                run.params.set("nodes", n);
                run.body = [pattern, adaptive,
                            n](const RunContext &rc) -> Json {
                    // Adaptivity is a simulator knob, so both arms
                    // share the same immutable topology.
                    const auto topo = topos::cachedTopology(
                        sfParams(n, rc.baseSeed));
                    sim::SimConfig cfg;
                    cfg.seed = rc.seed;
                    cfg.policy = rc.policy;
                    cfg.adaptive = adaptive;
                    Json m = Json::object();
                    m.set("saturation_rate",
                          sim::findSaturationRate(
                              *topo, pattern, cfg,
                              sim::RunPhases::saturationProbe(),
                              0.12));
                    return m;
                };
                runs.push_back(std::move(run));
            }
        }
        return runs;
    };
    return spec;
}

ExperimentSpec
balanceSpec()
{
    ExperimentSpec spec;
    spec.name = "ablation_balance";
    spec.artefact = "Fig 4";
    spec.title = "balanced ring slots vs i.i.d. uniform "
                 "coordinates";
    spec.plan = [](const PlanContext &ctx) {
        const std::size_t n =
            ctx.effort == Effort::Quick ? 64 : 256;
        std::vector<RunSpec> runs;
        for (const auto mode : {core::CoordMode::Balanced,
                                core::CoordMode::UniformRandom}) {
            RunSpec run;
            const char *mname =
                mode == core::CoordMode::Balanced ? "balanced"
                                                  : "uniform";
            run.id = mname;
            run.params.set("coords", mname);
            run.params.set("nodes", n);
            run.body = [mode, n](const RunContext &rc) -> Json {
                core::SFParams params = sfParams(n, rc.baseSeed);
                params.coordMode = mode;
                const auto topo = topos::cachedTopology(params);
                const auto stats =
                    net::allPairsStats(topo->graph());
                sim::SimConfig cfg;
                cfg.seed = rc.seed;
                cfg.policy = rc.policy;
                Json m = Json::object();
                m.set("avg_hops", stats.average);
                m.set("diameter", static_cast<std::int64_t>(
                                      stats.diameter));
                m.set("saturation_uniform",
                      sim::findSaturationRate(
                          *topo,
                          sim::TrafficPattern::UniformRandom,
                          cfg, sim::RunPhases::saturationProbe(),
                          0.12));
                return m;
            };
            runs.push_back(std::move(run));
        }
        return runs;
    };
    return spec;
}

ExperimentSpec
twoHopSpec()
{
    ExperimentSpec spec;
    spec.name = "ablation_two_hop";
    spec.artefact = "Sec III-B";
    spec.title = "one-hop-only vs one+two-hop routing tables";
    spec.plan = [](const PlanContext &ctx) {
        const int samples =
            ctx.effort == Effort::Full ? 60000 : 20000;
        std::vector<std::size_t> sizes{64, 256, 1024};
        if (ctx.effort == Effort::Quick)
            sizes = {64, 256};
        std::vector<RunSpec> runs;
        for (const std::size_t n : sizes) {
            for (const bool two_hop : {false, true}) {
                RunSpec run;
                run.id = fmt("n%zu/%s", n,
                             two_hop ? "2hop" : "1hop");
                run.params.set("nodes", n);
                run.params.set("two_hop", two_hop);
                run.params.set("samples", samples);
                run.body = [n, two_hop,
                            samples](const RunContext &rc)
                    -> Json {
                    core::SFParams params =
                        sfParams(n, rc.baseSeed);
                    params.twoHopTable = two_hop;
                    const auto shared =
                        topos::cachedTopology(params);
                    const auto topo = std::dynamic_pointer_cast<
                        const core::StringFigure>(shared);
                    Rng rng(rc.seed);
                    const auto probe = net::probeRoutedHops(
                        *topo, rng, samples);
                    // A one-hop-only router needs only the
                    // one-hop rows.
                    std::size_t max_entries = 0;
                    for (NodeId u = 0; u < n; ++u) {
                        std::size_t entries = 0;
                        for (const auto &e : topo->tables()
                                                 .table(u)
                                                 .entries())
                            entries +=
                                (two_hop || e.hops == 1) ? 1 : 0;
                        max_entries =
                            std::max(max_entries, entries);
                    }
                    Json m = Json::object();
                    m.set("routed_avg", probe.avgHops);
                    m.set("table_entries_max", max_entries);
                    return m;
                };
                runs.push_back(std::move(run));
            }
        }
        return runs;
    };
    return spec;
}

ExperimentSpec
coordBitsSpec()
{
    ExperimentSpec spec;
    spec.name = "ablation_coord_bits";
    spec.artefact = "Sec III-B";
    spec.title = "coordinate quantisation (256 nodes, p=8; "
                 "0 bits = exact)";
    spec.plan = [](const PlanContext &ctx) {
        const int samples =
            ctx.effort == Effort::Full ? 60000 : 20000;
        std::vector<RunSpec> runs;
        for (const int bits : {0, 10, 8, 7, 6, 5}) {
            RunSpec run;
            run.id = bits == 0 ? "exact" : fmt("%dbit", bits);
            run.params.set("coord_bits", bits);
            run.params.set("nodes", 256);
            run.params.set("samples", samples);
            run.body = [bits,
                        samples](const RunContext &rc) -> Json {
                core::SFParams params =
                    sfParams(256, rc.baseSeed);
                params.routerPorts = 8;
                params.coordBits = bits;
                // Private instance: the metric below reads the
                // accumulating fallback counter, which a shared
                // cached topology would carry across runs.
                const core::StringFigure topo(params);
                Rng rng(rc.seed);
                const auto probe =
                    net::probeRoutedHops(topo, rng, samples);
                Json m = Json::object();
                m.set("routed_avg", probe.avgHops);
                m.set("fallback_hops_per_pkt",
                      static_cast<double>(topo.fallbackCount()) /
                          std::max<std::size_t>(probe.attempted,
                                                1));
                m.set("delivered_pct", probe.deliveredPct);
                return m;
            };
            runs.push_back(std::move(run));
        }
        return runs;
    };
    return spec;
}

ExperimentSpec
unidirSpec()
{
    ExperimentSpec spec;
    spec.name = "ablation_unidir";
    spec.artefact = "Sec IV/VI";
    spec.title = "unidirectional vs bidirectional String Figure "
                 "wiring";
    spec.plan = [](const PlanContext &ctx) {
        std::vector<std::size_t> sizes{64, 256, 1024};
        if (ctx.effort == Effort::Quick)
            sizes = {64, 256};
        std::vector<RunSpec> runs;
        for (const std::size_t n : sizes) {
            for (const auto mode :
                 {core::LinkMode::Unidirectional,
                  core::LinkMode::Bidirectional}) {
                RunSpec run;
                const char *mname =
                    mode == core::LinkMode::Unidirectional
                        ? "uni"
                        : "bi";
                run.id = fmt("n%zu/%s", n, mname);
                run.params.set("nodes", n);
                run.params.set("wiring", mname);
                run.body = [n, mode](const RunContext &rc)
                    -> Json {
                    core::SFParams params =
                        sfParams(n, rc.baseSeed);
                    params.linkMode = mode;
                    const auto topo =
                        topos::cachedTopology(params);
                    sim::SimConfig cfg;
                    cfg.seed = rc.seed;
                    cfg.policy = rc.policy;
                    Json m = Json::object();
                    m.set("avg_hops",
                          net::allPairsStats(topo->graph())
                              .average);
                    m.set("saturation_rate",
                          sim::findSaturationRate(
                              *topo,
                              sim::TrafficPattern::
                                  UniformRandom,
                              cfg,
                              sim::RunPhases::saturationProbe(),
                              0.12));
                    return m;
                };
                runs.push_back(std::move(run));
            }
        }
        return runs;
    };
    return spec;
}

ExperimentSpec
reconfigRepairSpec()
{
    ExperimentSpec spec;
    spec.name = "ablation_reconfig_repair";
    spec.artefact = "Sec III-C";
    spec.title = "repair-wire inventory while scaling the network "
                 "down";
    spec.plan = [](const PlanContext &ctx) {
        const std::size_t n =
            ctx.effort == Effort::Quick ? 128 : 256;
        const int samples =
            ctx.effort == Effort::Full ? 40000 : 15000;
        std::vector<RunSpec> runs;
        for (const double fraction : {0.1, 0.25, 0.4}) {
            for (const auto mode :
                 {core::RepairMode::AllSpaces,
                  core::RepairMode::ShortcutsOnly}) {
                RunSpec run;
                const char *mname =
                    mode == core::RepairMode::AllSpaces
                        ? "all-spaces"
                        : "shortcuts";
                run.id = fmt("down%.0f%%/%s", 100.0 * fraction,
                             mname);
                run.params.set("gate_fraction", fraction);
                run.params.set("repair_mode", mname);
                run.params.set("nodes", n);
                run.body = [n, fraction, mode,
                            samples](const RunContext &rc)
                    -> Json {
                    core::SFParams params;
                    params.numNodes = n;
                    params.routerPorts = 8;
                    params.seed = rc.baseSeed;
                    params.repairMode = mode;
                    core::StringFigure topo(params);
                    Rng gate_rng(rc.seed);
                    topo.reduceTo(
                        static_cast<std::size_t>(
                            n * (1.0 - fraction)),
                        gate_rng);
                    Rng probe_rng(rc.seed ^ 0x9E3779B9ULL);
                    const auto probe = net::probeRoutedHops(
                        topo, probe_rng, samples);
                    Json m = Json::object();
                    m.set("target",
                          static_cast<std::int64_t>(
                              n * (1.0 - fraction)));
                    m.set("live", topo.reconfig().numAlive());
                    m.set("holes",
                          topo.reconfig().currentHoles());
                    m.set("routed_avg", probe.avgHops);
                    m.set("escape_hops", topo.fallbackCount());
                    m.set("delivered_pct", probe.deliveredPct);
                    return m;
                };
                runs.push_back(std::move(run));
            }
        }
        return runs;
    };
    return spec;
}

ExperimentSpec
reconfigEnvelopeSpec()
{
    ExperimentSpec spec;
    spec.name = "ablation_reconfig_envelope";
    spec.artefact = "Sec III-C";
    spec.title = "down-scaling envelope of sequential gating "
                 "(all-spaces wires)";
    spec.plan = [](const PlanContext &ctx) {
        std::vector<std::size_t> sizes{128, 256, 1024};
        if (ctx.effort == Effort::Quick)
            sizes = {128, 256};
        std::vector<RunSpec> runs;
        for (const std::size_t size : sizes) {
            RunSpec run;
            run.id = fmt("n%zu", size);
            run.params.set("nodes", size);
            run.params.set("requested_live", 8);
            run.body = [size](const RunContext &rc) -> Json {
                core::SFParams params;
                params.numNodes = size;
                params.routerPorts = 8;
                params.seed = rc.baseSeed;
                core::StringFigure topo(params);
                Rng rng(rc.seed);
                topo.reduceTo(8, rng); // extreme reduction
                const std::size_t live =
                    topo.reconfig().numAlive();
                Json m = Json::object();
                m.set("achieved_live", live);
                m.set("achieved_pct",
                      100.0 * static_cast<double>(live) / size);
                return m;
            };
            runs.push_back(std::move(run));
        }
        return runs;
    };
    return spec;
}

} // namespace

void
registerAblationExperiments(Registry &r)
{
    r.add(adaptiveSpec());
    r.add(balanceSpec());
    r.add(twoHopSpec());
    r.add(coordBitsSpec());
    r.add(unidirSpec());
    r.add(reconfigRepairSpec());
    r.add(reconfigEnvelopeSpec());
}

} // namespace sf::exp
