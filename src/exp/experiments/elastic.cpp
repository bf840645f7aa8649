/**
 * @file
 * elastic_serving: the paper's elasticity claim (Section III-C) as
 * a serving-system measurement. Each cell drives sim::runElastic —
 * open-loop traffic at a fixed nominal rate while a seeded
 * sim::ReconfigSchedule gates/ungates nodes mid-run — and reports
 * the degradation window per reconfiguration wave: pre-event
 * baseline p99, worst window p99 (the blip), drop and escalation
 * bursts, and cycles-to-reconverge. The grid is design x pattern x
 * schedule severity x rate; String Figure is the one reconfigurable
 * design, so the design axis filters to it.
 *
 * Every metric is a pure function of the simulated event stream:
 * reports are byte-identical across --jobs (the golden matrix in
 * tests/test_elastic.cpp pins exactly that).
 *
 * Runs build PRIVATE StringFigure instances (never the process-wide
 * topology cache): gating mutates the topology in place, and a
 * shared instance would leak one run's liveness into another.
 */

#include <string>
#include <vector>

#include "core/string_figure.hpp"
#include "exp/experiments/builtin.hpp"
#include "exp/experiments/common.hpp"
#include "exp/registry.hpp"
#include "sim/reconfig_schedule.hpp"
#include "sim/simulator.hpp"
#include "topos/factory.hpp"

namespace sf::exp {

namespace {

/**
 * Metrics of one elastic run, in reporting order: the open-loop
 * tail cut, the elasticity aggregates, then per-wave degradation
 * windows. Suffix conventions are load-bearing for `sfx diff`:
 * `*_p99` hits the percentile exact-compare rule, and `*_blip`,
 * `*_burst`, `*_reconverge` hit the reconvergence exact-compare
 * rule — every one of these is deterministic, so any drift is a
 * regression no tolerance should forgive.
 */
void
setElasticMetrics(Json &m, const sim::RunResult &r)
{
    setTailMetrics(m, r);

    std::int64_t gated = 0, ungated = 0, refused = 0, forced = 0;
    std::int64_t holes = 0;
    for (const auto &ev : r.reconfigEvents) {
        gated += ev.gated;
        ungated += ev.ungated;
        refused += ev.refused;
        forced += ev.failForced;
        holes += ev.holes;
    }
    m.set("epochs", r.topologyEpochs);
    m.set("waves", static_cast<std::uint64_t>(
                       r.reconfigEvents.size()));
    m.set("gated", gated);
    m.set("ungated", ungated);
    m.set("refused", refused);
    m.set("fail_forced", forced);
    m.set("holes", holes);
    m.set("drops", r.droppedUnroutable);
    m.set("escalations", r.escapeTransfers);

    for (std::size_t k = 0; k < r.reconfigEvents.size(); ++k) {
        const auto &ev = r.reconfigEvents[k];
        m.set(fmt("ev%zu_at", k),
              static_cast<std::uint64_t>(ev.at));
        m.set(fmt("ev%zu_holes", k),
              static_cast<std::int64_t>(ev.holes));
        m.set(fmt("ev%zu_base_p99", k),
              static_cast<std::int64_t>(ev.baselineP99));
        m.set(fmt("ev%zu_blip", k),
              static_cast<std::int64_t>(ev.blipP99));
        m.set(fmt("ev%zu_drop_burst", k),
              static_cast<std::uint64_t>(ev.dropBurst));
        m.set(fmt("ev%zu_esc_burst", k),
              static_cast<std::uint64_t>(ev.escalationBurst));
        m.set(fmt("ev%zu_reconverge", k),
              static_cast<std::uint64_t>(ev.reconvergeCycles));
        m.set(fmt("ev%zu_reconverged", k), ev.reconverged);
    }
}

ExperimentSpec
elasticServingSpec()
{
    ExperimentSpec spec;
    spec.name = "elastic_serving";
    spec.artefact = "Sec III-C";
    spec.title = "degradation window per live reconfig wave (p99 "
                 "blip, drop/escalation burst, cycles-to-"
                 "reconverge) under open-loop load, per pattern x "
                 "schedule severity";
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
        // Serving rates well under the SF knee (~0.045-0.06): the
        // blip must come from the reconfiguration, not from driving
        // the network into saturation before any node gates.
        const std::vector<double> rates =
            pick<std::vector<double>>(ctx.effort, {0.02},
                                      {0.01, 0.03},
                                      {0.01, 0.02, 0.04});
        const sim::RunPhases phases =
            ctx.effort == Effort::Quick
                ? sim::RunPhases::openLoopQuick()
                : sim::RunPhases::openLoop();
        std::vector<RunSpec> runs;
        for (const std::size_t n : sizes) {
            for (const auto pattern : patterns) {
                for (const auto kind : topos::kAllKinds) {
                    // The design axis filters to reconfigurable
                    // topologies; String Figure is the only one.
                    if (kind != topos::TopoKind::SF ||
                        !topos::supported(kind, n))
                        continue;
                    for (const auto severity :
                         sim::kAllReconfigSeverities) {
                        if (!ctx.reconfigSchedule.empty() &&
                            ctx.reconfigSchedule != severity)
                            continue;
                        for (const double rate : rates) {
                            RunSpec run;
                            const std::string kname =
                                topos::kindName(kind);
                            const std::string sname(severity);
                            run.id = fmt(
                                "n%zu/%s/%s/%s/r%.4f", n,
                                sim::patternName(pattern)
                                    .c_str(),
                                kname.c_str(), sname.c_str(),
                                rate);
                            run.params.set("nodes", n);
                            run.params.set(
                                "pattern",
                                sim::patternName(pattern));
                            run.params.set("design", kname);
                            run.params.set("schedule", sname);
                            run.params.set("rate", rate);
                            run.body = [n, pattern, sname, rate,
                                        phases](
                                           const RunContext &rc)
                                -> Json {
                                core::SFParams params;
                                params.numNodes = n;
                                params.routerPorts =
                                    topos::randomTopologyPorts(n);
                                params.seed = rc.baseSeed;
                                core::StringFigure topo(params);
                                const sim::SimConfig cfg =
                                    simConfigFor(rc);
                                const sim::ArrivalConfig arrivals;
                                const auto schedule =
                                    sim::planReconfigSchedule(
                                        sname, params,
                                        phases.warmup,
                                        phases.measure, rc.seed);
                                const auto r = sim::runElastic(
                                    topo, pattern, arrivals,
                                    rate, schedule, cfg, phases);
                                Json m = Json::object();
                                setElasticMetrics(m, r);
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

} // namespace

void
registerElasticExperiments(Registry &r)
{
    r.add(elasticServingSpec());
}

} // namespace sf::exp
