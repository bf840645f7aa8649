/**
 * @file
 * Real-workload replay experiments: Fig 12 (throughput and dynamic
 * memory energy across designs) and Fig 9(b) (EDP under power
 * gating). Runs report raw per-cell metrics (IPC, picojoules, EDP);
 * the paper's normalisations (vs DM, vs AFB, vs 0% gated) are
 * ratios any report consumer can form — keeping cells independent
 * is what lets them all run in parallel.
 */

#include <vector>

#include "core/string_figure.hpp"
#include "exp/experiments/builtin.hpp"
#include "exp/experiments/common.hpp"
#include "exp/registry.hpp"
#include "topos/factory.hpp"
#include "workloads/generators.hpp"
#include "workloads/replay.hpp"

namespace sf::exp {

namespace {

std::size_t
traceOps(Effort effort)
{
    return pick<std::size_t>(effort, 10000, 30000, 100000);
}

ExperimentSpec
fig12Spec()
{
    ExperimentSpec spec;
    spec.name = "fig12_workloads";
    spec.artefact = "Fig 12";
    spec.title = "workload throughput and dynamic energy across "
                 "designs (raw IPC / pJ per cell)";
    spec.plan = [](const PlanContext &ctx) {
        const std::size_t n =
            ctx.effort == Effort::Full ? 1024 : 256;
        const std::size_t ops = traceOps(ctx.effort);
        const std::vector<topos::TopoKind> kinds{
            topos::TopoKind::DM, topos::TopoKind::ODM,
            topos::TopoKind::AFB, topos::TopoKind::S2,
            topos::TopoKind::SF};
        std::vector<RunSpec> runs;
        for (const wl::Workload w : wl::kAllWorkloads) {
            for (const auto kind : kinds) {
                RunSpec run;
                const std::string wname = wl::workloadName(w);
                const std::string kname = topos::kindName(kind);
                run.id = fmt("%s/%s", wname.c_str(),
                             kname.c_str());
                run.params.set("workload", wname);
                run.params.set("design", kname);
                run.params.set("nodes", n);
                run.params.set("trace_ops", ops);
                run.body = [w, kind, n,
                            ops](const RunContext &rc) -> Json {
                    // Memoised: all five designs replay the
                    // identical trace, and every workload of one
                    // design replays over one shared topology
                    // (replay never mutates it).
                    const auto trace =
                        wl::sharedTrace(w, rc.baseSeed, ops);
                    const auto topo = topos::cachedTopology(
                        kind, n, rc.baseSeed);
                    const sim::SimConfig sim_cfg =
                        simConfigFor(rc);
                    wl::ReplayConfig cfg;
                    const auto r = wl::replayTrace(
                        *trace, *topo, sim_cfg, cfg);
                    Json m = Json::object();
                    m.set("ipc", r.ipc);
                    m.set("network_pj", r.networkPj);
                    m.set("dram_pj", r.dramPj);
                    m.set("dynamic_pj",
                          r.networkPj + r.dramPj);
                    m.set("avg_hops", r.avgHops);
                    m.set("avg_op_latency", r.avgOpLatency);
                    m.set("finished", r.finished);
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
fig09bSpec()
{
    ExperimentSpec spec;
    spec.name = "fig09b_power_gating_edp";
    spec.artefact = "Fig 9(b)";
    spec.title = "EDP vs fraction of memory nodes power-gated "
                 "(SF; raw joule-seconds per cell)";
    spec.plan = [](const PlanContext &ctx) {
        const std::size_t n =
            ctx.effort == Effort::Full ? 1296 : 324;
        const std::size_t ops = traceOps(ctx.effort);
        const std::vector<double> gate_fractions{0.0, 0.1, 0.2,
                                                 0.3};
        std::vector<wl::Workload> workloads(
            wl::kAllWorkloads.begin(), wl::kAllWorkloads.end());
        if (ctx.effort == Effort::Quick)
            workloads = {wl::Workload::SparkGrep,
                         wl::Workload::Redis,
                         wl::Workload::MatMul};
        std::vector<RunSpec> runs;
        // The savable component is background (SerDes/clock)
        // energy; 0 pJ isolates the pure Table I constants.
        for (const double idle_pj : {10.0, 0.0}) {
            for (const wl::Workload w : workloads) {
                for (const double f : gate_fractions) {
                    RunSpec run;
                    const std::string wname =
                        wl::workloadName(w);
                    run.id = fmt("idle%.0f/%s/gate%.0f%%",
                                 idle_pj, wname.c_str(),
                                 100.0 * f);
                    run.params.set("idle_pj_per_node_cycle",
                                   idle_pj);
                    run.params.set("workload", wname);
                    run.params.set("gate_fraction", f);
                    run.params.set("nodes", n);
                    run.params.set("trace_ops", ops);
                    run.body = [idle_pj, w, f, n,
                                ops](const RunContext &rc)
                        -> Json {
                        const auto trace = wl::sharedTrace(
                            w, rc.baseSeed, ops);
                        core::SFParams params;
                        params.numNodes = n;
                        params.routerPorts = 8;
                        params.seed = rc.baseSeed;
                        // Private instance: gating mutates the
                        // topology, so it must not come from the
                        // shared cache.
                        core::StringFigure topo(params);
                        const sim::SimConfig sim_cfg =
                            simConfigFor(rc);
                        wl::ReplayConfig cfg;
                        cfg.energy.idlePjPerNodeCycle = idle_pj;
                        const std::size_t target =
                            f == 0.0
                                ? 0
                                : static_cast<std::size_t>(
                                      n * (1.0 - f));
                        const auto r = wl::replayTrace(
                            *trace, topo, sim_cfg, cfg, target);
                        Json m = Json::object();
                        m.set("edp_joule_seconds",
                              r.edpJouleSeconds);
                        m.set("total_pj", r.totalPj);
                        m.set("runtime_cycles",
                              static_cast<std::int64_t>(
                                  r.runtimeCycles));
                        m.set("live_nodes",
                              topo.reconfig().numAlive());
                        m.set("avg_hops", r.avgHops);
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

} // namespace

void
registerWorkloadExperiments(Registry &r)
{
    r.add(fig12Spec());
    r.add(fig09bSpec());
}

} // namespace sf::exp
