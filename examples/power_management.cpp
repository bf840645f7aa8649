/**
 * @file
 * Power management: run an in-memory workload on a memory network
 * shrunk by power gating before the run, then report throughput,
 * energy, and EDP against the full-scale run — the paper's Fig 9(b)
 * scenario at example scale.
 */

#include <cstdio>

#include "core/string_figure.hpp"
#include "workloads/generators.hpp"
#include "workloads/replay.hpp"

int
main()
{
    using namespace sf;

    std::printf("generating memcached trace (20k DRAM ops)...\n");
    const wl::Trace trace =
        wl::generateTrace(wl::Workload::Memcached, 11, 20000);
    std::printf("  represents %llu instructions, L1 hit %.1f%%, "
                "L3 hit %.1f%%\n\n",
                static_cast<unsigned long long>(
                    trace.totalInstructions),
                100.0 * trace.l1HitRate, 100.0 * trace.l3HitRate);

    sim::SimConfig sim_cfg;
    wl::ReplayConfig cfg;

    std::printf("%-12s %-10s %-10s %-12s %-12s %-10s\n", "live",
                "cycles", "ipc", "energy(uJ)", "edp(nJ*s)",
                "reconfigs");
    double base_edp = 0.0;
    for (const std::size_t live : {128u, 112u, 96u, 80u}) {
        core::SFParams params;
        params.numNodes = 128;
        params.routerPorts = 4;
        params.seed = 11;
        core::StringFigure network(params);
        const std::size_t target = live == 128 ? 0 : live;
        const auto r = wl::replayTrace(trace, network, sim_cfg,
                                       cfg, target);
        if (base_edp == 0.0)
            base_edp = r.edpJouleSeconds;
        std::printf("%-12zu %-10llu %-10.4f %-12.2f %-12.3f %zu "
                    "gated\n",
                    live,
                    static_cast<unsigned long long>(
                        r.runtimeCycles),
                    r.ipc, r.totalPj * 1e-6,
                    r.edpJouleSeconds * 1e9,
                    128 - network.reconfig().numAlive());
    }
    std::printf("\nGating trades a little runtime for background-"
                "energy savings;\nsee `sfx run fig09b_power_gating_edp`"
                " for the paper-scale sweep.\n");
    return 0;
}
