/**
 * @file
 * Adversarial traffic: compare String Figure against the mesh
 * baseline under the classic patterns that break grids (tornado,
 * hotspot) — the workloads the paper's introduction motivates for
 * disaggregated memory pools shared by many sockets.
 */

#include <cstdio>
#include <memory>

#include "sim/simulator.hpp"
#include "topos/factory.hpp"

int
main()
{
    using namespace sf;
    using sim::TrafficPattern;

    const std::size_t n = 64;
    sim::SimConfig cfg;
    cfg.seed = 3;
    sim::RunPhases phases;
    phases.warmup = 800;
    phases.measure = 2000;
    phases.drainLimit = 12000;

    std::printf("64-node memory pool, saturation injection rate "
                "(pkt/node/cycle):\n\n");
    std::printf("%-12s", "pattern");
    for (const auto kind : {topos::TopoKind::DM, topos::TopoKind::ODM,
                            topos::TopoKind::S2,
                            topos::TopoKind::SF})
        std::printf(" %-8s", topos::kindName(kind).c_str());
    std::printf("\n");

    for (const auto pattern :
         {TrafficPattern::UniformRandom, TrafficPattern::Tornado,
          TrafficPattern::Hotspot}) {
        std::printf("%-12s", sim::patternName(pattern).c_str());
        for (const auto kind :
             {topos::TopoKind::DM, topos::TopoKind::ODM,
              topos::TopoKind::S2, topos::TopoKind::SF}) {
            // Shared immutable topology: all three patterns probe
            // the same instance, built once by the process-wide
            // cache.
            const auto topo = topos::cachedTopology(kind, n, 3);
            const double sat = sim::findSaturationRate(
                *topo, pattern, cfg, phases, 0.15);
            std::printf(" %-8.3f", sat);
            std::fflush(stdout);
        }
        std::printf("\n");
    }
    std::printf("\nRandom multi-space topologies sustain far higher "
                "loads than meshes\non adversarial patterns; see "
                "`sfx run fig10_saturation` for the full sweep.\n");
    return 0;
}
