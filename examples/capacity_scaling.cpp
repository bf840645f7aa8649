/**
 * @file
 * Capacity scaling: grow a server's memory pool one arbitrary step
 * at a time — the scenario that motivates String Figure's
 * "arbitrary network scale" goal. Rigid topologies force node
 * counts (squares, powers of two); String Figure takes any count
 * and keeps path lengths near-logarithmic with fixed-radix routers.
 */

#include <cstdio>

#include "core/string_figure.hpp"
#include "net/paths.hpp"
#include "topos/factory.hpp"
#include "topos/mesh.hpp"

int
main()
{
    using namespace sf;

    std::printf("%-8s %-8s %-12s %-10s %-10s\n", "nodes", "ports",
                "mesh-ok?", "avg-hops", "diameter");
    // A memory upgrade path with deliberately awkward counts:
    // 8 GB per node, so these are 136 GB ... 10.1 TB systems.
    for (const std::size_t n :
         {17u, 43u, 61u, 113u, 200u, 331u, 512u, 777u, 1296u}) {
        const core::SFParams params = topos::defaultSfParams(n, 7);
        const core::StringFigure network(params);
        const auto stats = net::allPairsStats(network.graph());
        const bool mesh_ok =
            topos::MeshTopology::gridShape(n).first != 0;
        std::printf("%-8zu %-8d %-12s %-10.2f %-10u\n", n,
                    params.routerPorts, mesh_ok ? "yes" : "NO",
                    stats.average, stats.diameter);
    }
    std::printf("\nEvery configuration built with full router-port "
                "budgets;\nmesh baselines reject the counts marked "
                "NO outright.\n");
    return 0;
}
