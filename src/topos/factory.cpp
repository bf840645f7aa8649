#include "topos/factory.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/string_figure.hpp"
#include "net/bisection.hpp"
#include "topos/flattened_butterfly.hpp"
#include "topos/jellyfish.hpp"
#include "topos/mesh.hpp"
#include "topos/space_shuffle.hpp"

namespace sf::topos {

std::string
kindName(TopoKind kind)
{
    switch (kind) {
      case TopoKind::DM: return "DM";
      case TopoKind::ODM: return "ODM";
      case TopoKind::FB: return "FB";
      case TopoKind::AFB: return "AFB";
      case TopoKind::S2: return "S2";
      case TopoKind::SF: return "SF";
    }
    return "?";
}

bool
supported(TopoKind kind, std::size_t n)
{
    switch (kind) {
      case TopoKind::DM:
      case TopoKind::ODM:
        return MeshTopology::gridShape(n).first != 0;
      case TopoKind::FB:
      case TopoKind::AFB:
        return n >= 256 && MeshTopology::gridShape(n).first != 0;
      case TopoKind::S2:
      case TopoKind::SF:
        return n >= 5;
    }
    return false;
}

int
paperRouterPorts(TopoKind kind, std::size_t n)
{
    switch (kind) {
      case TopoKind::DM:
      case TopoKind::ODM:
        return supported(kind, n) ? 4 : -1;
      case TopoKind::FB: {
        static const std::map<std::size_t, int> ports{
            {256, 20}, {512, 24}, {1024, 31}, {1296, 33}};
        const auto it = ports.find(n);
        return it == ports.end() ? -1 : it->second;
      }
      case TopoKind::AFB: {
        static const std::map<std::size_t, int> ports{
            {256, 13}, {512, 17}, {1024, 23}, {1296, 25}};
        const auto it = ports.find(n);
        return it == ports.end() ? -1 : it->second;
      }
      case TopoKind::S2:
      case TopoKind::SF:
        return randomTopologyPorts(n);
    }
    return -1;
}

int
randomTopologyPorts(std::size_t n)
{
    return n <= 128 ? 4 : 8;
}

namespace {

/** Canonical cache-key encoding of every SF construction knob
 *  except numNodes and seed (those are separate key fields). */
std::string
sfVariant(const core::SFParams &p)
{
    std::string v = "p" + std::to_string(p.routerPorts);
    v += p.linkMode == core::LinkMode::Unidirectional ? ",uni"
                                                      : ",bi";
    v += p.repairMode == core::RepairMode::AllSpaces ? ",as"
                                                     : ",so";
    v += p.coordMode == core::CoordMode::Balanced ? ",bal"
                                                  : ",iid";
    v += p.buildShortcuts ? ",sc1" : ",sc0";
    v += p.twoHopTable ? ",th1" : ",th0";
    v += ",cb" + std::to_string(p.coordBits);
    return v;
}

/** The factory's SF configuration: default knobs at the scale's
 *  paper port policy. Single source for both makeTopology() and
 *  the cache key, so a cached SF is value-identical to a fresh
 *  build. */
core::SFParams
defaultSfParams(std::size_t n, std::uint64_t seed)
{
    core::SFParams params;
    params.numNodes = n;
    params.routerPorts = randomTopologyPorts(n);
    params.seed = seed;
    return params;
}

} // namespace

std::shared_ptr<const net::Topology>
makeTopology(TopoKind kind, std::size_t n, std::uint64_t seed,
             int odm_multiplier)
{
    if (!supported(kind, n)) {
        throw std::invalid_argument(
            kindName(kind) + " does not support " +
            std::to_string(n) + " nodes");
    }
    const auto [rows, cols] = MeshTopology::gridShape(n);
    switch (kind) {
      case TopoKind::DM:
        return std::make_shared<const MeshTopology>(rows, cols, 1);
      case TopoKind::ODM: {
        const int mult = odm_multiplier > 0
                             ? odm_multiplier
                             : matchOdmMultiplier(n, seed);
        return std::make_shared<const MeshTopology>(rows, cols,
                                                    mult);
      }
      case TopoKind::FB:
        return std::make_shared<const FlattenedButterfly>(
            rows, cols, false);
      case TopoKind::AFB:
        return std::make_shared<const FlattenedButterfly>(
            rows, cols, true);
      case TopoKind::S2:
        return std::make_shared<const SpaceShuffle>(
            n, randomTopologyPorts(n), seed);
      case TopoKind::SF:
        return std::make_shared<const core::StringFigure>(
            defaultSfParams(n, seed));
    }
    throw std::invalid_argument("unknown topology kind");
}

net::TopologyCache &
topologyCache()
{
    static net::TopologyCache cache;
    return cache;
}

std::shared_ptr<const net::Topology>
cachedTopology(TopoKind kind, std::size_t n, std::uint64_t seed,
               int odm_multiplier)
{
    // SF shares entries with the SFParams overload: the factory's
    // SF configuration is just the default-knob parameter set.
    if (kind == TopoKind::SF && supported(kind, n))
        return cachedTopology(defaultSfParams(n, seed));
    net::TopologyKey key;
    key.kind = kindName(kind);
    key.nodes = n;
    key.seed = seed;
    if (kind == TopoKind::ODM)
        key.variant = "odm=" + std::to_string(odm_multiplier);
    return topologyCache().getOrBuild(key, [&] {
        return makeTopology(kind, n, seed, odm_multiplier);
    });
}

std::shared_ptr<const net::Topology>
cachedTopology(const core::SFParams &params)
{
    net::TopologyKey key;
    key.kind = "SF";
    key.nodes = params.numNodes;
    key.seed = params.seed;
    key.variant = sfVariant(params);
    return topologyCache().getOrBuild(key, [&params] {
        return std::shared_ptr<const net::Topology>(
            std::make_shared<const core::StringFigure>(params));
    });
}

int
matchOdmMultiplier(std::size_t n, std::uint64_t seed)
{
    // Cache: the max-flow evaluation is not free at 1296 nodes.
    // Keyed by (n, seed) because the String Figure side of the
    // ratio is built from the seed. Guarded — concurrent scheduler
    // threads resolve ODM multipliers too.
    static std::mutex mutex;
    static std::map<std::pair<std::size_t, std::uint64_t>, int> cache;
    const std::lock_guard<std::mutex> lock(mutex);
    const auto key = std::make_pair(n, seed);
    const auto it = cache.find(key);
    if (it != cache.end())
        return it->second;

    core::SFParams params;
    params.numNodes = n;
    params.routerPorts = randomTopologyPorts(n);
    params.seed = seed;
    const core::StringFigure sf_net(params);
    Rng rng_sf(seed * 7 + 1);
    const auto sf_bw =
        net::minBisectionBandwidth(sf_net.graph(), rng_sf, 10);

    const auto [rows, cols] = MeshTopology::gridShape(n);
    const MeshTopology mesh(rows, cols, 1);
    Rng rng_dm(seed * 7 + 2);
    const auto dm_bw =
        net::minBisectionBandwidth(mesh.graph(), rng_dm, 10);

    // A mesh's O(sqrt N) bisection can only match a random graph's
    // O(N) bisection with an O(sqrt N) link multiplier — dozens of
    // parallel wires at 1024 nodes, which no real router carries.
    // Cap the optimisation at 4x (the paper never states ODM's
    // multiplier; see DESIGN.md interpretation notes) and let the
    // bisection bench print the uncapped ratio.
    const int mult = std::max(
        1, static_cast<int>(std::lround(
               static_cast<double>(sf_bw) /
               static_cast<double>(std::max<std::uint64_t>(
                   dm_bw, 1)))));
    return cache[key] = std::min(mult, 4);
}

} // namespace sf::topos
