/**
 * @file
 * Factory producing the evaluated network configurations (paper
 * Fig 8): DM, ODM, FB, AFB, S2-ideal, and SF at each node count,
 * with the per-scale router-port policies the paper uses.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/params.hpp"
#include "net/topology.hpp"
#include "net/topology_cache.hpp"

namespace sf::topos {

/** The six evaluated network designs. */
enum class TopoKind { DM, ODM, FB, AFB, S2, SF };

/** All kinds, in the paper's reporting order. */
inline constexpr TopoKind kAllKinds[] = {
    TopoKind::DM,  TopoKind::ODM, TopoKind::FB,
    TopoKind::AFB, TopoKind::S2,  TopoKind::SF,
};

/** Short display name ("DM", "ODM", ...). */
std::string kindName(TopoKind kind);

/**
 * Whether the paper's Fig 8 evaluates @p kind at @p n nodes
 * (meshes need rectangular grids; FB/AFB start at 256; SF/S2 accept
 * any scale).
 */
bool supported(TopoKind kind, std::size_t n);

/**
 * Router ports used by the paper at this scale (Fig 8), or -1 when
 * the paper does not report the configuration. Our construction may
 * realise a different radix for FB/AFB (docs/substitutions.md);
 * benches print both.
 */
int paperRouterPorts(TopoKind kind, std::size_t n);

/** SF/S2 port policy: 4 ports up to 128 nodes, 8 beyond (Fig 8). */
int randomTopologyPorts(std::size_t n);

/**
 * The factory's SF configuration: default knobs at the scale's
 * paper port policy. makeTopology(), the cache key and every
 * default-knob String Figure elsewhere start from it, so a cached
 * SF is value-identical to a fresh build.
 */
core::SFParams defaultSfParams(std::size_t n, std::uint64_t seed);

/**
 * Build a fresh topology instance.
 *
 * Topologies are immutable after construction and returned shared:
 * every analysis/simulation consumer takes `const net::Topology &`,
 * so one instance may be held by many runs at once. Callers that
 * need mutation (gating / reconfiguration) construct a private
 * core::StringFigure directly.
 *
 * @param odm_multiplier Parallel links per edge for ODM; 0 picks the
 *        multiplier that matches String Figure's empirical bisection
 *        bandwidth at this scale (paper Section V), via
 *        matchOdmMultiplier().
 * @throws std::invalid_argument for unsupported (kind, n) pairs.
 */
std::shared_ptr<const net::Topology> makeTopology(
    TopoKind kind, std::size_t n, std::uint64_t seed,
    int odm_multiplier = 0);

/**
 * Shared instance for (kind, n, seed, odm_multiplier) via the
 * process-wide topology cache: repeated requests — e.g. every rate
 * point of a latency sweep, or concurrent runs across scheduler
 * threads — receive the same immutable topology, built once.
 */
std::shared_ptr<const net::Topology> cachedTopology(
    TopoKind kind, std::size_t n, std::uint64_t seed,
    int odm_multiplier = 0);

/**
 * Shared immutable StringFigure for arbitrary construction knobs
 * (the ablation sweeps): every SFParams field participates in the
 * cache key. Callers that will gate/reconfigure must construct a
 * private core::StringFigure instead.
 */
std::shared_ptr<const net::Topology>
cachedTopology(const core::SFParams &params);

/** The process-wide topology cache behind cachedTopology(). */
net::TopologyCache &topologyCache();

/**
 * Parallel-link multiplier that brings a mesh's empirical bisection
 * bandwidth to String Figure's at @p n nodes (>= 1). The String
 * Figure network is built from @p seed, so results are memoized per
 * (n, seed).
 */
int matchOdmMultiplier(std::size_t n, std::uint64_t seed);

} // namespace sf::topos
