/**
 * @file
 * Keyed cache of shared immutable topologies.
 *
 * Experiment sweeps evaluate hundreds of (topology, n, seed, rate)
 * grid cells, and most cells of a sweep route over the *same*
 * generated network. Topologies are immutable once built (the
 * mutating experiments construct private instances and never go
 * through this cache), so one build can serve every concurrent run:
 * the cache stores `std::shared_ptr<const Topology>` under a
 * (kind, nodes, seed, variant) key, with SharedMemo's build-once
 * concurrency contract.
 */

#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>

#include "net/shared_memo.hpp"
#include "net/topology.hpp"

namespace sf::net {

/** Cache key: the complete identity of a generated topology. */
struct TopologyKey {
    /** Design name ("SF", "ODM", ...). */
    std::string kind;
    std::size_t nodes = 0;
    std::uint64_t seed = 0;
    /** Extra construction parameters ("odm=2"); empty if none. */
    std::string variant;

    auto operator<=>(const TopologyKey &other) const = default;
};

/** Thread-safe build-once cache of immutable topologies. */
using TopologyCache =
    SharedMemo<TopologyKey, std::shared_ptr<const Topology>>;

} // namespace sf::net
