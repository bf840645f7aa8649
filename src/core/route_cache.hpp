/**
 * @file
 * Memoized route plane: per-topology next-hop tables that memoize
 * `Topology::routeCandidates`.
 *
 * Removed from the engine (docs/greedy_routing.md): the simulator
 * no longer constructs one. Kept only because the frozen benchmark
 * (perfbench/sfbench.cpp) constructs one for its core.route.cache_*
 * probe; to be deleted by the next change that may edit perfbench/.
 *
 * `Topology::routeCandidates` is a pure function of the immutable
 * topology. The RouteCache memoizes the virtual call at the
 * simulator's span size (net::kMaxRouteCandidates), so a repeat
 * lookup is one or two array reads returning exactly what the
 * direct call returns — validity rests only on the topology staying
 * immutable.
 *
 * Two independent tables, both lazily filled on first miss:
 *
 *  - the **committed** table (first_hop = false): one byte per
 *    (current, dest) holding an index into
 *    `graph().outLinks(current)`. String Figure commits non-first
 *    hops to the single greediest choice (widen=false in
 *    GreedyRouter), so one link almost always suffices; topologies
 *    that ignore `first_hop` and emit several equal-cost candidates
 *    anyway (mesh parallel wires, table-routed shortest-path sets)
 *    mark the entry *uncacheable* and every lookup falls through to
 *    the direct virtual call — correctness never depends on the
 *    widen semantics of a Topology subclass. n^2 bytes = 1 MB at
 *    n = 1024.
 *
 *  - the **first-hop** table (first_hop = true): count plus up to
 *    kMaxRouteCandidates out-link indices per (source, dest) — the
 *    ranked widened set adaptive injection picks from. Touched only
 *    for pairs that actually inject, 5 bytes each.
 *
 * Rows (one per `current`) are allocated on first touch, so memory
 * tracks the pairs a run actually routes.
 */

#pragma once

#include <memory>
#include <span>
#include <vector>

#include "net/topology.hpp"

namespace sf::core {

/**
 * Memoizes `topo.routeCandidates(current, dest, first_hop, out)`
 * for spans of net::kMaxRouteCandidates entries (the simulator's
 * packet-record size). Valid only while the topology is
 * immutable. Lookups fill rows with plain stores, so an instance
 * must not be shared across threads.
 */
class RouteCache
{
  public:
    explicit RouteCache(const net::Topology &topo);

    /**
     * False when the topology cannot be index-encoded (an
     * out-degree beyond the one-byte sentinel space — far above
     * anything this library builds); callers then keep the direct
     * virtual call.
     */
    bool active() const { return active_; }

    /**
     * Drop-in replacement for Topology::routeCandidates at the
     * simulator's span size: identical links, identical count, from
     * the cache when the pair was seen before. Writes at most
     * min(out.size(), kMaxRouteCandidates) entries.
     */
    std::size_t candidates(NodeId current, NodeId dest,
                           bool first_hop, std::span<LinkId> out);

    /** Committed-table rows allocated so far (tests/bench). */
    std::size_t committedRows() const;
    /** First-hop-table rows allocated so far (tests/bench). */
    std::size_t firstHopRows() const;

  private:
    // Committed-table byte encoding. Values below kNoRoute are
    // indices into graph().outLinks(current).
    static constexpr std::uint8_t kUnfilled = 0xFF;
    static constexpr std::uint8_t kUncacheable = 0xFE;
    static constexpr std::uint8_t kNoRoute = 0xFD;

    /** One first-hop entry: ranked prefix as out-link indices. */
    struct FirstHopEntry {
        std::uint8_t count = kUnfilled;  ///< kUnfilled until seen
        std::uint8_t idx[net::kMaxRouteCandidates] = {};
    };

    std::size_t committedLookup(NodeId current, NodeId dest,
                                std::span<LinkId> out);
    std::size_t firstHopLookup(NodeId current, NodeId dest,
                               std::span<LinkId> out);
    /** Index of @p link in outLinks(@p current), or -1. */
    int outIndexOf(NodeId current, LinkId link) const;

    const net::Topology *topo_;
    std::size_t n_;
    bool active_ = false;
    /** Per-`current` rows of n_ bytes, allocated on first touch. */
    std::vector<std::unique_ptr<std::uint8_t[]>> committed_;
    /** Per-`current` rows of n_ entries, allocated on first touch. */
    std::vector<std::unique_ptr<FirstHopEntry[]>> firstHop_;
};

} // namespace sf::core
