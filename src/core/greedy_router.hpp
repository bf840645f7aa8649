/**
 * @file
 * The greediest routing protocol (paper Section III-B).
 *
 * At node s with a packet for t, consider every usable one-hop table
 * entry w. The progress set W contains the w whose distance to t is
 * strictly smaller than s's own distance; by the ring property of
 * the topology W is non-empty on the full topology (Lemma 1/2), and
 * picking from W makes the distance strictly decrease every hop, so
 * paths are loop-free (Proposition 3). Candidates are ranked by a
 * two-hop lookahead: the best distance reachable through w using the
 * two-hop table entries (paper: "we compute MD with both one- and
 * two-hop neighbor information"). Restricting the choice to W keeps
 * the proof intact; the lookahead only reorders W.
 *
 * The distance is the minimum circular distance MD over all virtual
 * spaces; in unidirectional mode the per-space distance is the
 * clockwise distance (wires only run clockwise), in bidirectional
 * mode the symmetric circular distance.
 *
 * Adaptive routing (paper): only the first hop exposes the whole
 * ranked set W so the source router can pick a lightly loaded port;
 * every later hop commits to the top candidate.
 */

#pragma once

#include <span>

#include "core/routing_table.hpp"
#include "core/topology_builder.hpp"

namespace sf::core {

/** Stateless forwarding-decision engine reading the routing tables. */
class GreedyRouter
{
  public:
    /**
     * Upper bound on first-hop plans: one per one-hop table entry,
     * i.e. per router out-port; one-hop entries at table index
     * kMaxPlans or above get no plan. Far above any configuration
     * this library builds (routerPorts tops out well below 16 even
     * counting repair wires).
     */
    static constexpr std::size_t kMaxPlans = 64;

    GreedyRouter(const SFTopologyData &data,
                 const RoutingTables &tables)
        : data_(&data), tables_(&tables)
    {
    }

    /** MD from node @p u to node @p t under the configured metric. */
    Coord distance(NodeId u, NodeId t) const;

    /**
     * Ranked progress set at @p current for destination @p dest,
     * written into the caller-provided @p out (at most out.size()
     * entries, best first; allocation-free). Zero means no strictly
     * improving neighbour exists: always at @p dest itself, and
     * elsewhere only in degraded reconfiguration states, never on
     * the full topology.
     *
     * @param widen When false, at most one candidate is emitted
     *        (non-adaptive hops commit to the greediest choice).
     * @return Number of link ids written.
     */
    std::size_t candidates(NodeId current, NodeId dest, bool widen,
                           std::span<LinkId> out) const;

  private:
    const SFTopologyData *data_;
    const RoutingTables *tables_;
};

} // namespace sf::core
