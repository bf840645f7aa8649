/**
 * @file
 * Up*-down* escape routing (Autonet-style).
 *
 * The simulator gives every network one escape virtual channel on
 * which packets follow up*-down* routes: links are classified "up"
 * (toward a BFS root) or "down", and a legal route takes zero or
 * more up links followed by zero or more down links. Because the
 * up-phase strictly ascends the tree ordering and the down-phase
 * strictly descends it, the channel dependency graph on the escape
 * VC is acyclic, so packets on it always drain — a topology-agnostic
 * deadlock safety net (Duato's protocol). A packet that waits too
 * long on its normal VC transfers to the escape VC and stays there.
 *
 * This module computes, for a given Graph, the next-hop function of
 * the escape network: nextLink(u, dest) such that following it
 * repeatedly reaches dest along a legal up*-down* path.
 *
 * The tree ordering and link classes are built with the instance
 * (O(nodes + links)). A destination's next-hop column, both phases,
 * is built on the first nextLink query for that destination, and
 * kept: escaping packets head for few destinations, so an instance
 * holds only the columns it is asked for, not an n x n table. The
 * instance copies the enabled links it needs, so later changes to
 * the graph do not reach it; the simulator builds one per
 * NetworkModel and topology epoch. Because nextLink fills columns,
 * one instance must not be queried from several threads at once.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.hpp"

namespace sf::net {

/** Up*-down* next hops over the enabled links of one graph. */
class UpDownRouting
{
  public:
    /**
     * Classify the links of @p g; no column is built yet.
     *
     * @param alive Optional liveness mask: gated nodes are excluded.
     */
    explicit UpDownRouting(const Graph &g,
                           const std::vector<bool> &alive = {});

    /**
     * Next link from @p u toward @p dest (builds @p dest's column on
     * first use; not thread-safe).
     *
     * @param up_phase_allowed False once the packet has taken a down
     *        link; up links are then illegal.
     * @return Link id, or kInvalidLink if unreachable.
     */
    LinkId nextLink(NodeId u, NodeId dest,
                    bool up_phase_allowed) const;

    /** True when the link classifies as "up". */
    bool isUp(LinkId id) const { return isUp_[id]; }

    /** Whether @p dest is reachable from @p u at all. */
    bool
    reachable(NodeId u, NodeId dest) const
    {
        return u == dest ||
               nextLink(u, dest, true) != kInvalidLink;
    }

  private:
    /** Build @p t's column; returns its index into columns_. */
    std::uint32_t buildColumn(NodeId t) const;

    std::size_t n_ = 0;
    std::vector<bool> isUp_;
    /** Nodes in ascending (tree level, id) order. */
    std::vector<NodeId> order_;
    /**
     * Enabled links between live nodes (a gated node has none, so
     * every column reads kInvalidLink there): per node, its out-links
     * (id and head, in Graph::outLinks order) at
     * [outStart_[u], outStart_[u + 1]), and the tails of its
     * incoming down links at [downInStart_[v], downInStart_[v + 1]).
     */
    std::vector<std::uint32_t> outStart_;
    std::vector<LinkId> outLink_;
    std::vector<NodeId> outDst_;
    std::vector<std::uint32_t> downInStart_;
    std::vector<NodeId> downInSrc_;

    /**
     * Per destination, the index of its built column, or kNoColumn.
     * Column c holds 2n link ids at columns_[2nc, 2n(c + 1)): the
     * best next link of every node while still in the up phase,
     * then restricted to the down phase. kInvalidLink = none.
     */
    static constexpr std::uint32_t kNoColumn = 0xffffffffu;
    mutable std::vector<std::uint32_t> column_;
    mutable std::vector<LinkId> columns_;
    /** Column-build scratch. */
    mutable std::vector<std::uint32_t> dDown_;
    mutable std::vector<std::uint32_t> dAny_;
    mutable std::vector<NodeId> queue_;
};

} // namespace sf::net
