/**
 * @file
 * Per-router routing tables (paper Fig 6(b)).
 *
 * Each router keeps one entry per one- or two-hop neighbour: the
 * neighbour's node number, the first-hop output link that reaches
 * it, a hop bit (1- vs 2-hop), a valid bit, and a blocking bit used
 * by the atomic reconfiguration protocol. Neighbour coordinates are
 * read from the shared VirtualSpaces (hardware stores them in the
 * entry; the routing decision is identical). The paper bounds the
 * table at p(p+1) entries; tests assert the bound on the basic
 * topology and the high-water mark is reported after
 * reconfiguration, where repair wires can introduce neighbours that
 * were 4 ring hops away.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.hpp"
#include "net/types.hpp"

namespace sf::core {

/** One routing-table row. */
struct TableEntry {
    /** viaEntry of a one-hop entry, or of a two-hop entry whose
     *  one-hop entry sits at a table index too large to encode. */
    static constexpr std::uint8_t kNoEntry = 0xFF;

    NodeId node = kInvalidNode;  ///< The 1-/2-hop neighbour.
    LinkId viaLink = kInvalidLink;  ///< First-hop link toward it.
    std::uint8_t hops = 1;       ///< Hop bit: 1 or 2.
    bool valid = true;
    bool blocking = false;
    /** Two-hop entries: table index of the one-hop entry whose link
     *  is viaLink (fits the struct's padding). */
    std::uint8_t viaEntry = kNoEntry;

    /** Usable for forwarding decisions right now? */
    bool usable() const { return valid && !blocking; }
};
static_assert(sizeof(TableEntry) == 12,
              "viaEntry must fit TableEntry's padding");

/** Routing table of a single router. */
class RoutingTable
{
  public:
    /** Rebuild from the enabled out-links of @p self in @p g. */
    void rebuild(NodeId self, const net::Graph &g);

    /** All entries: every one-hop entry precedes every two-hop
     *  entry. */
    const std::vector<TableEntry> &entries() const { return entries_; }

    /** Set the blocking bit on every entry referring to @p node. */
    void setBlocking(NodeId node, bool value);

    /** Number of entries (valid or not). */
    std::size_t size() const { return entries_.size(); }

  private:
    std::vector<TableEntry> entries_;
};

/** All routers' tables plus bookkeeping. */
class RoutingTables
{
  public:
    RoutingTables() = default;

    /** Build tables for every node of @p g. */
    void rebuildAll(const net::Graph &g);

    /** Rebuild the table of one node after local link changes. */
    void rebuildNode(NodeId u, const net::Graph &g);

    const RoutingTable &table(NodeId u) const { return tables_[u]; }
    RoutingTable &table(NodeId u) { return tables_[u]; }

    std::size_t numNodes() const { return tables_.size(); }

    /** Largest table size ever observed (paper bound: p(p+1)). */
    std::size_t maxEntriesSeen() const { return maxEntries_; }

  private:
    std::vector<RoutingTable> tables_;
    std::size_t maxEntries_ = 0;
};

} // namespace sf::core
