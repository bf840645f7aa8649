#include "core/routing_table.hpp"

#include <algorithm>

namespace sf::core {

void
RoutingTable::rebuild(NodeId self, const net::Graph &g)
{
    entries_.clear();

    // One-hop entries: destinations of enabled out-links. A wire can
    // serve several virtual spaces; it still yields one entry.
    std::vector<NodeId> one_hop;
    for (LinkId id : g.outLinks(self)) {
        const net::Link &l = g.link(id);
        if (!l.enabled || l.dst == self)
            continue;
        if (std::find(one_hop.begin(), one_hop.end(), l.dst) !=
            one_hop.end())
            continue;  // parallel wire to the same neighbour
        one_hop.push_back(l.dst);
        entries_.push_back(TableEntry{l.dst, id, 1, true, false});
    }

    // Two-hop entries: the one-hop neighbours' own out-neighbours.
    // Skip self and nodes already present as one-hop entries; keep
    // the first path found for each two-hop neighbour.
    const std::size_t n_one_hop = entries_.size();
    for (std::size_t i = 0; i < n_one_hop; ++i) {
        const TableEntry first = entries_[i];
        const auto via_entry = static_cast<std::uint8_t>(
            std::min<std::size_t>(i, TableEntry::kNoEntry));
        for (LinkId id : g.outLinks(first.node)) {
            const net::Link &l = g.link(id);
            if (!l.enabled || l.dst == self)
                continue;
            const auto known = std::find_if(
                entries_.begin(), entries_.end(),
                [&](const TableEntry &e) { return e.node == l.dst; });
            if (known != entries_.end())
                continue;
            entries_.push_back(TableEntry{l.dst, first.viaLink, 2,
                                          true, false, via_entry});
        }
    }
}

void
RoutingTable::setBlocking(NodeId node, bool value)
{
    for (TableEntry &e : entries_) {
        if (e.node == node)
            e.blocking = value;
    }
}

void
RoutingTables::rebuildAll(const net::Graph &g)
{
    tables_.assign(g.numNodes(), RoutingTable{});
    maxEntries_ = 0;
    for (NodeId u = 0; u < g.numNodes(); ++u)
        rebuildNode(u, g);
}

void
RoutingTables::rebuildNode(NodeId u, const net::Graph &g)
{
    tables_[u].rebuild(u, g);
    maxEntries_ = std::max(maxEntries_, tables_[u].size());
}

} // namespace sf::core
