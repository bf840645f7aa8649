/**
 * @file
 * Tests for the up*-down* escape routing tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/string_figure.hpp"
#include "net/graph.hpp"
#include "net/paths.hpp"
#include "net/rng.hpp"
#include "net/updown.hpp"
#include "topos/factory.hpp"

namespace {

using namespace sf;
using namespace sf::net;

/** Follow escape next-hops from src to dst; -1 on failure. */
int
walk(const Graph &g, const UpDownRouting &ud, NodeId src, NodeId dst)
{
    NodeId at = src;
    bool up_allowed = true;
    for (int hops = 0; hops < 4 * static_cast<int>(g.numNodes());
         ++hops) {
        if (at == dst)
            return hops;
        const LinkId next = ud.nextLink(at, dst, up_allowed);
        if (next == kInvalidLink)
            return -1;
        if (!ud.isUp(next))
            up_allowed = false;
        else if (!up_allowed)
            return -2;  // illegal up after down
        at = g.link(next).dst;
    }
    return -1;
}

Graph
bidirMesh(int rows, int cols)
{
    Graph g(static_cast<std::size_t>(rows) * cols);
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            const NodeId u = static_cast<NodeId>(r * cols + c);
            if (c + 1 < cols)
                g.addBidirectional(u, u + 1);
            if (r + 1 < rows)
                g.addBidirectional(u, u + cols);
        }
    }
    return g;
}

TEST(UpDown, AllPairsLegalRoutesOnMesh)
{
    const Graph g = bidirMesh(5, 5);
    const UpDownRouting ud(g);
    for (NodeId s = 0; s < 25; ++s) {
        for (NodeId t = 0; t < 25; ++t) {
            if (s == t)
                continue;
            EXPECT_GT(walk(g, ud, s, t), 0) << s << "->" << t;
        }
    }
}

TEST(UpDown, RespectsAliveMask)
{
    const Graph g = bidirMesh(3, 3);
    std::vector<bool> alive(9, true);
    alive[4] = false;  // gate the centre
    const UpDownRouting ud(g, alive);
    for (NodeId s = 0; s < 9; ++s) {
        for (NodeId t = 0; t < 9; ++t) {
            if (s == t || s == 4 || t == 4)
                continue;
            const int hops = walk(g, ud, s, t);
            EXPECT_GT(hops, 0) << s << "->" << t;
        }
    }
    EXPECT_FALSE(ud.reachable(0, 4));
}

TEST(UpDown, UpLinksAscendTowardRoot)
{
    const Graph g = bidirMesh(4, 4);
    const UpDownRouting ud(g);
    // Each bidirectional wire: exactly one direction is "up".
    for (LinkId id = 0; id < static_cast<LinkId>(g.numLinks());
         id += 2) {
        EXPECT_NE(ud.isUp(id), ud.isUp(id + 1));
    }
}

TEST(UpDown, DirectedRingHasLimitedEscape)
{
    // Pure clockwise ring: up*-down* cannot cover all pairs (this
    // is why String Figure uses the dateline ring escape instead).
    Graph g(6);
    for (NodeId u = 0; u < 6; ++u)
        g.addLink(u, (u + 1) % 6);
    const UpDownRouting ud(g);
    int unreachable = 0;
    for (NodeId s = 0; s < 6; ++s) {
        for (NodeId t = 0; t < 6; ++t) {
            if (s != t && walk(g, ud, s, t) < 0)
                ++unreachable;
        }
    }
    EXPECT_GT(unreachable, 0);
}

/** The tables as UpDownRouting built them eagerly, every column up
 *  front: isUp per link, then next links per (u, t) while in the up
 *  phase and restricted to the down phase. */
struct EagerUpDown {
    std::vector<bool> isUp;
    std::vector<LinkId> up;
    std::vector<LinkId> down;
};

EagerUpDown
eagerUpDown(const Graph &g, const std::vector<bool> &alive)
{
    constexpr std::uint32_t kInf = 0xffffffffu;
    const std::size_t n = g.numNodes();
    const auto is_alive = [&](NodeId u) {
        return alive.empty() || alive[u];
    };
    Graph undirected(n);
    for (LinkId id = 0; id < static_cast<LinkId>(g.numLinks()); ++id) {
        const Link &l = g.link(id);
        if (l.enabled && is_alive(l.src) && is_alive(l.dst)) {
            undirected.addLink(l.src, l.dst);
            undirected.addLink(l.dst, l.src);
        }
    }
    NodeId root = kInvalidNode;
    for (NodeId u = 0; u < n && root == kInvalidNode; ++u) {
        if (is_alive(u))
            root = u;
    }
    std::vector<std::uint16_t> level(n, kUnreachable);
    if (root != kInvalidNode)
        level = bfsDistances(undirected, root);
    EagerUpDown e;
    e.isUp.assign(g.numLinks(), false);
    for (LinkId id = 0; id < static_cast<LinkId>(g.numLinks()); ++id) {
        const Link &l = g.link(id);
        e.isUp[id] = std::pair(level[l.dst], l.dst) <
                     std::pair(level[l.src], l.src);
    }
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        return std::pair(level[a], a) < std::pair(level[b], b);
    });
    e.up.assign(n * n, kInvalidLink);
    e.down.assign(n * n, kInvalidLink);
    std::vector<std::uint32_t> d_down(n);
    std::vector<std::uint32_t> d_any(n);
    for (NodeId t = 0; t < n; ++t) {
        if (!is_alive(t))
            continue;
        std::fill(d_down.begin(), d_down.end(), kInf);
        d_down[t] = 0;
        std::vector<NodeId> queue{t};
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const NodeId v = queue[head];
            for (LinkId id : g.inLinks(v)) {
                const Link &l = g.link(id);
                if (!l.enabled || e.isUp[id] || !is_alive(l.src))
                    continue;
                if (d_down[l.src] == kInf) {
                    d_down[l.src] = d_down[v] + 1;
                    queue.push_back(l.src);
                }
            }
        }
        for (NodeId u = 0; u < n; ++u) {
            if (d_down[u] == kInf || u == t || !is_alive(u))
                continue;
            for (LinkId id : g.outLinks(u)) {
                const Link &l = g.link(id);
                if (l.enabled && !e.isUp[id] && is_alive(l.dst) &&
                    d_down[l.dst] + 1 == d_down[u]) {
                    e.down[u * n + t] = id;
                    break;
                }
            }
        }
        std::copy(d_down.begin(), d_down.end(), d_any.begin());
        for (NodeId u : order) {
            if (u == t || !is_alive(u))
                continue;
            LinkId best_link = e.down[u * n + t];
            for (LinkId id : g.outLinks(u)) {
                const Link &l = g.link(id);
                if (!l.enabled || !e.isUp[id] || !is_alive(l.dst))
                    continue;
                if (d_any[l.dst] != kInf &&
                    d_any[l.dst] + 1 < d_any[u]) {
                    d_any[u] = d_any[l.dst] + 1;
                    best_link = id;
                }
            }
            e.up[u * n + t] = best_link;
        }
    }
    return e;
}

/** Lazy columns, asked for in random destination order, equal the
 *  eager tables for every (u, t, phase). */
void
expectMatchesEager(const Graph &g, const std::vector<bool> &alive,
                   std::uint64_t seed, const char *what)
{
    const EagerUpDown want = eagerUpDown(g, alive);
    const UpDownRouting ud(g, alive);
    const std::size_t n = g.numNodes();
    for (LinkId id = 0; id < static_cast<LinkId>(g.numLinks()); ++id)
        ASSERT_EQ(ud.isUp(id), want.isUp[id]) << what << " link " << id;
    std::vector<NodeId> dests(n);
    std::iota(dests.begin(), dests.end(), 0u);
    Rng rng(seed);
    rng.shuffle(dests);
    for (const NodeId t : dests) {
        for (NodeId u = 0; u < n; ++u) {
            const LinkId up = u == t ? kInvalidLink : want.up[u * n + t];
            const LinkId down =
                u == t ? kInvalidLink : want.down[u * n + t];
            ASSERT_EQ(ud.nextLink(u, t, true), up)
                << what << " " << u << "->" << t;
            ASSERT_EQ(ud.nextLink(u, t, false), down)
                << what << " " << u << "->" << t;
        }
    }
}

/** Random liveness mask with about @p dead_in_8 / 8 nodes gated. */
std::vector<bool>
randomAlive(std::size_t n, int dead_in_8, Rng &rng)
{
    std::vector<bool> alive(n);
    for (std::size_t u = 0; u < n; ++u)
        alive[u] = rng.below(8) >= static_cast<std::uint64_t>(dead_in_8);
    return alive;
}

TEST(UpDown, LazyColumnsMatchEagerTables)
{
    Rng rng(0x1A2B);
    // Degraded String Figures: planned gating, and unplanned gating
    // that leaves ring holes (ShortcutsOnly repair, forced gates).
    for (const core::RepairMode repair :
         {core::RepairMode::AllSpaces, core::RepairMode::ShortcutsOnly}) {
        for (const core::LinkMode mode :
             {core::LinkMode::Unidirectional,
              core::LinkMode::Bidirectional}) {
            core::SFParams p = topos::defaultSfParams(128, 2019);
            p.linkMode = mode;
            p.repairMode = repair;
            core::StringFigure sf(p);
            sf.reduceTo(100, rng);
            for (int k = 0; k < 6; ++k) {
                const auto u = static_cast<NodeId>(rng.below(128));
                if (sf.nodeAlive(u))
                    sf.gate(u);
            }
            expectMatchesEager(sf.graph(), sf.reconfig().aliveMask(),
                               rng.next(), "SF");
        }
    }
    // Flattened butterflies under random liveness masks.
    for (const auto kind : {topos::TopoKind::FB, topos::TopoKind::AFB}) {
        const auto topo = topos::makeTopology(kind, 256, 7);
        expectMatchesEager(topo->graph(), {}, rng.next(),
                           topos::kindName(kind).c_str());
        expectMatchesEager(topo->graph(),
                           randomAlive(256, 2, rng), rng.next(),
                           topos::kindName(kind).c_str());
    }
    // A mask that gates every node builds no column.
    const Graph g = bidirMesh(3, 3);
    expectMatchesEager(g, std::vector<bool>(9, false), 1, "all gated");
}

} // namespace
