#include "core/reconfig.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace sf::core {

namespace {

/** Canonical link id of a wire (collapses bidirectional pairs). */
LinkId
canonicalId(const net::Graph &g, LinkId id)
{
    const LinkId pair = g.link(id).pairId;
    return (pair != kInvalidLink && pair < id) ? pair : id;
}

} // namespace

LiveRings::LiveRings(const SFTopologyData &data) : data_(&data)
{
    const std::size_t n = data.params.numNodes;
    const int spaces = data.spaces.numSpaces();
    alive_.assign(n, true);
    numAlive_ = n;
    next_.assign(spaces, std::vector<NodeId>(n));
    prev_.assign(spaces, std::vector<NodeId>(n));
    for (int s = 0; s < spaces; ++s) {
        const auto &ring = data.spaces.ring(s);
        for (std::size_t i = 0; i < n; ++i) {
            next_[s][ring[i]] = ring[(i + 1) % n];
            prev_[s][ring[(i + 1) % n]] = ring[i];
        }
    }
}

bool
LiveRings::canGate(NodeId u) const
{
    if (!alive_[u] || numAlive_ <= 2)
        return false;
    const bool bidir =
        data_->params.linkMode == LinkMode::Bidirectional;
    for (std::size_t s = 0; s < next_.size(); ++s) {
        const NodeId a = prev_[s][u];
        const NodeId b = next_[s][u];
        if (a == u || a == b)
            continue;  // degenerate tiny ring
        if (data_->wireExists(a, b))
            continue;
        if (bidir && data_->wireExists(b, a))
            continue;
        return false;  // no fabricated wire spans the hole
    }
    return true;
}

void
LiveRings::remove(NodeId u)
{
    assert(alive_[u]);
    for (std::size_t s = 0; s < next_.size(); ++s) {
        const NodeId a = prev_[s][u];
        const NodeId b = next_[s][u];
        next_[s][a] = b;
        prev_[s][b] = a;
    }
    alive_[u] = false;
    --numAlive_;
}

void
LiveRings::insert(NodeId u)
{
    assert(!alive_[u]);
    alive_[u] = true;
    ++numAlive_;
    for (int s = 0; s < numSpaces(); ++s) {
        if (numAlive_ == 1) {
            next_[s][u] = u;
            prev_[s][u] = u;
            continue;
        }
        NodeId a = u;
        for (std::size_t k = 1;; ++k) {
            a = data_->spaces.ringBehind(u, s, k);
            if (alive_[a])
                break;
        }
        const NodeId b = next_[s][a];
        next_[s][a] = u;
        prev_[s][u] = a;
        next_[s][u] = b;
        prev_[s][b] = u;
    }
}

ReconfigEngine::ReconfigEngine(SFTopologyData &data,
                               RoutingTables &tables)
    : data_(&data), tables_(&tables), rings_(data),
      nodeMark_(data.params.numNodes, 0),
      wireMark_(data.graph.numLinks(), 0)
{
    if (tables_->numNodes() != data_->params.numNodes)
        tables_->rebuildAll(data_->graph);
}

bool
ReconfigEngine::bidir() const
{
    return data_->params.linkMode == LinkMode::Bidirectional;
}

bool
ReconfigEngine::wireEnabled(LinkId id) const
{
    return data_->graph.link(id).enabled;
}

bool
ReconfigEngine::ringUse(NodeId a, NodeId b) const
{
    for (int s = 0; s < rings_.numSpaces(); ++s) {
        if (rings_.next(s, a) == b)
            return true;
    }
    return false;
}

bool
ReconfigEngine::wireDesired(LinkId id) const
{
    const net::Link &l = data_->graph.link(id);
    if (!rings_.alive(l.src) || !rings_.alive(l.dst) ||
        l.src == l.dst)
        return false;
    if (ringUse(l.src, l.dst))
        return true;
    if (bidir() && ringUse(l.dst, l.src))
        return true;
    if (l.kind == net::LinkKind::Pairing)
        return true;
    if (l.kind == net::LinkKind::Shortcut) {
        // Shortcuts activated at build time for throughput come back
        // whenever both endpoints are live and ports allow.
        const auto &tp = data_->throughputShortcuts;
        const LinkId canon = canonicalId(data_->graph, id);
        if (std::find(tp.begin(), tp.end(), canon) != tp.end())
            return true;
    }
    return false;
}

void
ReconfigEngine::enableWire(LinkId id)
{
    const net::Link &l = data_->graph.link(id);
    assert(!l.enabled);
    data_->graph.setWireEnabled(id, true);
    ++data_->portsUsed[l.src];
    ++data_->portsUsed[l.dst];
    flipped_.push_back(id);
    if (l.pairId != kInvalidLink)
        flipped_.push_back(l.pairId);
}

void
ReconfigEngine::disableWire(LinkId id)
{
    const net::Link &l = data_->graph.link(id);
    assert(l.enabled);
    data_->graph.setWireEnabled(id, false);
    --data_->portsUsed[l.src];
    --data_->portsUsed[l.dst];
    flipped_.push_back(id);
    if (l.pairId != kInvalidLink)
        flipped_.push_back(l.pairId);
}

bool
ReconfigEngine::freePortAt(NodeId x, bool dry_run)
{
    const int budget = data_->portBudget();
    if (data_->portsUsed[x] < budget)
        return true;
    // The topology switch can re-target a port: drop an enabled
    // non-ring wire (pairing or throughput shortcut) whose loss
    // costs path diversity but never ring connectivity.
    const net::Graph &g = data_->graph;
    const auto try_links = [&](const std::vector<LinkId> &ids)
        -> LinkId {
        for (LinkId id : ids) {
            const net::Link &l = g.link(id);
            if (!l.enabled)
                continue;
            if (l.kind != net::LinkKind::Pairing &&
                l.kind != net::LinkKind::Shortcut)
                continue;
            if (ringUse(l.src, l.dst) ||
                (bidir() && ringUse(l.dst, l.src)))
                continue;  // currently load-bearing for a ring
            return id;
        }
        return kInvalidLink;
    };
    LinkId victim = try_links(g.outLinks(x));
    if (victim == kInvalidLink)
        victim = try_links(g.inLinks(x));
    if (victim == kInvalidLink)
        return false;
    if (!dry_run) {
        disableWire(canonicalId(g, victim));
        ++stats_.portsStolen;
    }
    return true;
}

void
ReconfigEngine::settleWires(const std::vector<LinkId> &candidates,
                            ReconfigResult &result)
{
    // Dedupe to canonical wire handles, first occurrence first.
    std::vector<LinkId> wires;
    for (LinkId id : candidates) {
        const LinkId canon = canonicalId(data_->graph, id);
        if (!wireMark_[canon]) {
            wireMark_[canon] = 1;
            wires.push_back(canon);
        }
    }
    for (LinkId id : wires)
        wireMark_[id] = 0;

    // Pass 1: drop wires that lost their purpose (frees ports).
    for (LinkId id : wires) {
        if (wireEnabled(id) && !wireDesired(id)) {
            disableWire(id);
            ++result.wiresDisabled;
        }
    }

    // Pass 2: bring up desired wires, ring repairs first so that
    // scarce ports go to connectivity before throughput extras.
    std::stable_sort(wires.begin(), wires.end(),
                     [&](LinkId a, LinkId b) {
                         const auto rank = [&](LinkId id) {
                             const net::Link &l =
                                 data_->graph.link(id);
                             const bool ring =
                                 rings_.alive(l.src) &&
                                 rings_.alive(l.dst) &&
                                 (ringUse(l.src, l.dst) ||
                                  (bidir() &&
                                   ringUse(l.dst, l.src)));
                             if (ring)
                                 return 0;
                             return l.kind == net::LinkKind::Pairing
                                        ? 1 : 2;
                         };
                         return rank(a) < rank(b);
                     });
    const int budget = data_->portBudget();
    for (LinkId id : wires) {
        const net::Link &l = data_->graph.link(id);
        if (wireEnabled(id) || !wireDesired(id))
            continue;
        const bool is_ring_repair =
            ringUse(l.src, l.dst) ||
            (bidir() && ringUse(l.dst, l.src));
        if (data_->portsUsed[l.src] >= budget ||
            data_->portsUsed[l.dst] >= budget) {
            // Ring repairs may steal a port from a non-ring wire
            // (the topology switch re-targets the port); throughput
            // extras never do.
            if (!is_ring_repair)
                continue;
            if (!freePortAt(l.src, true) || !freePortAt(l.dst, true))
                continue;  // genuinely starved; stays dormant
            if (!freePortAt(l.src, false) ||
                !freePortAt(l.dst, false))
                continue;
        }
        enableWire(id);
        ++result.wiresEnabled;
        if (l.kind == net::LinkKind::Shortcut ||
            l.kind == net::LinkKind::Repair) {
            ++result.closuresEnabled;
            ++stats_.closuresEnabled;
        }
    }
}

std::vector<LinkId>
ReconfigEngine::incidentWires(const std::vector<NodeId> &nodes) const
{
    const net::Graph &g = data_->graph;
    std::vector<LinkId> wires;
    for (NodeId x : nodes) {
        wires.insert(wires.end(), g.outLinks(x).begin(),
                     g.outLinks(x).end());
        wires.insert(wires.end(), g.inLinks(x).begin(),
                     g.inLinks(x).end());
    }
    return wires;
}

void
ReconfigEngine::blockEntriesFor(NodeId u)
{
    // A table holds an entry for u when u is one of its node's
    // enabled out-neighbours or theirs: walk enabled in-links twice.
    const net::Graph &g = data_->graph;
    std::vector<NodeId> holders;
    const auto add = [&](NodeId x) {
        if (x != u && !nodeMark_[x]) {
            nodeMark_[x] = 1;
            holders.push_back(x);
        }
    };
    for (LinkId id : g.inLinks(u)) {
        if (g.link(id).enabled)
            add(g.link(id).src);
    }
    const std::size_t one_hop = holders.size();
    for (std::size_t i = 0; i < one_hop; ++i) {
        for (LinkId id : g.inLinks(holders[i])) {
            if (g.link(id).enabled)
                add(g.link(id).src);
        }
    }
    for (NodeId x : holders) {
        nodeMark_[x] = 0;
        tables_->table(x).setBlocking(u, true);
        ++stats_.entriesBlocked;
    }
}

void
ReconfigEngine::rebuildChangedTables(ReconfigResult &result)
{
    const net::Graph &g = data_->graph;
    std::vector<NodeId> scope;
    const auto add = [&](NodeId x) {
        if (!nodeMark_[x]) {
            nodeMark_[x] = 1;
            scope.push_back(x);
        }
    };
    for (LinkId id : flipped_)
        add(g.link(id).src);
    const std::size_t sources = scope.size();
    for (std::size_t i = 0; i < sources; ++i) {
        for (LinkId id : g.inLinks(scope[i])) {
            if (g.link(id).enabled)
                add(g.link(id).src);
        }
    }
    flipped_.clear();
    for (NodeId x : scope) {
        nodeMark_[x] = 0;
        tables_->rebuildNode(x, g);
        ++result.tablesRebuilt;
        ++stats_.tableRebuilds;
    }
}

ReconfigResult
ReconfigEngine::gate(NodeId u)
{
    ReconfigResult result;
    if (!rings_.alive(u))
        return result;
    result.applied = true;
    ++stats_.gateOps;
    const net::Graph &g = data_->graph;
    const int spaces = data_->spaces.numSpaces();

    // Nodes whose wires may change state: the victim, its wire
    // partners, and the hole edges of every space.
    std::vector<NodeId> changed{u};
    const auto note_node = [&](NodeId x) {
        if (std::find(changed.begin(), changed.end(), x) ==
            changed.end())
            changed.push_back(x);
    };
    for (LinkId id : g.outLinks(u))
        note_node(g.link(id).dst);
    for (LinkId id : g.inLinks(u))
        note_node(g.link(id).src);

    // Phase 1: block every table entry that refers to the victim.
    blockEntriesFor(u);

    // Phase 2a: unlink the victim from every live ring.
    struct Hole { NodeId a; NodeId b; };
    std::vector<Hole> holes;
    for (int s = 0; s < spaces; ++s) {
        const NodeId a = rings_.prev(s, u);
        const NodeId b = rings_.next(s, u);
        if (a != u && a != b) {
            holes.push_back(Hole{a, b});
            note_node(a);
            note_node(b);
        }
    }
    rings_.remove(u);

    // Phase 2b: drop the victim's wires, raise the spare wires.
    settleWires(incidentWires(changed), result);

    // Count rings this operation left open.
    for (const Hole &h : holes) {
        LinkId id = data_->findWire(h.a, h.b);
        if (bidir() && (id == kInvalidLink || !wireEnabled(id))) {
            const LinkId rev = data_->findWire(h.b, h.a);
            if (rev != kInvalidLink)
                id = rev;
        }
        if (id == kInvalidLink || !wireEnabled(id)) {
            ++result.holes;
            ++stats_.holesCreated;
        }
    }

    // Phases 3 + 4: re-validate (rebuild) every affected table;
    // fresh entries carry cleared blocking bits, which unblocks.
    rebuildChangedTables(result);
    return result;
}

ReconfigResult
ReconfigEngine::ungate(NodeId u)
{
    ReconfigResult result;
    if (rings_.alive(u))
        return result;
    result.applied = true;
    ++stats_.ungateOps;
    const net::Graph &g = data_->graph;
    const int spaces = data_->spaces.numSpaces();

    std::vector<NodeId> changed{u};
    const auto note_node = [&](NodeId x) {
        if (std::find(changed.begin(), changed.end(), x) ==
            changed.end())
            changed.push_back(x);
    };
    for (LinkId id : g.outLinks(u))
        note_node(g.link(id).dst);
    for (LinkId id : g.inLinks(u))
        note_node(g.link(id).src);

    // Re-insert into every live ring between the nearest live
    // static neighbours; the old closure wire (if any) becomes a
    // candidate for removal.
    rings_.insert(u);
    for (int s = 0; s < spaces; ++s) {
        note_node(rings_.prev(s, u));
        note_node(rings_.next(s, u));
    }

    settleWires(incidentWires(changed), result);

    // Holes left around the revived node (wire missing or starved).
    for (int s = 0; s < spaces; ++s) {
        for (const auto &[from, to] :
             {std::pair{rings_.prev(s, u), u},
              std::pair{u, rings_.next(s, u)}}) {
            if (from == to)
                continue;
            LinkId id = data_->findWire(from, to);
            if (bidir() && (id == kInvalidLink || !wireEnabled(id))) {
                const LinkId rev = data_->findWire(to, from);
                if (rev != kInvalidLink)
                    id = rev;
            }
            if (id == kInvalidLink || !wireEnabled(id)) {
                ++result.holes;
                ++stats_.holesCreated;
            }
        }
    }

    rebuildChangedTables(result);
    return result;
}

std::vector<NodeId>
ReconfigEngine::gateRandom(std::size_t target, Rng &rng)
{
    return gateInRandomOrder(rings_, target, rng,
                             [this](NodeId u) { gate(u); });
}

int
ReconfigEngine::currentHoles() const
{
    int holes = 0;
    for (int s = 0; s < rings_.numSpaces(); ++s) {
        for (NodeId a = 0; a < rings_.aliveMask().size(); ++a) {
            if (!rings_.alive(a))
                continue;
            const NodeId b = rings_.next(s, a);
            if (b == a)
                continue;
            LinkId id = data_->findWire(a, b);
            if (id == kInvalidLink || !wireEnabled(id)) {
                if (bidir()) {
                    const LinkId rev = data_->findWire(b, a);
                    if (rev != kInvalidLink && wireEnabled(rev))
                        continue;
                }
                ++holes;
            }
        }
    }
    return holes;
}

std::string
ReconfigEngine::checkInvariants() const
{
    const net::Graph &g = data_->graph;
    std::ostringstream os;

    // Port accounting matches enabled wires; budgets respected.
    std::vector<int> ports(rings_.aliveMask().size(), 0);
    for (LinkId id = 0;
         id < static_cast<LinkId>(g.numLinks()); ++id) {
        const net::Link &l = g.link(id);
        if (!l.enabled || canonicalId(g, id) != id)
            continue;
        ++ports[l.src];
        ++ports[l.dst];
    }
    for (NodeId u = 0; u < rings_.aliveMask().size(); ++u) {
        if (ports[u] != data_->portsUsed[u]) {
            os << "port count mismatch at node " << u << ": "
               << ports[u] << " vs " << data_->portsUsed[u];
            return os.str();
        }
        if (ports[u] > data_->portBudget()) {
            os << "port budget exceeded at node " << u;
            return os.str();
        }
        if (!rings_.alive(u) && ports[u] != 0) {
            os << "gated node " << u << " still has enabled wires";
            return os.str();
        }
    }

    // Every enabled wire serves a purpose.
    for (LinkId id = 0;
         id < static_cast<LinkId>(g.numLinks()); ++id) {
        const net::Link &l = g.link(id);
        if (!l.enabled || canonicalId(g, id) != id)
            continue;
        if (!wireDesired(id) &&
            !(l.pairId != kInvalidLink && wireDesired(l.pairId))) {
            os << "enabled wire " << id << " (" << l.src << "->"
               << l.dst << ") serves no purpose";
            return os.str();
        }
    }

    // Live ring lists are permutations of the live set.
    for (int s = 0; s < rings_.numSpaces(); ++s) {
        NodeId start = kInvalidNode;
        for (NodeId u = 0; u < rings_.aliveMask().size(); ++u) {
            if (rings_.alive(u)) {
                start = u;
                break;
            }
        }
        if (start == kInvalidNode)
            continue;
        std::size_t count = 0;
        NodeId at = start;
        do {
            if (!rings_.alive(at)) {
                os << "dead node " << at << " on live ring " << s;
                return os.str();
            }
            if (rings_.prev(s, rings_.next(s, at)) != at) {
                os << "ring list corrupt at node " << at
                   << " space " << s;
                return os.str();
            }
            at = rings_.next(s, at);
            ++count;
        } while (at != start && count <= rings_.aliveMask().size());
        if (count != rings_.numAlive()) {
            os << "live ring " << s << " visits " << count
               << " nodes, expected " << rings_.numAlive();
            return os.str();
        }
    }
    return {};
}

} // namespace sf::core
