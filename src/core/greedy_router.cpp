#include "core/greedy_router.hpp"

#include <algorithm>
#include <cassert>

namespace sf::core {

namespace {

/** MD between coordinate rows @p cu and @p ct (one Coord per space;
 *  the same count in both). */
Coord
rowDistance(const std::vector<Coord> &cu, const Coord *ct,
            bool directed)
{
    Coord best = 2.0;
    for (std::size_t s = 0; s < cu.size(); ++s) {
        const Coord d = directed ? clockwiseDistance(cu[s], ct[s])
                                 : circularDistance(cu[s], ct[s]);
        best = std::min(best, d);
    }
    return best;
}

} // namespace

Coord
GreedyRouter::distance(NodeId u, NodeId t) const
{
    return rowDistance(data_->spaces.coords(u),
                       data_->spaces.coords(t).data(),
                       data_->params.linkMode ==
                           LinkMode::Unidirectional);
}

std::size_t
GreedyRouter::candidates(NodeId current, NodeId dest, bool widen,
                         std::span<LinkId> out) const
{
    // At the destination md_here is 0 and no entry can improve on
    // it, so the result is 0 candidates (Topology::routeCandidates).
    if (out.empty())
        return 0;
    const std::vector<TableEntry> &entries =
        tables_->table(current).entries();
    const VirtualSpaces &vs = data_->spaces;
    const bool directed =
        data_->params.linkMode == LinkMode::Unidirectional;
    // One row fetch for the destination, not one per entry.
    const Coord *ct = vs.coords(dest).data();
    const auto md_to_dest = [&](NodeId u) {
        return rowDistance(vs.coords(u), ct, directed);
    };
    const Coord md_here = md_to_dest(current);

    // Plans per first-hop link: the best MD reachable within the
    // table horizon through that link. A plan qualifies when its
    // target strictly improves on this node's MD — either the
    // one-hop neighbour itself (classic greediest) or a two-hop
    // entry reached through it (lookahead). Forwarding along plans
    // terminates: the plan value never increases across a hop, and
    // the directed/symmetric ring lemma guarantees every non-
    // destination node has a strictly improving successor, so the
    // value strictly decreases at least every second hop (formal
    // argument in docs/greedy_routing.md).
    struct Ranked {
        LinkId via;
        NodeId node;      ///< first-hop neighbour
        Coord oneHopMd;
        Coord planValue;  ///< best MD in this plan
        bool qualifies;   ///< some target strictly improves
    };
    // One plan per one-hop entry: fixed stack arrays keep the
    // per-hop fast path allocation-free. planOf maps a one-hop
    // entry's table index to its plan (kNoPlan: no plan).
    constexpr std::uint8_t kNoPlan = 0xFF;
    static_assert(kMaxPlans < kNoPlan);
    Ranked plans[kMaxPlans];
    std::uint8_t planOf[kMaxPlans];
    std::fill(std::begin(planOf), std::end(planOf), kNoPlan);
    std::size_t num_plans = 0;
    std::size_t i = 0;
    for (; i < entries.size() && entries[i].hops == 1; ++i) {
        const TableEntry &e = entries[i];
        if (!e.usable())
            continue;
        if (e.node == dest) {
            // Direct delivery always wins outright.
            out[0] = e.viaLink;
            return 1;
        }
        assert(i < kMaxPlans);
        if (i >= kMaxPlans)
            continue;
        const Coord md = md_to_dest(e.node);
        planOf[i] = static_cast<std::uint8_t>(num_plans);
        plans[num_plans++] =
            Ranked{e.viaLink, e.node, md, md, md < md_here};
    }

    // Two-hop lookahead: fold each two-hop entry into the plan of
    // the one-hop entry it is reached through. (Nothing to fold
    // into when no one-hop plan exists, so the distance
    // evaluations are skipped.)
    if (data_->params.twoHopTable && num_plans > 0) {
        for (; i < entries.size(); ++i) {
            const TableEntry &e = entries[i];
            if (!e.usable() || e.viaEntry >= kMaxPlans)
                continue;
            const std::uint8_t p = planOf[e.viaEntry];
            if (p == kNoPlan)
                continue;
            const Coord md = md_to_dest(e.node);
            Ranked &plan = plans[p];
            plan.planValue = std::min(plan.planValue, md);
            plan.qualifies |= md < md_here;
        }
    }

    // (planValue, oneHopMd, node) is a strict total order: node ids
    // of one-hop entries are distinct.
    const auto better = [](const Ranked &a, const Ranked &b) {
        if (a.planValue != b.planValue)
            return a.planValue < b.planValue;
        if (a.oneHopMd != b.oneHopMd)
            return a.oneHopMd < b.oneHopMd;
        return a.node < b.node;  // deterministic ties
    };

    if (!widen || out.size() == 1) {
        // One candidate: the minimum is exactly the head of the
        // sorted list the widened path builds.
        const Ranked *best = nullptr;
        for (std::size_t k = 0; k < num_plans; ++k) {
            if (plans[k].qualifies &&
                (best == nullptr || better(plans[k], *best)))
                best = &plans[k];
        }
        if (best == nullptr)
            return 0;
        out[0] = best->via;
        return 1;
    }

    num_plans = static_cast<std::size_t>(
        std::remove_if(plans, plans + num_plans,
                       [](const Ranked &p) {
                           return !p.qualifies;
                       }) -
        plans);
    std::sort(plans, plans + num_plans, better);
    const std::size_t count = std::min(num_plans, out.size());
    for (std::size_t k = 0; k < count; ++k)
        out[k] = plans[k].via;
    return count;
}

} // namespace sf::core
