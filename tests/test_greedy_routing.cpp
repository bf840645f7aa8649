/**
 * @file
 * Tests for the greediest routing protocol: delivery, loop freedom
 * (strict MD decrease), adaptivity, and the lookahead ranking,
 * which must match a straightforward reference bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/string_figure.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"
#include "topos/space_shuffle.hpp"

namespace {

using namespace sf;
using namespace sf::core;

SFParams
makeParams(std::size_t n, int ports, LinkMode mode,
           std::uint64_t seed = 1)
{
    SFParams p;
    p.numNodes = n;
    p.routerPorts = ports;
    p.linkMode = mode;
    p.seed = seed;
    return p;
}

TEST(GreedyRouting, DistanceToSelfIsZero)
{
    StringFigure sf_net(makeParams(32, 4, LinkMode::Unidirectional));
    for (NodeId u = 0; u < 32; ++u)
        EXPECT_DOUBLE_EQ(sf_net.router().distance(u, u), 0.0);
}

TEST(GreedyRouting, AllPairsDeliveryUnidirectional)
{
    StringFigure sf_net(makeParams(61, 4, LinkMode::Unidirectional));
    for (NodeId s = 0; s < 61; ++s) {
        for (NodeId t = 0; t < 61; ++t) {
            if (s == t)
                continue;
            EXPECT_GT(net::routedHops(sf_net, s, t), 0)
                << s << " -> " << t;
        }
    }
    EXPECT_EQ(sf_net.fallbackCount(), 0u);
}

TEST(GreedyRouting, AllPairsDeliveryBidirectional)
{
    StringFigure sf_net(makeParams(61, 4, LinkMode::Bidirectional));
    for (NodeId s = 0; s < 61; ++s) {
        for (NodeId t = 0; t < 61; ++t) {
            if (s == t)
                continue;
            EXPECT_GT(net::routedHops(sf_net, s, t), 0)
                << s << " -> " << t;
        }
    }
    EXPECT_EQ(sf_net.fallbackCount(), 0u);
}

TEST(GreedyRouting, RunningMinMdDecreasesWithinWindow)
{
    // With two-hop plans, MD need not fall on every single hop, but
    // the running minimum must strictly fall within a short window
    // (the plan-value potential argument, docs/greedy_routing.md).
    StringFigure sf_net(makeParams(113, 6, LinkMode::Unidirectional));
    LinkId candidates[16];
    for (NodeId s = 0; s < 113; s += 7) {
        for (NodeId t = 0; t < 113; t += 5) {
            if (s == t)
                continue;
            NodeId at = s;
            double running_min = sf_net.router().distance(at, t);
            int hops = 0;
            int window = 0;
            while (at != t) {
                const auto count = sf_net.routeCandidates(
                    at, t, hops == 0, candidates);
                ASSERT_GT(count, 0u);
                at = sf_net.graph().link(candidates[0]).dst;
                const double md = sf_net.router().distance(at, t);
                ++hops;
                ++window;
                if (md < running_min) {
                    running_min = md;
                    window = 0;
                }
                ASSERT_LE(window, 5)
                    << "no progress window at hop " << hops;
                ASSERT_LT(hops, 500) << "runaway path";
            }
        }
    }
}

TEST(GreedyRouting, EveryCandidatePlanImproves)
{
    // Each candidate link must carry a plan whose target strictly
    // improves on the current node's MD: either the neighbour
    // itself or a two-hop entry routed through it.
    StringFigure sf_net(makeParams(64, 8, LinkMode::Unidirectional));
    LinkId candidates[16];
    for (NodeId s = 0; s < 64; s += 3) {
        for (NodeId t = 0; t < 64; t += 5) {
            if (s == t)
                continue;
            const auto count =
                sf_net.routeCandidates(s, t, true, candidates);
            ASSERT_GT(count, 0u);
            const double md_s = sf_net.router().distance(s, t);
            for (LinkId id :
                 std::span<LinkId>(candidates, count)) {
                const NodeId w = sf_net.graph().link(id).dst;
                double best = sf_net.router().distance(w, t);
                for (const auto &e :
                     sf_net.tables().table(s).entries()) {
                    if (e.viaLink == id && e.hops == 2)
                        best = std::min(
                            best,
                            sf_net.router().distance(e.node, t));
                }
                EXPECT_LT(best, md_s);
            }
        }
    }
}

TEST(GreedyRouting, FirstHopWidensLaterHopsCommit)
{
    StringFigure sf_net(makeParams(128, 8, LinkMode::Unidirectional));
    LinkId first[16];
    LinkId later[16];
    int widened = 0;
    for (NodeId s = 0; s < 128; s += 11) {
        for (NodeId t = 0; t < 128; t += 13) {
            if (s == t)
                continue;
            const auto n_first =
                sf_net.routeCandidates(s, t, true, first);
            const auto n_later =
                sf_net.routeCandidates(s, t, false, later);
            ASSERT_GE(n_first, 1u);
            EXPECT_LE(n_later, 1u);
            if (n_later > 0 && n_first > 0) {
                EXPECT_EQ(first[0], later[0]);
            }
            widened += n_first > 1 ? 1 : 0;
        }
    }
    // Path diversity must actually exist somewhere.
    EXPECT_GT(widened, 0);
}

TEST(GreedyRouting, DirectNeighborWinsOutright)
{
    StringFigure sf_net(makeParams(32, 4, LinkMode::Unidirectional));
    LinkId candidates[16];
    for (NodeId s = 0; s < 32; ++s) {
        for (LinkId id : sf_net.graph().outLinks(s)) {
            if (!sf_net.graph().link(id).enabled)
                continue;
            const NodeId t = sf_net.graph().link(id).dst;
            ASSERT_EQ(
                sf_net.routeCandidates(s, t, true, candidates),
                1u);
            EXPECT_EQ(sf_net.graph().link(candidates[0]).dst, t);
        }
    }
}

TEST(GreedyRouting, TwoHopLookaheadNeverLengthensPaths)
{
    SFParams with = makeParams(100, 6, LinkMode::Unidirectional, 3);
    SFParams without = with;
    without.twoHopTable = false;
    StringFigure a(with);
    StringFigure b(without);
    double hops_with = 0.0;
    double hops_without = 0.0;
    int pairs = 0;
    for (NodeId s = 0; s < 100; s += 3) {
        for (NodeId t = 0; t < 100; t += 7) {
            if (s == t)
                continue;
            hops_with += net::routedHops(a, s, t);
            hops_without += net::routedHops(b, s, t);
            ++pairs;
        }
    }
    EXPECT_LE(hops_with / pairs, hops_without / pairs + 1e-9);
}

TEST(GreedyRouting, VcClassSplitsByCoordinateDirection)
{
    StringFigure sf_net(makeParams(64, 4, LinkMode::Unidirectional));
    EXPECT_EQ(sf_net.numVcClasses(), 2);
    int class0 = 0;
    int class1 = 0;
    for (NodeId s = 0; s < 64; ++s) {
        for (NodeId t = 0; t < 64; ++t) {
            if (s == t)
                continue;
            const int vc = sf_net.vcClass(s, t);
            ASSERT_TRUE(vc == 0 || vc == 1);
            // Antisymmetric: opposite direction uses the other VC.
            EXPECT_NE(vc, sf_net.vcClass(t, s));
            (vc == 0 ? class0 : class1) += 1;
        }
    }
    EXPECT_EQ(class0, class1);
}

TEST(GreedyRouting, QuantizedCoordinatesStillDeliver)
{
    // 7-bit coordinates (the paper's hardware width) on a network
    // small enough that slots stay collision-free.
    SFParams p = makeParams(61, 4, LinkMode::Unidirectional);
    p.coordBits = 7;
    StringFigure sf_net(p);
    int delivered = 0;
    int total = 0;
    for (NodeId s = 0; s < 61; ++s) {
        for (NodeId t = 0; t < 61; ++t) {
            if (s == t)
                continue;
            ++total;
            delivered += net::routedHops(sf_net, s, t) > 0 ? 1 : 0;
        }
    }
    EXPECT_EQ(delivered, total);
}

// The greedy decision written the plain way: branchy distance
// forms, a scan of every plan for each two-hop entry's viaLink,
// and remove_if plus a full sort. GreedyRouter computes the same
// ranking with selects, a per-entry plan index and a minimum scan;
// MatchesReferenceRanking pins the two to each other.
namespace reference {

Coord
circular(Coord a, Coord b)
{
    const Coord d = a > b ? a - b : b - a;
    return d <= 0.5 ? d : 1.0 - d;
}

Coord
clockwise(Coord a, Coord b)
{
    const Coord d = b - a;
    return d >= 0.0 ? d : d + 1.0;
}

Coord
distance(const SFTopologyData &data, NodeId u, NodeId t)
{
    const bool directed =
        data.params.linkMode == LinkMode::Unidirectional;
    const std::vector<Coord> &cu = data.spaces.coords(u);
    const std::vector<Coord> &ct = data.spaces.coords(t);
    Coord best = 2.0;
    for (std::size_t s = 0; s < cu.size(); ++s) {
        const Coord d = directed ? clockwise(cu[s], ct[s])
                                 : circular(cu[s], ct[s]);
        if (d < best)
            best = d;
    }
    return best;
}

std::size_t
candidates(const SFTopologyData &data, const RoutingTables &tables,
           NodeId current, NodeId dest, bool widen,
           std::span<LinkId> out)
{
    if (out.empty())
        return 0;
    const RoutingTable &table = tables.table(current);
    const Coord md_here = distance(data, current, dest);
    struct Ranked {
        LinkId via;
        NodeId node;
        Coord oneHopMd;
        Coord planValue;
        bool qualifies;
    };
    Ranked plans[GreedyRouter::kMaxPlans];
    std::size_t num_plans = 0;
    for (const TableEntry &e : table.entries()) {
        if (e.hops != 1 || !e.usable())
            continue;
        if (e.node == dest) {
            out[0] = e.viaLink;
            return 1;
        }
        if (num_plans >= GreedyRouter::kMaxPlans)
            continue;
        const Coord md = distance(data, e.node, dest);
        plans[num_plans++] =
            Ranked{e.viaLink, e.node, md, md, md < md_here};
    }
    if (data.params.twoHopTable && num_plans > 0) {
        for (const TableEntry &e : table.entries()) {
            if (e.hops != 2 || !e.usable())
                continue;
            const Coord md = distance(data, e.node, dest);
            for (std::size_t i = 0; i < num_plans; ++i) {
                Ranked &plan = plans[i];
                if (plan.via != e.viaLink)
                    continue;
                if (md < plan.planValue)
                    plan.planValue = md;
                if (md < md_here)
                    plan.qualifies = true;
            }
        }
    }
    num_plans = static_cast<std::size_t>(
        std::remove_if(plans, plans + num_plans,
                       [](const Ranked &p) { return !p.qualifies; }) -
        plans);
    if (num_plans == 0)
        return 0;
    std::sort(plans, plans + num_plans,
              [](const Ranked &a, const Ranked &b) {
                  if (a.planValue != b.planValue)
                      return a.planValue < b.planValue;
                  if (a.oneHopMd != b.oneHopMd)
                      return a.oneHopMd < b.oneHopMd;
                  return a.node < b.node;
              });
    const std::size_t count =
        std::min(widen ? num_plans : std::size_t{1}, out.size());
    for (std::size_t i = 0; i < count; ++i)
        out[i] = plans[i].via;
    return count;
}

} // namespace reference

/** What one reference comparison saw. */
struct RankingCoverage {
    std::size_t mismatches = 0;
    std::size_t noRoute = 0;   ///< answers with no candidate
    std::size_t widened = 0;   ///< answers with >1 candidate
    std::size_t unusable = 0;  ///< unusable table entries

    void
    add(const RankingCoverage &o)
    {
        mismatches += o.mismatches;
        noRoute += o.noRoute;
        widened += o.widened;
        unusable += o.unusable;
    }
};

/** Compare GreedyRouter over (@p data, @p tables) with the
 *  reference on every (current, dest) pair, widen in {false, true}
 *  and span sizes 1-4, and compare every distance. */
RankingCoverage
compareWithReference(const SFTopologyData &data,
                     const RoutingTables &tables,
                     const std::string &label)
{
    const GreedyRouter router(data, tables);
    RankingCoverage cov;
    const auto n = static_cast<NodeId>(tables.numNodes());
    for (NodeId u = 0; u < n; ++u) {
        for (const TableEntry &e : tables.table(u).entries())
            cov.unusable += e.usable() ? 0 : 1;
    }
    const auto mismatch = [&](const std::string &what) {
        if (cov.mismatches++ < 5) {
            ADD_FAILURE() << label << ": " << what;
        }
    };
    for (NodeId u = 0; u < n; ++u) {
        for (NodeId t = 0; t < n; ++t) {
            if (router.distance(u, t) !=
                reference::distance(data, u, t))
                mismatch("distance " + std::to_string(u) + "->" +
                         std::to_string(t));
            if (u == t)
                continue;
            for (const bool widen : {false, true}) {
                for (std::size_t size = 1; size <= 4; ++size) {
                    LinkId got[4] = {};
                    LinkId want[4] = {};
                    const std::size_t n_got = router.candidates(
                        u, t, widen, std::span<LinkId>(got, size));
                    const std::size_t n_want = reference::candidates(
                        data, tables, u, t, widen,
                        std::span<LinkId>(want, size));
                    cov.noRoute += n_want == 0 ? 1 : 0;
                    cov.widened += n_want > 1 ? 1 : 0;
                    if (n_got != n_want ||
                        !std::equal(got, got + n_want, want))
                        mismatch("candidates " + std::to_string(u) +
                                 "->" + std::to_string(t) +
                                 " widen=" + std::to_string(widen) +
                                 " size=" + std::to_string(size));
                }
            }
        }
    }
    return cov;
}

TEST(GreedyRouting, MatchesReferenceRanking)
{
    // Coarse (4-bit) coordinates make many equal distances and
    // zero-candidate answers, so the tie-break and the no-route
    // path run. reduceTo gates nodes and rebuilds the tables around
    // the holes, but leaves no blocking bit set; the reduced state
    // is therefore also compared with the entries toward every
    // eighth node blocked, as a gate in flight leaves them.
    RankingCoverage total;
    for (const LinkMode mode :
         {LinkMode::Unidirectional, LinkMode::Bidirectional}) {
        for (const int bits : {0, 4}) {
            for (const CoordMode coords :
                 {CoordMode::Balanced, CoordMode::UniformRandom}) {
                for (const bool two_hop : {true, false}) {
                    SFParams p = makeParams(64, 8, mode, 5);
                    p.coordBits = bits;
                    p.coordMode = coords;
                    p.twoHopTable = two_hop;
                    const std::string label =
                        std::string(mode == LinkMode::Unidirectional
                                        ? "uni"
                                        : "bi") +
                        " cb" + std::to_string(bits) +
                        (coords == CoordMode::Balanced ? " balanced"
                                                       : " uniform") +
                        (two_hop ? " 2hop" : " 1hop");
                    StringFigure net(p);
                    total.add(compareWithReference(
                        net.data(), net.tables(), label));
                    Rng rng(11);
                    net.reduceTo(48, rng);
                    total.add(compareWithReference(
                        net.data(), net.tables(), label + " reduced"));
                    RoutingTables blocked = net.tables();
                    for (NodeId u = 0; u < 64; ++u) {
                        for (NodeId victim = 0; victim < 64;
                             victim += 8)
                            blocked.table(u).setBlocking(victim, true);
                    }
                    total.add(compareWithReference(
                        net.data(), blocked, label + " blocked"));
                }
            }
        }
    }
    const topos::SpaceShuffle s2(64, 8, 5);
    total.add(compareWithReference(s2.data(), s2.tables(), "S2"));
    EXPECT_EQ(total.mismatches, 0u);
    EXPECT_GT(total.noRoute, 0u);
    EXPECT_GT(total.widened, 0u);
    EXPECT_GT(total.unusable, 0u);
}

TEST(GreedyRouting, LargeNetworkSampledDelivery)
{
    StringFigure sf_net(makeParams(1296, 8,
                                   LinkMode::Unidirectional));
    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
        const NodeId s = static_cast<NodeId>(rng.below(1296));
        const NodeId t = static_cast<NodeId>(rng.below(1296));
        if (s == t)
            continue;
        const int hops = net::routedHops(sf_net, s, t);
        ASSERT_GT(hops, 0);
        ASSERT_LE(hops, 64) << "path blow-up " << s << "->" << t;
    }
    EXPECT_EQ(sf_net.fallbackCount(), 0u);
}

} // namespace
