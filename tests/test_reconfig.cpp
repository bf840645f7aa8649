/**
 * @file
 * Tests for elastic reconfiguration: gating, ungating, ring repair,
 * port budgets, routing after reconfiguration, and the
 * ShortcutsOnly vs AllSpaces repair modes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "core/string_figure.hpp"
#include "net/paths.hpp"
#include "net/topology.hpp"

namespace {

using namespace sf;
using namespace sf::core;

SFParams
makeParams(std::size_t n, int ports,
           LinkMode mode = LinkMode::Unidirectional,
           std::uint64_t seed = 1)
{
    SFParams p;
    p.numNodes = n;
    p.routerPorts = ports;
    p.linkMode = mode;
    p.seed = seed;
    return p;
}

/** Route between every live pair and expect delivery. */
void
expectAllLivePairsDeliver(StringFigure &net)
{
    const std::size_t n = net.numNodes();
    for (NodeId s = 0; s < n; ++s) {
        if (!net.nodeAlive(s))
            continue;
        for (NodeId t = 0; t < n; ++t) {
            if (t == s || !net.nodeAlive(t))
                continue;
            ASSERT_GT(net::routedHops(net, s, t), 0)
                << s << " -> " << t;
        }
    }
}

TEST(Reconfig, GateIsIdempotent)
{
    StringFigure net(makeParams(32, 4));
    EXPECT_TRUE(net.gate(5).applied);
    EXPECT_FALSE(net.gate(5).applied);
    EXPECT_TRUE(net.ungate(5).applied);
    EXPECT_FALSE(net.ungate(5).applied);
}

TEST(Reconfig, GatedNodeHasNoEnabledWires)
{
    StringFigure net(makeParams(48, 4));
    net.gate(11);
    EXPECT_FALSE(net.nodeAlive(11));
    EXPECT_EQ(net.graph().degreeOut(11), 0u);
    EXPECT_EQ(net.graph().degreeIn(11), 0u);
}

TEST(Reconfig, SingleGateKeepsInvariants)
{
    StringFigure net(makeParams(64, 8));
    for (const NodeId victim : {NodeId{0}, NodeId{31}, NodeId{63}}) {
        const auto r = net.gate(victim);
        EXPECT_TRUE(r.applied);
        EXPECT_EQ(net.reconfig().checkInvariants(), "");
        net.ungate(victim);
        EXPECT_EQ(net.reconfig().checkInvariants(), "");
    }
}

TEST(Reconfig, SingleGateRepairsAllRings)
{
    StringFigure net(makeParams(64, 8));
    const auto r = net.gate(17);
    EXPECT_TRUE(r.applied);
    EXPECT_EQ(r.holes, 0);
    EXPECT_EQ(net.reconfig().currentHoles(), 0);
    EXPECT_GT(r.closuresEnabled, 0);
}

TEST(Reconfig, RoutingSurvivesSingleGate)
{
    StringFigure net(makeParams(61, 8));
    net.gate(30);
    expectAllLivePairsDeliver(net);
    EXPECT_EQ(net.fallbackCount(), 0u);
}

TEST(Reconfig, UngateRestoresOriginalWireSet)
{
    StringFigure net(makeParams(64, 8));
    std::vector<bool> before;
    for (LinkId id = 0;
         id < static_cast<LinkId>(net.graph().numLinks()); ++id)
        before.push_back(net.graph().link(id).enabled);

    net.gate(9);
    net.ungate(9);

    for (LinkId id = 0;
         id < static_cast<LinkId>(net.graph().numLinks()); ++id) {
        EXPECT_EQ(net.graph().link(id).enabled, before[id])
            << "link " << id;
    }
    EXPECT_EQ(net.reconfig().checkInvariants(), "");
}

TEST(Reconfig, GateUngateStressRandomSequence)
{
    StringFigure net(makeParams(96, 8));
    Rng rng(5);
    for (int step = 0; step < 200; ++step) {
        const NodeId u = static_cast<NodeId>(rng.below(96));
        if (net.nodeAlive(u)) {
            if (net.reconfig().canGate(u))
                net.gate(u);
        } else {
            net.ungate(u);
        }
        ASSERT_EQ(net.reconfig().checkInvariants(), "")
            << "after step " << step;
    }
    // Bring everyone back; the network must be whole again.
    for (NodeId u = 0; u < 96; ++u) {
        if (!net.nodeAlive(u))
            net.ungate(u);
    }
    ASSERT_EQ(net.reconfig().checkInvariants(), "");
    EXPECT_EQ(net.reconfig().currentHoles(), 0);
    EXPECT_TRUE(net::stronglyConnected(net.graph()));
}

TEST(Reconfig, AlternateGatingDownScales)
{
    // Gate every other node of space 0's ring: alternating victims
    // never collide on ring 0, but the same victims can be adjacent
    // on the other spaces' rings, so canGate() rejects a fraction of
    // them. A meaningful down-scale must still be achievable.
    StringFigure net(makeParams(64, 8));
    const auto ring = net.spaces().ring(0);
    std::size_t gated = 0;
    for (std::size_t i = 0; i < ring.size(); i += 2) {
        if (net.reconfig().canGate(ring[i])) {
            const auto r = net.gate(ring[i]);
            EXPECT_TRUE(r.applied);
            ++gated;
        }
    }
    EXPECT_GE(gated, ring.size() / 8);
    ASSERT_EQ(net.reconfig().checkInvariants(), "");
    expectAllLivePairsDeliver(net);
}

TEST(Reconfig, ReduceToTargetScale)
{
    StringFigure net(makeParams(128, 8));
    Rng rng(7);
    net.reduceTo(100, rng);
    EXPECT_LE(net.reconfig().numAlive(), 110u);
    ASSERT_EQ(net.reconfig().checkInvariants(), "");
    expectAllLivePairsDeliver(net);
}

TEST(Reconfig, CanGateRefusesAdjacentVictims)
{
    StringFigure net(makeParams(64, 8));
    const auto ring = net.spaces().ring(0);
    ASSERT_TRUE(net.reconfig().canGate(ring[10]));
    net.gate(ring[10]);
    // The static ring neighbour now borders the hole: gating it
    // would need a (nonexistent) 3-hop spare.
    EXPECT_FALSE(net.reconfig().canGate(ring[11]));
}

TEST(Reconfig, TablesStayInSyncWithGraph)
{
    StringFigure net(makeParams(72, 8));
    net.gate(13);
    net.gate(40);
    // Every table entry's via link must be enabled and the entry's
    // first hop must reach an alive node.
    for (NodeId u = 0; u < 72; ++u) {
        if (!net.nodeAlive(u))
            continue;
        for (const auto &e : net.tables().table(u).entries()) {
            if (!e.valid)
                continue;
            EXPECT_TRUE(net.graph().link(e.viaLink).enabled);
            EXPECT_TRUE(net.nodeAlive(e.node))
                << "entry to dead node " << e.node;
        }
    }
}

TEST(Reconfig, RoutingTableSizeBoundedOnBasicTopology)
{
    // Paper: table size <= p(p+1) on the basic topology.
    StringFigure net(makeParams(256, 8));
    EXPECT_LE(net.tables().maxEntriesSeen(), 8u * 9u);
}

TEST(Reconfig, ShortcutsOnlyModeCountsFallbacks)
{
    SFParams p = makeParams(96, 8);
    p.repairMode = RepairMode::ShortcutsOnly;
    StringFigure net(p);
    Rng rng(11);
    net.reduceTo(72, rng);
    ASSERT_EQ(net.reconfig().checkInvariants(), "");
    // Faithful mode may leave holes in spaces other than space 0;
    // routing must still deliver via the fallback (counted).
    expectAllLivePairsDeliver(net);
    SUCCEED() << "fallbacks used: " << net.fallbackCount();
}

TEST(Reconfig, AllSpacesModeAvoidsFallbacks)
{
    StringFigure net(makeParams(96, 8));
    Rng rng(11);
    net.reduceTo(72, rng);
    EXPECT_EQ(net.reconfig().currentHoles(), 0);
    expectAllLivePairsDeliver(net);
    EXPECT_EQ(net.fallbackCount(), 0u);
}

TEST(Reconfig, StaticExpansionDeploySubset)
{
    // Deploy-subset flow: build the max size, reduce, then expand.
    StringFigure net(makeParams(128, 8));
    Rng rng(3);
    const auto gated = net.reduceTo(96, rng);
    const std::size_t deployed = net.reconfig().numAlive();
    expectAllLivePairsDeliver(net);

    // "Mount" the reserved nodes again (static expansion).
    for (const NodeId u : gated)
        net.ungate(u);
    EXPECT_EQ(net.reconfig().numAlive(), 128u);
    EXPECT_EQ(net.reconfig().currentHoles(), 0);
    expectAllLivePairsDeliver(net);
    EXPECT_GT(deployed, 90u);
}

TEST(Reconfig, BidirectionalGateUngate)
{
    StringFigure net(makeParams(64, 8, LinkMode::Bidirectional));
    Rng rng(13);
    for (int step = 0; step < 60; ++step) {
        const NodeId u = static_cast<NodeId>(rng.below(64));
        if (net.nodeAlive(u)) {
            if (net.reconfig().canGate(u))
                net.gate(u);
        } else {
            net.ungate(u);
        }
        ASSERT_EQ(net.reconfig().checkInvariants(), "")
            << "after step " << step;
    }
    expectAllLivePairsDeliver(net);
}

TEST(Reconfig, StatsAccumulate)
{
    StringFigure net(makeParams(48, 8));
    net.gate(1);
    net.ungate(1);
    const auto &stats = net.reconfig().stats();
    EXPECT_EQ(stats.gateOps, 1u);
    EXPECT_EQ(stats.ungateOps, 1u);
    EXPECT_GT(stats.tableRebuilds, 0u);
    EXPECT_GT(stats.entriesBlocked, 0u);
}

/** Parameterised sweep: random gating at several scales/radix. */
class ReconfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ReconfigSweep, RandomReductionKeepsDelivery)
{
    const auto [n, ports] = GetParam();
    StringFigure net(makeParams(static_cast<std::size_t>(n), ports));
    Rng rng(n * 31 + ports);
    net.reduceTo(static_cast<std::size_t>(n * 3 / 4), rng);
    ASSERT_EQ(net.reconfig().checkInvariants(), "");
    const std::size_t live = net.reconfig().numAlive();
    ASSERT_GE(live, static_cast<std::size_t>(n) * 3 / 4 - 4);
    expectAllLivePairsDeliver(net);
}

INSTANTIATE_TEST_SUITE_P(
    ScalesAndRadix, ReconfigSweep,
    ::testing::Combine(::testing::Values(32, 61, 96, 128),
                       ::testing::Values(4, 6, 8)));

// --------------------------------- exactness of the rebuild rule

/** FNV-1a over the little-endian bytes of each value added. */
struct Fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

/** Every table entry equals a fresh rebuild's, field by field. */
void
expectTablesFresh(const StringFigure &net, const std::string &where)
{
    for (NodeId x = 0; x < net.numNodes(); ++x) {
        RoutingTable fresh;
        fresh.rebuild(x, net.graph());
        const auto &got = net.tables().table(x).entries();
        const auto &want = fresh.entries();
        ASSERT_EQ(got.size(), want.size()) << where << " node " << x;
        for (std::size_t i = 0; i < got.size(); ++i) {
            const TableEntry &a = got[i];
            const TableEntry &b = want[i];
            ASSERT_TRUE(a.node == b.node && a.viaLink == b.viaLink &&
                        a.hops == b.hops && a.valid == b.valid &&
                        a.blocking == b.blocking &&
                        a.viaEntry == b.viaEntry)
                << where << " node " << x << " entry " << i;
        }
    }
}

struct SequenceDigests {
    std::uint64_t results = 0;  ///< ReconfigResults but tablesRebuilt
    std::uint64_t links = 0;    ///< enabled-link set after each op
};

/**
 * Gate and ungate random nodes: a picked live node is gated when
 * canGate accepts it, and one pick in four gates it regardless (an
 * unplanned failure); a picked gated node is ungated. After every
 * operation each table must equal a fresh rebuild and the engine's
 * invariants must hold.
 */
SequenceDigests
runGateSequence(StringFigure &net, std::uint64_t seed, int steps,
                const std::string &name)
{
    Rng rng(seed);
    Fnv1a results;
    Fnv1a links;
    const net::Graph &g = net.graph();
    for (int step = 0; step < steps; ++step) {
        const auto u = static_cast<NodeId>(rng.below(net.numNodes()));
        ReconfigResult r;
        if (net.nodeAlive(u)) {
            const bool forced = rng.below(4) == 0;
            if (!forced && !net.reconfig().canGate(u))
                continue;
            r = net.gate(u);
        } else {
            r = net.ungate(u);
        }
        for (const std::uint64_t v :
             {std::uint64_t{u}, std::uint64_t{r.applied},
              std::uint64_t(r.closuresEnabled),
              std::uint64_t(r.wiresDisabled),
              std::uint64_t(r.wiresEnabled),
              std::uint64_t(r.holes)})
            results.add(v);
        std::uint64_t word = 0;
        for (LinkId id = 0; id < static_cast<LinkId>(g.numLinks());
             ++id) {
            word = (word << 1) | (g.link(id).enabled ? 1 : 0);
            if (id % 64 == 63) {
                links.add(word);
                word = 0;
            }
        }
        links.add(word);
        std::ostringstream where;
        where << name << " step " << step;
        EXPECT_EQ(net.reconfig().checkInvariants(), "") << where.str();
        expectTablesFresh(net, where.str());
        if (::testing::Test::HasFatalFailure())
            break;
    }
    return {results.h, links.h};
}

TEST(Reconfig, LocalRebuildMatchesFreshTablesAndParentDigests)
{
    // Digests recorded from the engine that rebuilt every table
    // within two in-hops of any node whose wires could change.
    struct Case {
        std::size_t n;
        LinkMode mode;
        RepairMode repair;
        std::uint64_t results;
        std::uint64_t links;
    };
    const Case cases[] = {
        {32, LinkMode::Unidirectional, RepairMode::AllSpaces,
         0xa13d3972c204059fULL, 0x97b61f6089a98f2dULL},
        {32, LinkMode::Unidirectional, RepairMode::ShortcutsOnly,
         0x878ca543293be5abULL, 0x2e76a1c2a23ced41ULL},
        {32, LinkMode::Bidirectional, RepairMode::AllSpaces,
         0x1cb242f831eff0aeULL, 0xd3dc19e63dd4fe47ULL},
        {32, LinkMode::Bidirectional, RepairMode::ShortcutsOnly,
         0x3a58b862bb41d89aULL, 0xa063cdacf23d11dfULL},
        {64, LinkMode::Unidirectional, RepairMode::AllSpaces,
         0xc0f3d730214d138cULL, 0x8a9c1e251a6310dcULL},
        {64, LinkMode::Unidirectional, RepairMode::ShortcutsOnly,
         0x24cbf90bd7277bf6ULL, 0xd123e1469d2f9f09ULL},
        {64, LinkMode::Bidirectional, RepairMode::AllSpaces,
         0xb7a3ce42676d3f1dULL, 0x00a7cd0d5b1c7bc6ULL},
        {64, LinkMode::Bidirectional, RepairMode::ShortcutsOnly,
         0x2f611c5f290d0d37ULL, 0xb839a5f0000169c7ULL},
        {100, LinkMode::Unidirectional, RepairMode::AllSpaces,
         0xb0a75b17acd7bf61ULL, 0x67e0feb86052dd13ULL},
        {100, LinkMode::Unidirectional, RepairMode::ShortcutsOnly,
         0x6455a19115c8d50bULL, 0x1df4d2190bd44022ULL},
        {100, LinkMode::Bidirectional, RepairMode::AllSpaces,
         0xc193bc6e0e049f12ULL, 0xd593a4cfa733ac1aULL},
        {100, LinkMode::Bidirectional, RepairMode::ShortcutsOnly,
         0xea5ef637881f3ca8ULL, 0x1239e9755b7cfe92ULL},
        {256, LinkMode::Unidirectional, RepairMode::AllSpaces,
         0xf66c43ed2c18cd7eULL, 0x5f0315e87e6870dcULL},
        {256, LinkMode::Unidirectional, RepairMode::ShortcutsOnly,
         0xd51b3d89defe81f0ULL, 0x29de2cd499a7358aULL},
        {256, LinkMode::Bidirectional, RepairMode::AllSpaces,
         0xa7763e5336048e3eULL, 0x74018e9652890662ULL},
        {256, LinkMode::Bidirectional, RepairMode::ShortcutsOnly,
         0x74985c68362d3397ULL, 0x300b5efa08c5c179ULL},
    };
    for (const Case &c : cases) {
        SFParams p = makeParams(c.n, c.n > 128 ? 8 : 4, c.mode,
                                c.n + 11);
        p.repairMode = c.repair;
        StringFigure net(p);
        std::ostringstream name;
        name << "n" << c.n
             << (c.mode == LinkMode::Bidirectional ? "/bidir" : "/unidir")
             << (c.repair == RepairMode::AllSpaces ? "/all"
                                                   : "/shortcuts");
        const SequenceDigests got = runGateSequence(
            net, c.n * 7 + 3, c.n > 128 ? 80 : 150, name.str());
        EXPECT_EQ(got.results, c.results) << name.str();
        EXPECT_EQ(got.links, c.links) << name.str();
    }
}

} // namespace
