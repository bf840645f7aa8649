/**
 * @file
 * Tests for core::RouteCache (core/route_cache.hpp), which the
 * simulator no longer uses and which stays only for the frozen
 * benchmark's probe: while the class exists it must be an
 * observationally exact stand-in for Topology::routeCandidates —
 * identical candidate count and identical link ids for every
 * (current, dest, first_hop) query, on first touch (fill) and on
 * every repeat (hit) — across every topology kind the factory
 * builds, both wire directions, the two-hop-table ablation, and
 * degraded (gated) String Figures.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/route_cache.hpp"
#include "core/string_figure.hpp"
#include "net/rng.hpp"
#include "topos/factory.hpp"

namespace {

using namespace sf;
using namespace sf::core;

/**
 * Compare cache vs direct call for one query, at the simulator's
 * span size. Returns via gtest assertions.
 */
void
expectSameAnswer(const net::Topology &topo, RouteCache &cache,
                 NodeId s, NodeId t, bool first_hop)
{
    LinkId direct[net::kMaxRouteCandidates];
    LinkId cached[net::kMaxRouteCandidates];
    const std::size_t want =
        topo.routeCandidates(s, t, first_hop, direct);
    const std::size_t got = cache.candidates(s, t, first_hop, cached);
    ASSERT_EQ(got, want) << "count diverged at current=" << s
                         << " dest=" << t
                         << " first_hop=" << first_hop;
    for (std::size_t i = 0; i < want; ++i)
        EXPECT_EQ(cached[i], direct[i])
            << "candidate " << i << " diverged at current=" << s
            << " dest=" << t << " first_hop=" << first_hop;
}

/**
 * Randomized equivalence sweep: @p samples pairs, each queried
 * twice per first_hop value so both the fill path and the hit path
 * are exercised (and repeat answers are stable).
 */
void
sweepEquivalence(const net::Topology &topo, int samples,
                 std::uint64_t seed)
{
    RouteCache cache(topo);
    ASSERT_TRUE(cache.active()) << topo.name();
    Rng rng(seed);
    const auto n = static_cast<std::int64_t>(topo.numNodes());
    for (int i = 0; i < samples; ++i) {
        const auto s = static_cast<NodeId>(rng.range(0, n - 1));
        const auto t = static_cast<NodeId>(rng.range(0, n - 1));
        for (const bool first_hop : {false, true}) {
            expectSameAnswer(topo, cache, s, t, first_hop);
            expectSameAnswer(topo, cache, s, t, first_hop); // hit
        }
    }
    EXPECT_GT(cache.committedRows() + cache.firstHopRows(), 0u);
}

SFParams
makeParams(std::size_t n, int ports, LinkMode mode,
           bool two_hop, std::uint64_t seed = 1)
{
    SFParams p;
    p.numNodes = n;
    p.routerPorts = ports;
    p.linkMode = mode;
    p.twoHopTable = two_hop;
    p.seed = seed;
    return p;
}

// ------------------------------------------------- equivalence

TEST(RouteCache, MatchesDirectOnStringFigureVariants)
{
    for (const LinkMode mode :
         {LinkMode::Unidirectional, LinkMode::Bidirectional}) {
        for (const bool two_hop : {true, false}) {
            StringFigure topo(makeParams(64, 4, mode, two_hop));
            sweepEquivalence(topo, 400,
                             0xC0FFEEu + (two_hop ? 1 : 0));
        }
    }
}

TEST(RouteCache, MatchesDirectOnEveryFactoryKind)
{
    // Meshes (DM/ODM) ignore first_hop and emit several equal-cost
    // candidates for committed hops — the uncacheable-entry
    // fallback path; FB/AFB cover table-routed sets.
    for (const auto kind : topos::kAllKinds) {
        for (const std::size_t n : {64, 256}) {
            if (!topos::supported(kind, n))
                continue;
            const auto topo = topos::makeTopology(kind, n, 7);
            sweepEquivalence(*topo, n == 256 ? 200 : 400,
                             0xBEEF + n);
        }
    }
}

TEST(RouteCache, MatchesDirectOnDegradedTopology)
{
    // Gate a handful of nodes *before* building the cache: the
    // degraded topology is immutable again from here on, and its
    // routing exercises no-route answers (kNoRoute entries) for
    // gated endpoints as well as repaired-ring detours.
    StringFigure topo(
        makeParams(64, 8, LinkMode::Unidirectional, true));
    for (const NodeId u : {5u, 6u, 21u, 40u})
        ASSERT_TRUE(topo.gate(u).applied);
    sweepEquivalence(topo, 600, 0xDEAD);
}

TEST(RouteCache, ServesNoRouteAndRepeatsIt)
{
    StringFigure topo(
        makeParams(48, 4, LinkMode::Unidirectional, true));
    ASSERT_TRUE(topo.gate(7).applied);
    RouteCache cache(topo);
    ASSERT_TRUE(cache.active());
    // A gated destination has no progress-making link from
    // anywhere; the cache must report 0 both cold and warm.
    LinkId out[net::kMaxRouteCandidates];
    for (int rep = 0; rep < 2; ++rep)
        EXPECT_EQ(cache.candidates(3, 7, false, out),
                  topo.routeCandidates(3, 7, false, out));
}

} // namespace
