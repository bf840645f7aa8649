/**
 * @file
 * The routing-policy seam's proof harness (core/routing_policy.hpp).
 *
 * Three properties are load-bearing:
 *  1. Equivalence — the greedy policy routed through the seam must
 *     answer exactly like the direct topology call (and, on String
 *     Figure, exactly like the underlying GreedyRouter) for every
 *     (current, dest, first_hop) query, across every factory kind,
 *     both wire directions, the two-hop ablation, and degraded
 *     topologies: the seam refactor must be invisible.
 *  2. Policy semantics — UGAL falls back to minimal routing under
 *     zero congestion (the strict UGAL inequality ties toward
 *     minimal) and detours under a loaded minimal port;
 *     table_oracle's walked hop count equals the BFS distance and
 *     is never beaten by greedy on any sampled pair.
 *  3. Determinism — the routing_bakeoff quick slice reproduces its
 *     committed golden byte for byte at jobs 1 and 8.
 *
 * The golden (tests/golden/routing_bakeoff_quick.json) is the full
 * quick bake-off grid at --jobs 1. An intentional simulator- or
 * policy-behaviour change must regenerate it in the same commit:
 *   sfx run routing_bakeoff --quick --jobs 1 \
 *       --out tests/golden/routing_bakeoff_quick.json
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/routing_policy.hpp"
#include "core/string_figure.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/scheduler.hpp"
#include "net/paths.hpp"
#include "net/rng.hpp"
#include "topos/factory.hpp"

#ifndef SF_SOURCE_DIR
#define SF_SOURCE_DIR "."
#endif

namespace {

using namespace sf;
using namespace sf::core;

// ------------------------------------------------- equivalence

/** Greedy-via-seam vs the direct topology call, one query. */
void
expectSeamTransparent(const net::Topology &topo,
                      const RoutingPolicy &policy, NodeId s,
                      NodeId t, bool first_hop)
{
    LinkId direct[net::kMaxRouteCandidates];
    LinkId seam[net::kMaxRouteCandidates];
    const CongestionSnapshot none;
    const std::size_t want =
        topo.routeCandidates(s, t, first_hop, direct);
    const std::size_t got =
        policy.route(s, t, first_hop, none, seam);
    ASSERT_EQ(got, want) << "count diverged at current=" << s
                         << " dest=" << t
                         << " first_hop=" << first_hop;
    for (std::size_t i = 0; i < want; ++i)
        EXPECT_EQ(seam[i], direct[i])
            << "candidate " << i << " diverged at current=" << s
            << " dest=" << t << " first_hop=" << first_hop;
}

/** Randomized sweep of expectSeamTransparent over node pairs. */
void
sweepSeamEquivalence(const net::Topology &topo, int samples,
                     std::uint64_t seed)
{
    const auto policy =
        makeRoutingPolicy(RoutingPolicyKind::Greedy, topo);
    EXPECT_FALSE(policy->congestionAware());
    Rng rng(seed);
    const auto n = static_cast<std::int64_t>(topo.numNodes());
    for (int i = 0; i < samples; ++i) {
        const auto s = static_cast<NodeId>(rng.range(0, n - 1));
        const auto t = static_cast<NodeId>(rng.range(0, n - 1));
        for (const bool first_hop : {false, true})
            expectSeamTransparent(topo, *policy, s, t, first_hop);
    }
}

SFParams
makeParams(std::size_t n, int ports, LinkMode mode, bool two_hop,
           std::uint64_t seed = 1)
{
    SFParams p;
    p.numNodes = n;
    p.routerPorts = ports;
    p.linkMode = mode;
    p.twoHopTable = two_hop;
    p.seed = seed;
    return p;
}

TEST(RoutingPolicySeam, GreedyMatchesDirectOnStringFigureVariants)
{
    for (const LinkMode mode :
         {LinkMode::Unidirectional, LinkMode::Bidirectional}) {
        for (const bool two_hop : {true, false}) {
            StringFigure topo(makeParams(64, 4, mode, two_hop));
            sweepSeamEquivalence(topo, 400,
                                 0x5EA11u + (two_hop ? 1 : 0));
        }
    }
}

TEST(RoutingPolicySeam, GreedyMatchesUnderlyingGreedyRouter)
{
    // On String Figure the incumbent behind the topology call is
    // GreedyRouter — the seam must reproduce it directly too
    // (first_hop maps to the router's widen flag).
    StringFigure topo(
        makeParams(64, 8, LinkMode::Unidirectional, true));
    const auto policy =
        makeRoutingPolicy(RoutingPolicyKind::Greedy, topo);
    const CongestionSnapshot none;
    Rng rng(0x60D);
    for (int i = 0; i < 400; ++i) {
        const auto s = static_cast<NodeId>(rng.range(0, 63));
        const auto t = static_cast<NodeId>(rng.range(0, 63));
        for (const bool widen : {false, true}) {
            LinkId direct[net::kMaxRouteCandidates];
            LinkId seam[net::kMaxRouteCandidates];
            const std::size_t want =
                topo.router().candidates(s, t, widen, direct);
            const std::size_t got =
                policy->route(s, t, widen, none, seam);
            ASSERT_EQ(got, want) << s << "->" << t;
            for (std::size_t k = 0; k < want; ++k)
                EXPECT_EQ(seam[k], direct[k]) << s << "->" << t;
        }
    }
}

TEST(RoutingPolicySeam, GreedyMatchesDirectOnEveryFactoryKind)
{
    for (const auto kind : topos::kAllKinds) {
        for (const std::size_t n : {64, 256}) {
            if (!topos::supported(kind, n))
                continue;
            const auto topo = topos::makeTopology(kind, n, 7);
            sweepSeamEquivalence(*topo, n == 256 ? 200 : 400,
                                 0xFACE + n);
        }
    }
}

TEST(RoutingPolicySeam, GreedyMatchesDirectOnDegradedTopology)
{
    StringFigure topo(
        makeParams(64, 8, LinkMode::Unidirectional, true));
    for (const NodeId u : {5u, 6u, 21u, 40u})
        ASSERT_TRUE(topo.gate(u).applied);
    sweepSeamEquivalence(topo, 600, 0xDEAD);
}

// ------------------------------------------------- ugal semantics

/** BFS distances from every node to @p dst over enabled links,
 *  i.e. column dst of the policy's own table, independently
 *  derived. */
std::vector<std::uint16_t>
distancesTo(const net::Topology &topo, NodeId dst)
{
    // bfsDistances gives rows (from src); build the column by
    // querying each source row once. Cheap at test sizes.
    const auto table = net::distanceTable(topo.graph());
    const std::size_t n = topo.numNodes();
    std::vector<std::uint16_t> out(n);
    for (NodeId u = 0; u < n; ++u)
        out[u] = table[static_cast<std::size_t>(u) * n + dst];
    return out;
}

TEST(UgalPolicy, FallsBackToMinimalUnderZeroCongestion)
{
    for (const auto kind : topos::kAllKinds) {
        if (!topos::supported(kind, 64))
            continue;
        const auto topo = topos::makeTopology(kind, 64, 7);
        const auto ugal =
            makeRoutingPolicy(RoutingPolicyKind::Ugal, *topo);
        EXPECT_TRUE(ugal->congestionAware());
        const CongestionSnapshot none;
        Rng rng(0x06A1);
        for (int i = 0; i < 300; ++i) {
            const auto s = static_cast<NodeId>(rng.range(0, 63));
            const auto t = static_cast<NodeId>(rng.range(0, 63));
            if (s == t)
                continue;
            const auto dist = distancesTo(*topo, t);
            ASSERT_NE(dist[s], net::kUnreachable);
            for (const bool first_hop : {false, true}) {
                LinkId out[net::kMaxRouteCandidates];
                const std::size_t cnt =
                    ugal->route(s, t, first_hop, none, out);
                ASSERT_EQ(cnt, 1u)
                    << topos::kindName(kind) << " " << s << "->"
                    << t;
                // Minimal: the chosen hop strictly decreases the
                // BFS distance. Zero congestion makes the UGAL
                // inequality 0 < 0, which must never detour.
                const NodeId nxt =
                    topo->graph().link(out[0]).dst;
                EXPECT_EQ(dist[nxt] + 1, dist[s])
                    << topos::kindName(kind) << " " << s << "->"
                    << t << " first_hop=" << first_hop;
            }
        }
    }
}

TEST(UgalPolicy, DetoursAwayFromALoadedMinimalPort)
{
    const auto topo =
        topos::makeTopology(topos::TopoKind::SF, 64, 7);
    const auto ugal =
        makeRoutingPolicy(RoutingPolicyKind::Ugal, *topo);
    const CongestionSnapshot none;
    std::vector<std::uint32_t> queued(
        topo->graph().numLinks(), 0);
    int detoured = 0;
    for (NodeId s = 0; s < 64 && detoured == 0; ++s) {
        for (NodeId t = 0; t < 64 && detoured == 0; ++t) {
            if (s == t)
                continue;
            LinkId minimal[net::kMaxRouteCandidates];
            if (ugal->route(s, t, true, none, minimal) != 1)
                continue;
            // Pile queued flits onto every minimal out-link (any
            // link the zero-congestion decision could pick), then
            // re-ask: with a free non-minimal port available the
            // UGAL product must flip the decision at injection.
            const auto dist = distancesTo(*topo, t);
            std::fill(queued.begin(), queued.end(), 0u);
            for (const LinkId id : topo->graph().outLinks(s)) {
                const net::Link &l = topo->graph().link(id);
                if (l.enabled && dist[l.dst] + 1 == dist[s])
                    queued[static_cast<std::size_t>(id)] = 100000;
            }
            const CongestionSnapshot loaded(queued);
            LinkId adapted[net::kMaxRouteCandidates];
            ASSERT_EQ(ugal->route(s, t, true, loaded, adapted),
                      1u);
            if (adapted[0] != minimal[0]) {
                ++detoured;
                // The detour still reaches the destination.
                const NodeId nxt =
                    topo->graph().link(adapted[0]).dst;
                EXPECT_NE(dist[nxt], net::kUnreachable);
                // And a committed (non-first) hop never detours,
                // loaded or not: loop freedom comes from strictly
                // decreasing distance after injection.
                LinkId committed[net::kMaxRouteCandidates];
                ASSERT_EQ(
                    ugal->route(s, t, false, loaded, committed),
                    1u);
                const NodeId cn =
                    topo->graph().link(committed[0]).dst;
                EXPECT_EQ(dist[cn] + 1, dist[s]);
            }
        }
    }
    EXPECT_GT(detoured, 0)
        << "no (src,dst) pair ever detoured: the snapshot is not "
           "reaching the UGAL decision";
}

// --------------------------------------------- oracle optimality

/** Walk a packet with the policy's committed (non-first-hop after
 *  injection) choices; -1 when it stalls or cycles. */
int
policyHops(const net::Topology &topo, const RoutingPolicy &policy,
           NodeId src, NodeId dst)
{
    const CongestionSnapshot none;
    LinkId out[net::kMaxRouteCandidates];
    NodeId at = src;
    const int limit =
        static_cast<int>(4 * topo.numNodes() + 16);
    for (int hops = 0; hops < limit; ++hops) {
        if (at == dst)
            return hops;
        if (policy.route(at, dst, hops == 0, none, out) == 0)
            return -1;
        at = topo.graph().link(out[0]).dst;
    }
    return -1;
}

TEST(TableOraclePolicy, HopCountsNeverExceedGreedys)
{
    for (const auto kind : topos::kAllKinds) {
        if (!topos::supported(kind, 64))
            continue;
        const auto topo = topos::makeTopology(kind, 64, 7);
        const auto oracle = makeRoutingPolicy(
            RoutingPolicyKind::TableOracle, *topo);
        const auto dist = net::distanceTable(topo->graph());
        Rng rng(0x04AC1E);
        for (int i = 0; i < 300; ++i) {
            const auto s = static_cast<NodeId>(rng.range(0, 63));
            const auto t = static_cast<NodeId>(rng.range(0, 63));
            const int want = dist[static_cast<std::size_t>(s) *
                                      topo->numNodes() +
                                  t];
            const int got = policyHops(*topo, *oracle, s, t);
            // Shortest by construction: the walk realises the BFS
            // distance exactly ...
            ASSERT_EQ(got, want)
                << topos::kindName(kind) << " " << s << "->" << t;
            // ... so greedy can tie it but never beat it.
            const int greedy = net::routedHops(*topo, s, t);
            if (greedy >= 0) {
                EXPECT_LE(got, greedy)
                    << topos::kindName(kind) << " " << s << "->"
                    << t;
            }
        }
    }
}

// ------------------------------------------------- spelling

TEST(RoutingPolicyNames, ParseAndNameRoundTrip)
{
    for (const RoutingPolicyKind kind : kAllRoutingPolicies) {
        RoutingPolicyKind parsed{};
        EXPECT_TRUE(parseRoutingPolicy(routingPolicyName(kind),
                                       parsed));
        EXPECT_EQ(parsed, kind);
    }
    RoutingPolicyKind out{};
    EXPECT_FALSE(parseRoutingPolicy("fastest", out));
    EXPECT_FALSE(parseRoutingPolicy("", out));
}

// ------------------------------------------------ determinism

using namespace sf::exp;

/** The driver's `sfx run routing_bakeoff --quick` flow,
 *  in-process, mirroring fig1SliceReport in
 *  test_engine_identity.cpp. */
std::string
bakeoffReport(int jobs)
{
    const auto specs = registry().match("routing_bakeoff");
    PlanContext plan_ctx;
    plan_ctx.effort = Effort::Quick;

    std::vector<ExperimentResults> all;
    for (const ExperimentSpec *spec : specs) {
        const auto runs = spec->plan(plan_ctx);
        if (runs.empty())
            continue;  // as the driver skips specs with no runs
        SchedulerOptions sched;
        sched.jobs = jobs;
        sched.effort = Effort::Quick;
        ExperimentResults results;
        results.spec = spec;
        results.runs = runExperiment(*spec, runs, sched);
        for (const RunResult &r : results.runs)
            EXPECT_FALSE(r.failed) << spec->name << "/" << r.id
                                   << ": " << r.error;
        all.push_back(std::move(results));
    }

    ReportOptions ropts;
    ropts.effort = Effort::Quick;
    ropts.jobs = jobs;
    return buildReport(all, ropts).dump(2) + "\n";
}

std::string
bakeoffGoldenBytes()
{
    return readFile(std::string(SF_SOURCE_DIR) +
                    "/tests/golden/routing_bakeoff_quick.json");
}

TEST(RoutingBakeoff, MatchesGoldenJobs1)
{
    const std::string golden = bakeoffGoldenBytes();
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(bakeoffReport(1), golden)
        << "the bake-off no longer reproduces its committed "
           "golden — if the policy or engine change is "
           "intentional, regenerate it in the same commit";
}

TEST(RoutingBakeoff, MatchesGoldenJobs8)
{
    EXPECT_EQ(bakeoffReport(8), bakeoffGoldenBytes());
}

} // namespace
