/**
 * @file
 * Tests for the shared-immutable-topology ownership model: the
 * net::TopologyCache hit/miss/eviction semantics, once-only
 * construction under same-key concurrency, and the factory's
 * cachedTopology() sharing behaviour.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/string_figure.hpp"
#include "core/topology_builder.hpp"
#include "net/topology_cache.hpp"
#include "topos/factory.hpp"

namespace {

using namespace sf;
using net::TopologyCache;
using net::TopologyKey;

/** Tiny real topology for cache entries. */
std::shared_ptr<const net::Topology>
tinySf(std::uint64_t seed)
{
    core::SFParams params;
    params.numNodes = 8;
    params.routerPorts = 4;
    params.seed = seed;
    return std::make_shared<const core::StringFigure>(params);
}

TopologyKey
key(const std::string &kind, std::size_t n, std::uint64_t seed,
    const std::string &variant = "")
{
    TopologyKey k;
    k.kind = kind;
    k.nodes = n;
    k.seed = seed;
    k.variant = variant;
    return k;
}

TEST(TopologyCache, HitAndMissCounting)
{
    TopologyCache cache(8);
    int builds = 0;
    const auto build = [&] {
        ++builds;
        return tinySf(1);
    };
    const auto first = cache.getOrBuild(key("SF", 8, 1), build);
    const auto second = cache.getOrBuild(key("SF", 8, 1), build);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);

    // Every key field participates in identity.
    cache.getOrBuild(key("S2", 8, 1), build);
    cache.getOrBuild(key("SF", 8, 2), build);
    cache.getOrBuild(key("SF", 8, 1, "v"), build);
    EXPECT_EQ(builds, 4);
    EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(TopologyCache, LruEviction)
{
    TopologyCache cache(2);
    int builds = 0;
    const auto build = [&] {
        ++builds;
        return tinySf(1);
    };
    cache.getOrBuild(key("SF", 8, 1), build); // {1}
    cache.getOrBuild(key("SF", 8, 2), build); // {1, 2}
    EXPECT_EQ(cache.size(), 2u);
    // Touch 1 so 2 becomes the LRU victim.
    cache.getOrBuild(key("SF", 8, 1), build);
    cache.getOrBuild(key("SF", 8, 3), build); // evicts 2
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(builds, 3);
    // 1 survived; 2 was evicted and rebuilds.
    cache.getOrBuild(key("SF", 8, 1), build);
    EXPECT_EQ(builds, 3);
    cache.getOrBuild(key("SF", 8, 2), build);
    EXPECT_EQ(builds, 4);
    EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(TopologyCache, ShrinkingCapacityEvicts)
{
    TopologyCache cache(4);
    const auto build = [] { return tinySf(1); };
    for (std::uint64_t s = 1; s <= 4; ++s)
        cache.getOrBuild(key("SF", 8, s), build);
    EXPECT_EQ(cache.size(), 4u);
    cache.setCapacity(1);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 3u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(TopologyCache, ConcurrentSameKeyBuildsOnce)
{
    TopologyCache cache(8);
    std::atomic<int> builds{0};
    const auto build = [&] {
        ++builds;
        // Widen the race window: every thread should arrive while
        // the first build is still in flight.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
        return tinySf(7);
    };
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const net::Topology>> results(
        kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            results[t] =
                cache.getOrBuild(key("SF", 8, 7), build);
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(builds.load(), 1);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(results[t].get(), results[0].get());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits,
              static_cast<std::uint64_t>(kThreads - 1));
}

TEST(TopologyCache, FailedBuildRetries)
{
    TopologyCache cache(8);
    int calls = 0;
    const auto failing = [&]()
        -> std::shared_ptr<const net::Topology> {
        ++calls;
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(cache.getOrBuild(key("SF", 8, 1), failing),
                 std::runtime_error);
    EXPECT_EQ(cache.size(), 0u);
    // The failed entry is gone: the next request retries.
    const auto ok = cache.getOrBuild(key("SF", 8, 1),
                                     [] { return tinySf(1); });
    EXPECT_NE(ok, nullptr);
    EXPECT_EQ(calls, 1);
}

TEST(Factory, CachedTopologySharesInstances)
{
    topos::topologyCache().clear();
    const auto a =
        topos::cachedTopology(topos::TopoKind::SF, 16, 3);
    const auto b =
        topos::cachedTopology(topos::TopoKind::SF, 16, 3);
    EXPECT_EQ(a.get(), b.get());
    // Distinct kinds never share, even with identical params.
    const auto s2 =
        topos::cachedTopology(topos::TopoKind::S2, 16, 3);
    EXPECT_NE(s2.get(), a.get());

    // The params overload shares with the kind overload when the
    // knobs match the factory defaults.
    core::SFParams params;
    params.numNodes = 16;
    params.routerPorts = topos::randomTopologyPorts(16);
    params.seed = 3;
    const auto c = topos::cachedTopology(params);
    EXPECT_EQ(c.get(), a.get());
    // And not when a construction knob differs.
    params.twoHopTable = false;
    const auto d = topos::cachedTopology(params);
    EXPECT_NE(d.get(), a.get());
}

TEST(Factory, SharedBuildTopologyIsDeployedNetwork)
{
    core::SFParams params;
    params.numNodes = 16;
    params.routerPorts = 4;
    params.seed = 5;
    const auto topo = core::buildTopology(params);
    ASSERT_NE(topo, nullptr);
    EXPECT_EQ(topo->numNodes(), 16u);
    EXPECT_GT(net::routedHops(*topo, 0, 15), 0);
}

} // namespace
