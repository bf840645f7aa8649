/**
 * @file
 * Tests for the shared-immutable-topology ownership model: the
 * net::SharedMemo hit/miss/clear semantics behind
 * net::TopologyCache, once-only construction under same-key
 * concurrency, and the factory's cachedTopology() sharing
 * behaviour.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
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
    TopologyCache cache;
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
    EXPECT_EQ(cache.size(), 4u);

    // clear() empties the memo but keeps the counters, and the
    // next request rebuilds.
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 4u);
    const auto rebuilt = cache.getOrBuild(key("SF", 8, 1), build);
    EXPECT_EQ(builds, 5);
    EXPECT_NE(rebuilt.get(), first.get());
    EXPECT_EQ(cache.stats().misses, 5u);
}

TEST(TopologyCache, ConcurrentSameKeyBuildsOnce)
{
    TopologyCache cache;
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
    TopologyCache cache;
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

TEST(TopologyCache, FailedBuildReachesEveryWaiter)
{
    TopologyCache cache;
    std::atomic<int> builds{0};
    const auto failing = [&]()
        -> std::shared_ptr<const net::Topology> {
        ++builds;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
        throw std::runtime_error("boom");
    };
    constexpr int kThreads = 8;
    std::atomic<int> thrown{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            try {
                cache.getOrBuild(key("SF", 8, 9), failing);
            } catch (const std::runtime_error &) {
                ++thrown;
            }
        });
    for (auto &t : threads)
        t.join();
    // Requests that arrive after the round failed start a new
    // round, so more than one build may run, but every request
    // sees a failure and none leaves an entry behind.
    EXPECT_GE(builds.load(), 1);
    EXPECT_EQ(thrown.load(), kThreads);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(TopologyCache, FailedBuildSparesNewerRound)
{
    // clear() races an in-flight build that then fails: the failure
    // must drop only its own entry, not the newer round's.
    TopologyCache cache;
    std::promise<void> release;
    std::shared_future<void> go = release.get_future().share();
    std::promise<void> started;
    std::thread first([&] {
        EXPECT_THROW(
            cache.getOrBuild(
                key("SF", 8, 1),
                [&]() -> std::shared_ptr<const net::Topology> {
                    started.set_value();
                    go.wait();
                    throw std::runtime_error("boom");
                }),
            std::runtime_error);
    });
    started.get_future().wait();
    cache.clear();
    const auto kept =
        cache.getOrBuild(key("SF", 8, 1), [] { return tinySf(1); });
    release.set_value();
    first.join();
    EXPECT_EQ(cache.size(), 1u);
    int builds = 0;
    const auto again = cache.getOrBuild(key("SF", 8, 1), [&] {
        ++builds;
        return tinySf(1);
    });
    EXPECT_EQ(builds, 0);
    EXPECT_EQ(again.get(), kept.get());
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
