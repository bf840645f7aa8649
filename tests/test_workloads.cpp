/**
 * @file
 * Tests for the cache model, workload trace generators, and the
 * trace replay engine, pinned against a committed golden report.
 *
 * The golden (tests/golden/replay_redis_quick.json) is the redis
 * slice of the quick Fig 12 and Fig 9(b) grids at --jobs 1: the five
 * designs' replays, and the static-gating sweep at 0-30% gated with
 * 10 and 0 pJ idle energy. An intentional replay-behaviour change
 * must regenerate it in the same commit:
 *   sfx run fig12_workloads,fig09b_power_gating_edp --quick \
 *       --runs '*redis*' --jobs 1 \
 *       --out tests/golden/replay_redis_quick.json
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/string_figure.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/scheduler.hpp"
#include "topos/mesh.hpp"
#include "workloads/cache_model.hpp"
#include "workloads/generators.hpp"
#include "workloads/replay.hpp"

#ifndef SF_SOURCE_DIR
#define SF_SOURCE_DIR "."
#endif

namespace {

using namespace sf;
using namespace sf::wl;

TEST(CacheLevel, HitAfterFill)
{
    CacheLevel cache(32 * 1024, 4);
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1020, false).hit);  // same line
    EXPECT_FALSE(cache.access(0x1040, false).hit); // next line
}

TEST(CacheLevel, LruEviction)
{
    // 4-way set: the 5th distinct line in one set evicts the LRU.
    CacheLevel cache(32 * 1024, 4);  // 128 sets, 64B lines
    const std::uint64_t set_stride = 128 * 64;
    for (int i = 0; i < 4; ++i)
        cache.access(i * set_stride, false);
    cache.access(0, false);  // refresh line 0
    cache.access(4 * set_stride, false);  // evicts line 1
    EXPECT_TRUE(cache.access(0, false).hit);
    EXPECT_FALSE(cache.access(1 * set_stride, false).hit);
}

TEST(CacheLevel, DirtyEvictionReported)
{
    CacheLevel cache(32 * 1024, 4);
    const std::uint64_t set_stride = 128 * 64;
    cache.access(0, true);  // dirty
    for (int i = 1; i < 5; ++i) {
        const auto out = cache.access(i * set_stride, false);
        if (out.evictedDirty) {
            EXPECT_EQ(out.evictedLine, 0u);
            return;
        }
    }
    FAIL() << "dirty line never evicted";
}

TEST(CacheHierarchy, StreamMissesReachDram)
{
    CacheHierarchy caches;
    std::vector<MemAccess> dram;
    // A long streaming scan: every new 64B line misses all levels.
    for (std::uint64_t addr = 0; addr < 1024 * 1024; addr += 64)
        caches.access(addr, false, dram);
    EXPECT_EQ(dram.size(), 1024u * 1024 / 64);
}

TEST(CacheHierarchy, HotSetStaysCached)
{
    CacheHierarchy caches;
    std::vector<MemAccess> dram;
    for (int rep = 0; rep < 100; ++rep) {
        for (std::uint64_t addr = 0; addr < 16 * 1024; addr += 64)
            caches.access(addr, false, dram);
    }
    // Only the first sweep misses.
    EXPECT_EQ(dram.size(), 16u * 1024 / 64);
}

TEST(Generators, AllWorkloadsProduceFullTraces)
{
    for (const Workload w : kAllWorkloads) {
        const Trace trace = generateTrace(w, 1, 2000);
        EXPECT_EQ(trace.ops.size(), 2000u) << workloadName(w);
        EXPECT_GT(trace.totalInstructions, 2000u);
        // Timestamps must be monotonically non-decreasing.
        for (std::size_t i = 1; i < trace.ops.size(); ++i)
            ASSERT_GE(trace.ops[i].instrId,
                      trace.ops[i - 1].instrId);
    }
}

TEST(Generators, Deterministic)
{
    const Trace a = generateTrace(Workload::Redis, 7, 1000);
    const Trace b = generateTrace(Workload::Redis, 7, 1000);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (std::size_t i = 0; i < a.ops.size(); ++i) {
        EXPECT_EQ(a.ops[i].addr, b.ops[i].addr);
        EXPECT_EQ(a.ops[i].isWrite, b.ops[i].isWrite);
    }
}

TEST(SharedTrace, OneInstancePerKey)
{
    // Concurrent first requests for one key share one generation.
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const Trace>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&got, t] {
            got[t] = sharedTrace(Workload::Redis, 7, 1000, 0);
        });
    for (auto &t : threads)
        t.join();
    ASSERT_NE(got[0], nullptr);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[t].get(), got[0].get());

    const Trace fresh = generateTrace(Workload::Redis, 7, 1000, 0);
    ASSERT_EQ(got[0]->ops.size(), fresh.ops.size());
    for (std::size_t i = 0; i < fresh.ops.size(); ++i) {
        EXPECT_EQ(got[0]->ops[i].instrId, fresh.ops[i].instrId);
        EXPECT_EQ(got[0]->ops[i].addr, fresh.ops[i].addr);
        EXPECT_EQ(got[0]->ops[i].isWrite, fresh.ops[i].isWrite);
    }

    // Every key field participates in identity.
    const auto other = sharedTrace(Workload::Redis, 7, 500, 0);
    EXPECT_NE(other.get(), got[0].get());
    EXPECT_EQ(other->ops.size(), 500u);
}

TEST(Generators, WorkloadsHaveDistinctCharacter)
{
    // Grep streams (low write share); wordcount aggregates (high
    // write share from hash updates + writebacks).
    const Trace grep = generateTrace(Workload::SparkGrep, 1, 5000);
    const Trace wc = generateTrace(Workload::SparkWordcount, 1,
                                   5000);
    const auto write_share = [](const Trace &t) {
        std::size_t w = 0;
        for (const auto &op : t.ops)
            w += op.isWrite ? 1 : 0;
        return static_cast<double>(w) /
               static_cast<double>(t.ops.size());
    };
    EXPECT_LT(write_share(grep), 0.1);
    EXPECT_GT(write_share(wc), 0.2);
    // Kmeans revisits its hot centroids: higher L1 hit rate than
    // the random-key redis stream.
    const Trace km = generateTrace(Workload::Kmeans, 1, 5000);
    const Trace rd = generateTrace(Workload::Redis, 1, 5000);
    EXPECT_GT(km.l1HitRate, rd.l1HitRate);
}

TEST(Generators, AddressesSpreadAcrossSpace)
{
    const Trace trace = generateTrace(Workload::Pagerank, 3, 5000);
    std::set<std::uint64_t> pages;
    for (const auto &op : trace.ops)
        pages.insert(op.addr / 4096);
    EXPECT_GT(pages.size(), 1000u);
}

TEST(Replay, CompletesOnStringFigure)
{
    core::SFParams p;
    p.numNodes = 32;
    p.routerPorts = 8;
    core::StringFigure topo(p);
    const Trace trace = generateTrace(Workload::Redis, 1, 3000);
    sim::SimConfig sim_cfg;
    ReplayConfig cfg;
    const auto result = replayTrace(trace, topo, sim_cfg, cfg);
    EXPECT_TRUE(result.finished);
    EXPECT_EQ(result.opsCompleted, 3000u);
    EXPECT_GT(result.runtimeCycles, 0u);
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_GT(result.avgOpLatency, 10.0);
    EXPECT_GT(result.networkPj, 0.0);
    EXPECT_GT(result.dramPj, 0.0);
    EXPECT_GT(result.edpJouleSeconds, 0.0);
}

TEST(Replay, CompletesOnMesh)
{
    topos::MeshTopology mesh(4, 8);
    const Trace trace = generateTrace(Workload::MatMul, 1, 3000);
    sim::SimConfig sim_cfg;
    ReplayConfig cfg;
    const auto result = replayTrace(trace, mesh, sim_cfg, cfg);
    EXPECT_TRUE(result.finished);
    EXPECT_GT(result.rowHits + result.rowMisses, 0u);
}

TEST(Replay, DramEnergyMatchesOpCount)
{
    core::SFParams p;
    p.numNodes = 16;
    p.routerPorts = 4;
    core::StringFigure topo(p);
    const Trace trace = generateTrace(Workload::SparkGrep, 2, 1000);
    sim::SimConfig sim_cfg;
    ReplayConfig cfg;
    const auto result = replayTrace(trace, topo, sim_cfg, cfg);
    ASSERT_TRUE(result.finished);
    // 12 pJ/bit x 512 bits per 64B access x 1000 accesses.
    EXPECT_DOUBLE_EQ(result.dramPj, 12.0 * 512 * 1000);
}

TEST(Replay, StaticReductionStillCompletes)
{
    // gate_to_live reduces the network to 48 live nodes before the
    // replay starts; the trace must still complete on the survivors.
    core::SFParams p;
    p.numNodes = 64;
    p.routerPorts = 8;
    core::StringFigure topo(p);
    const Trace trace = generateTrace(Workload::Memcached, 1, 4000);
    sim::SimConfig sim_cfg;
    ReplayConfig cfg;
    const auto result = replayTrace(trace, topo, sim_cfg, cfg, 48);
    EXPECT_TRUE(result.finished);
    EXPECT_EQ(topo.reconfig().numAlive(), 48u);
}

TEST(Replay, WindowOfOneSerializesEachSocketsRequests)
{
    // The MSHR window is the replay's dependency mechanism: at
    // window=1 a socket's next request waits on the previous
    // response (issue decrements only in the reply half of the
    // deliver handler). The same trace must therefore take far
    // longer than the memory-bound window=64 replay, and no
    // faster than one full round trip per op per socket.
    core::SFParams p;
    p.numNodes = 32;
    p.routerPorts = 8;
    core::StringFigure topo(p);
    const Trace trace = generateTrace(Workload::Redis, 1, 2000);
    sim::SimConfig sim_cfg;

    ReplayConfig wide;
    const auto pipelined = replayTrace(trace, topo, sim_cfg, wide);
    ASSERT_TRUE(pipelined.finished);

    ReplayConfig serial_cfg;
    serial_cfg.window = 1;
    const auto serial =
        replayTrace(trace, topo, sim_cfg, serial_cfg);
    ASSERT_TRUE(serial.finished);
    EXPECT_EQ(serial.opsCompleted, 2000u);

    // Serialized issue can overlap ops only across sockets, so
    // runtime is bounded below by (ops per socket) x (cheapest
    // possible round trip): request + DRAM access + reply, each
    // at least one cycle.
    const auto per_socket = static_cast<Cycle>(
        trace.ops.size() /
        static_cast<std::size_t>(ReplayConfig::kSockets));
    EXPECT_GE(serial.runtimeCycles, 3 * per_socket);
    // And the window is the only thing that changed, so the
    // pipelined replay must be strictly faster.
    EXPECT_GT(serial.runtimeCycles, 2 * pipelined.runtimeCycles);
    // Dependency stalls show up as latency the socket *observes*
    // but never as lost work.
    EXPECT_GT(serial.avgOpLatency, 0.0);
}

TEST(Replay, RespectTimestampsGatesIssueOnTraceTime)
{
    // CPU-bound replay: ops may not issue before their trace
    // timestamp, so the runtime is bounded below by the last op's
    // arrival time — a bound the memory-bound default is well
    // under for this trace.
    core::SFParams p;
    p.numNodes = 32;
    p.routerPorts = 8;
    core::StringFigure topo(p);
    const Trace trace = generateTrace(Workload::SparkGrep, 1, 2000);
    sim::SimConfig sim_cfg;

    ReplayConfig fast;
    const auto unconstrained =
        replayTrace(trace, topo, sim_cfg, fast);
    ASSERT_TRUE(unconstrained.finished);

    ReplayConfig timed;
    timed.respectTimestamps = true;
    const auto gated = replayTrace(trace, topo, sim_cfg, timed);
    ASSERT_TRUE(gated.finished);
    EXPECT_EQ(gated.opsCompleted, 2000u);

    const Cycle last_arrival = Trace::instrToCycles(
        trace.ops.back().instrId, ReplayConfig::kCpi);
    ASSERT_GT(last_arrival, unconstrained.runtimeCycles)
        << "trace too dense to distinguish the gated path";
    EXPECT_GE(gated.runtimeCycles, last_arrival);
    EXPECT_GT(gated.runtimeCycles, unconstrained.runtimeCycles);
}

TEST(Replay, SlowerNetworkGivesLowerThroughput)
{
    // The same trace on SF vs a small mesh: relative IPC ordering
    // should reflect network quality (SF >= DM at this scale).
    const Trace trace = generateTrace(Workload::Pagerank, 1, 3000);
    sim::SimConfig sim_cfg;
    ReplayConfig cfg;

    core::SFParams p;
    p.numNodes = 64;
    p.routerPorts = 8;
    core::StringFigure sf_topo(p);
    topos::MeshTopology mesh(8, 8);

    const auto sf_result = replayTrace(trace, sf_topo, sim_cfg, cfg);
    const auto dm_result = replayTrace(trace, mesh, sim_cfg, cfg);
    ASSERT_TRUE(sf_result.finished);
    ASSERT_TRUE(dm_result.finished);
    EXPECT_GT(sf_result.ipc, 0.8 * dm_result.ipc);
}

// ----------------------------------------------- replay golden

/** `sfx run fig12_workloads,fig09b_power_gating_edp --quick
 *  --runs '*redis*'`, in-process: plan, filter to the redis slice,
 *  schedule, report. */
std::string
replaySliceReport(int jobs)
{
    using namespace sf::exp;
    const auto specs =
        registry().match("fig12_workloads,fig09b_power_gating_edp");
    PlanContext plan_ctx;
    plan_ctx.effort = Effort::Quick;

    std::vector<ExperimentResults> all;
    for (const ExperimentSpec *spec : specs) {
        auto runs = spec->plan(plan_ctx);
        std::erase_if(runs, [](const RunSpec &run) {
            return !globMatch("*redis*", run.id);
        });
        if (runs.empty())
            continue;
        SchedulerOptions sched;
        sched.jobs = jobs;
        sched.effort = Effort::Quick;
        ExperimentResults results;
        results.spec = spec;
        results.runs = runExperiment(*spec, runs, sched);
        for (const sf::exp::RunResult &r : results.runs)
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
replayGoldenBytes()
{
    return sf::exp::readFile(std::string(SF_SOURCE_DIR) +
                             "/tests/golden/replay_redis_quick.json");
}

TEST(ReplayWorkloads, MatchesGoldenJobs1)
{
    const std::string golden = replayGoldenBytes();
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(replaySliceReport(1), golden)
        << "trace replay no longer reproduces the pinned report";
}

TEST(ReplayWorkloads, MatchesGoldenJobs8)
{
    EXPECT_EQ(replaySliceReport(8), replayGoldenBytes());
}

} // namespace
