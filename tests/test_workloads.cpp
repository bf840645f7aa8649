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

#include <bit>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/string_figure.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/scheduler.hpp"
#include "net/rng.hpp"
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
    CacheLevel<4> cache(32 * 1024);
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1020, false).hit);  // same line
    EXPECT_FALSE(cache.access(0x1040, false).hit); // next line
}

TEST(CacheLevel, LruEviction)
{
    // 4-way set: the 5th distinct line in one set evicts the LRU.
    CacheLevel<4> cache(32 * 1024);  // 128 sets, 64B lines
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
    CacheLevel<4> cache(32 * 1024);
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

/** A line address that shares the L1, L2 and L3 set of line 0. */
constexpr std::uint64_t kAllLevelSetStride = 2 * 1024 * 1024;

TEST(CacheHierarchy, DirtyLineReachesDramAfterLeavingL3)
{
    // Line 0 is written, then 26 other lines of its set are read.
    // L1 evicts it dirty into L2 (a hit there), L2 evicts it dirty
    // into L3 (a hit there), and only L3's eviction reaches DRAM:
    // one write of line 0, just before the read that displaces it.
    CacheHierarchy caches;
    std::vector<MemAccess> dram;
    caches.access(0, true, dram);
    for (std::uint64_t k = 1; k <= 25; ++k)
        caches.access(k * kAllLevelSetStride, false, dram);
    ASSERT_EQ(dram.size(), 26u);
    for (std::uint64_t k = 0; k <= 25; ++k) {
        EXPECT_EQ(dram[k].addr, k * kAllLevelSetStride);
        EXPECT_FALSE(dram[k].isWrite) << "op " << k;
    }

    caches.access(26 * kAllLevelSetStride, false, dram);
    ASSERT_EQ(dram.size(), 28u);
    EXPECT_EQ(dram[26].addr, 0u);
    EXPECT_TRUE(dram[26].isWrite);
    EXPECT_EQ(dram[27].addr, 26 * kAllLevelSetStride);
    EXPECT_FALSE(dram[27].isWrite);
}

TEST(CacheHierarchy, DirtyL1LineWritesBackWithoutRefetch)
{
    // L1 hits never reach L2 or L3, so while line 0 stays hot in L1
    // its clean copies leave both. When L1 finally evicts it, it
    // re-enters L2 and L3 without a fetch (write-validate) and
    // reaches DRAM once, as a write.
    CacheHierarchy caches;
    std::vector<MemAccess> dram;
    caches.access(0, true, dram);
    for (std::uint64_t k = 1; k <= 40; ++k) {
        caches.access(k * kAllLevelSetStride, false, dram);
        caches.access(0, false, dram);
    }
    for (std::uint64_t k = 41; k <= 100; ++k)
        caches.access(k * kAllLevelSetStride, false, dram);

    std::size_t reads = 0, line0_reads = 0, line0_writes = 0;
    for (const MemAccess &op : dram) {
        reads += op.isWrite ? 0 : 1;
        line0_reads += op.addr == 0 && !op.isWrite ? 1 : 0;
        line0_writes += op.addr == 0 && op.isWrite ? 1 : 0;
    }
    EXPECT_EQ(reads, 101u);
    EXPECT_EQ(line0_reads, 1u);
    EXPECT_EQ(line0_writes, 1u);
    EXPECT_EQ(dram.size(), 102u);
}

// The cache model written the earlier way: 16-byte ways stamped
// with a per-level u32 access clock; the victim is the first
// invalid way, else the smallest stamp. CacheLevel keeps each set
// in recency order instead; MatchesTimestampReference pins the two
// to each other.
namespace reference {

struct Outcome {
    bool hit = false;
    bool evictedDirty = false;
    std::uint64_t evictedLine = 0;
};

class CacheLevel
{
  public:
    CacheLevel(std::uint64_t size_bytes, int associativity)
        : numSets_(size_bytes / (64 * static_cast<std::uint64_t>(
                                          associativity))),
          ways_(associativity), storage_(numSets_ * associativity)
    {
    }

    Outcome
    access(std::uint64_t addr, bool is_write)
    {
        const std::uint64_t line = addr >> 6;
        const std::uint64_t tag = line / numSets_;
        Way *ways = &storage_[(line & (numSets_ - 1)) *
                              static_cast<std::size_t>(ways_)];
        ++useClock_;

        Outcome outcome;
        Way *lru = &ways[0];
        for (int w = 0; w < ways_; ++w) {
            Way &way = ways[w];
            if (way.valid && way.tag == tag) {
                way.lastUse = useClock_;
                way.dirty |= is_write;
                ++hits_;
                outcome.hit = true;
                return outcome;
            }
            if (!way.valid) {
                lru = &way;
                break;
            }
            if (way.lastUse < lru->lastUse)
                lru = &way;
        }
        ++misses_;
        if (lru->valid && lru->dirty) {
            outcome.evictedDirty = true;
            outcome.evictedLine =
                (lru->tag * numSets_ + (line & (numSets_ - 1))) << 6;
        }
        *lru = Way{tag, useClock_, true, is_write};
        return outcome;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Way {
        std::uint64_t tag = 0;
        std::uint32_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::uint64_t numSets_;
    int ways_;
    std::vector<Way> storage_;
    std::uint32_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

class CacheHierarchy
{
  public:
    void
    access(std::uint64_t addr, bool is_write,
           std::vector<MemAccess> &dram)
    {
        const auto r1 = l1_.access(addr, is_write);
        if (r1.evictedDirty) {
            const auto r2 = l2_.access(r1.evictedLine, true);
            if (!r2.hit && r2.evictedDirty)
                writebackToL3(r2.evictedLine, dram);
        }
        if (r1.hit)
            return;
        const auto r2 = l2_.access(addr, false);
        if (r2.evictedDirty)
            writebackToL3(r2.evictedLine, dram);
        if (r2.hit)
            return;
        const auto r3 = l3_.access(addr, false);
        if (r3.evictedDirty)
            dram.push_back(MemAccess{r3.evictedLine, true});
        if (r3.hit)
            return;
        dram.push_back(MemAccess{addr, false});
    }

    const CacheLevel &l1() const { return l1_; }
    const CacheLevel &l3() const { return l3_; }

  private:
    void
    writebackToL3(std::uint64_t line, std::vector<MemAccess> &dram)
    {
        const auto out = l3_.access(line, true);
        if (!out.hit && out.evictedDirty)
            dram.push_back(MemAccess{out.evictedLine, true});
    }

    CacheLevel l1_{32 * 1024, 4};
    CacheLevel l2_{2 * 1024 * 1024, 8};
    CacheLevel l3_{32ull * 1024 * 1024, 16};
};

} // namespace reference

/**
 * A generated access stream: 75% of accesses go to a hot pool of
 * lines crowded into two sets (half from the bottom of the tag
 * range, half from its top), 25% to random lines below
 * @p addr_limit; ~30% are writes. Pool picks are skewed toward the
 * pool's front, so hits, misses and dirty evictions all occur.
 */
std::vector<MemAccess>
generatedStream(std::uint64_t seed, std::size_t length,
                std::uint64_t set_stride, std::uint64_t addr_limit,
                std::size_t pool_lines)
{
    Rng rng(seed);
    std::vector<std::uint64_t> pool;
    const std::uint64_t top = addr_limit - 64;
    for (std::size_t i = 0; i < pool_lines; ++i) {
        const std::uint64_t k = i / 2;
        pool.push_back(i % 2 == 0 ? k * set_stride
                                  : top - k * set_stride);
    }
    std::vector<MemAccess> stream(length);
    for (MemAccess &a : stream) {
        a.addr = rng.chance(0.75)
                     ? pool[rng.below(rng.below(pool_lines) + 1)] +
                           rng.below(64)
                     : rng.below(addr_limit);
        a.isWrite = rng.chance(0.3);
    }
    return stream;
}

/** What one differential run saw. */
struct CacheCoverage {
    std::size_t mismatches = 0;
    std::size_t hits = 0;
    std::size_t dirtyEvictions = 0;
};

/** Run CacheLevel<Ways> and the reference over one stream. */
template <int Ways>
CacheCoverage
compareLevel(std::uint64_t num_sets, std::uint64_t seed)
{
    // A tag must stay below 2^31 - 1 (cache_model.hpp).
    const std::uint64_t limit = (0x7fffffffull * num_sets) << 6;
    const std::uint64_t size = num_sets * Ways * 64;
    CacheLevel<Ways> got(size);
    reference::CacheLevel want(size, Ways);
    CacheCoverage cov;
    for (const MemAccess &a :
         generatedStream(seed, 20000, num_sets * 64, limit,
                         3 * Ways)) {
        const auto g = got.access(a.addr, a.isWrite);
        const auto w = want.access(a.addr, a.isWrite);
        if (g.hit != w.hit || g.evictedDirty != w.evictedDirty ||
            g.evictedLine != w.evictedLine) {
            if (cov.mismatches++ < 5)
                ADD_FAILURE()
                    << Ways << "-way, " << num_sets
                    << " sets: access to " << a.addr << " hit "
                    << g.hit << "/" << w.hit << " evicted "
                    << g.evictedDirty << "/" << w.evictedDirty
                    << " line " << g.evictedLine << "/"
                    << w.evictedLine;
        }
        cov.hits += w.hit ? 1 : 0;
        cov.dirtyEvictions += w.evictedDirty ? 1 : 0;
    }
    EXPECT_EQ(got.hits(), want.hits());
    EXPECT_EQ(got.misses(), want.misses());
    return cov;
}

TEST(CacheLevel, MatchesTimestampReference)
{
    for (const std::uint64_t sets : {1u, 8u, 128u}) {
        for (const std::uint64_t seed : {1u, 2u}) {
            for (const CacheCoverage &cov :
                 {compareLevel<4>(sets, seed),
                  compareLevel<8>(sets, seed),
                  compareLevel<16>(sets, seed)}) {
                EXPECT_EQ(cov.mismatches, 0u);
                EXPECT_GT(cov.hits, 1000u);
                EXPECT_GT(cov.dirtyEvictions, 100u);
            }
        }
    }
}

TEST(CacheHierarchy, MatchesTimestampReference)
{
    // The hot pool shares one set at every level; random lines
    // reach the top of L1's tag range.
    const std::uint64_t limit = (0x7fffffffull * 128) << 6;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        CacheHierarchy got;
        reference::CacheHierarchy want;
        std::vector<MemAccess> got_dram, want_dram;
        std::size_t writes = 0;
        for (const MemAccess &a :
             generatedStream(seed, 100000, kAllLevelSetStride, limit,
                             64)) {
            got.access(a.addr, a.isWrite, got_dram);
            want.access(a.addr, a.isWrite, want_dram);
        }
        ASSERT_EQ(got_dram.size(), want_dram.size()) << seed;
        for (std::size_t i = 0; i < want_dram.size(); ++i) {
            ASSERT_EQ(got_dram[i].addr, want_dram[i].addr) << i;
            ASSERT_EQ(got_dram[i].isWrite, want_dram[i].isWrite) << i;
            writes += want_dram[i].isWrite ? 1 : 0;
        }
        EXPECT_GT(writes, 1000u);
        EXPECT_EQ(got.l1().hits(), want.l1().hits());
        EXPECT_EQ(got.l1().misses(), want.l1().misses());
        EXPECT_EQ(got.l3().hits(), want.l3().hits());
        EXPECT_EQ(got.l3().misses(), want.l3().misses());
        EXPECT_GT(want.l3().hits(), 1000u);
    }
}

/** FNV-1a over every op's (instrId, addr, isWrite), little-endian. */
std::uint64_t
traceDigest(const Trace &trace)
{
    std::uint64_t h = fnv1a64("");
    for (const TraceOp &op : trace.ops) {
        char bytes[17];
        for (int i = 0; i < 8; ++i) {
            bytes[i] = static_cast<char>(op.instrId >> (8 * i));
            bytes[8 + i] = static_cast<char>(op.addr >> (8 * i));
        }
        bytes[16] = op.isWrite ? 1 : 0;
        h = fnv1a64(std::string_view(bytes, sizeof bytes), h);
    }
    return h;
}

TEST(Generators, AllWorkloadsProduceFullTraces)
{
    // Pinned values of each seed-1, 2,000-op trace after the default
    // warm-up: the op digest, totalInstructions, and the bit
    // patterns of the L1 and L3 hit rates. A cache-model or stream
    // change that moves any trace shows here.
    struct Pinned {
        std::uint64_t digest;
        std::uint64_t instructions;
        std::uint64_t l1Rate;
        std::uint64_t l3Rate;
    };
    constexpr Pinned kPinned[] = {
        {0xad370b762db3ca28ull, 29210, 0x3fe400aa4a84f0f7ull,
         0x3fe06c0db4feb8ceull},  // wordcount
        {0x633ed74e47ea7590ull, 71360, 0x3fe7f39bafe302cdull,
         0x3f7f46c71f4299c5ull},  // grep
        {0xb89338f4705e3d05ull, 19872, 0x3fdf65a039596980ull,
         0x3fd4615b9796b757ull},  // sort
        {0xa1c78f7d35e185cfull, 22872, 0x3fe23e402a77546bull,
         0x3fcc100780331d1cull},  // pagerank
        {0xc409035c5f53b8d8ull, 29028, 0x3f011ed8ed40857dull,
         0x3fc75e82a7e7bbcbull},  // redis
        {0x4ca70a24d238391aull, 111800, 0x3fcfc4cef874a94bull,
         0x3fde527ea25f911bull},  // memcached
        {0xb80a2723501e1bbaull, 113706, 0x3fea0196ad2c2936ull,
         0x3fb833ff9c3cb542ull},  // kmeans
        {0x83aa4e1bc5720a6cull, 87704, 0x3fd555553f3a21acull,
         0x3feaf67770d56ddcull},  // matmul
    };
    static_assert(std::size(kPinned) == kAllWorkloads.size());
    for (std::size_t i = 0; i < kAllWorkloads.size(); ++i) {
        const Workload w = kAllWorkloads[i];
        const Trace trace = generateTrace(w, 1, 2000);
        EXPECT_EQ(trace.ops.size(), 2000u) << workloadName(w);
        EXPECT_GT(trace.totalInstructions, 2000u);
        // Timestamps must be monotonically non-decreasing.
        for (std::size_t j = 1; j < trace.ops.size(); ++j)
            ASSERT_GE(trace.ops[j].instrId,
                      trace.ops[j - 1].instrId);
        EXPECT_EQ(traceDigest(trace), kPinned[i].digest)
            << workloadName(w);
        EXPECT_EQ(trace.totalInstructions, kPinned[i].instructions)
            << workloadName(w);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(trace.l1HitRate),
                  kPinned[i].l1Rate)
            << workloadName(w);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(trace.l3HitRate),
                  kPinned[i].l3Rate)
            << workloadName(w);
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
