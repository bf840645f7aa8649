#include "workloads/generators.hpp"

#include <algorithm>
#include <cmath>
#include <compare>
#include <memory>

#include "net/rng.hpp"
#include "net/shared_memo.hpp"
#include "workloads/cache_model.hpp"

namespace sf::wl {

namespace {

/** One CPU-side memory access emitted by a workload. */
struct CpuAccess {
    std::uint64_t instrGap = 1;  ///< instructions since previous
    std::uint64_t addr = 0;
    bool isWrite = false;
};

/** Interface the workload state machines implement. */
class Stream
{
  public:
    virtual ~Stream() = default;
    virtual CpuAccess next(Rng &rng) = 0;
};

constexpr std::uint64_t kMiB = 1024ull * 1024;
constexpr std::uint64_t kGiB = 1024ull * kMiB;

/**
 * Zipf-like popularity via a log-uniform rank: P(rank < k) grows
 * as ln(k)/ln(n), giving a realistic hot head plus a heavy tail
 * (a pure Zipf(~1) sampler concentrates half the mass on rank 0,
 * which makes cache-filtered traces degenerate).
 */
std::uint64_t
zipfRank(Rng &rng, std::uint64_t n, double spread = 1.0)
{
    const double u = rng.uniform() * spread;
    const double r =
        std::exp(u * std::log(static_cast<double>(n) + 1.0)) - 1.0;
    const auto rank = static_cast<std::uint64_t>(r);
    return rank < n ? rank : n - 1;
}

/**
 * Spark wordcount: stream the text corpus sequentially word by
 * word, hashing each word into a large aggregation table
 * (read-modify-write at a random-ish bucket).
 */
class WordcountStream : public Stream
{
  public:
    CpuAccess
    next(Rng &rng)
    {
        switch (phase_++) {
          case 0:  // read the next word from the corpus
            cursor_ = (cursor_ + 8) % (1 * kGiB);
            return {14, kCorpusBase + cursor_, false};
          case 1:  // probe the hash bucket
            bucket_ = rng.below(128 * kMiB / 64) * 64;
            return {6, kTableBase + bucket_, false};
          default:  // bump the counter
            phase_ = 0;
            return {3, kTableBase + bucket_, true};
        }
    }

  private:
    static constexpr std::uint64_t kCorpusBase = 0;
    static constexpr std::uint64_t kTableBase = 2 * kGiB;
    std::uint64_t cursor_ = 0;
    std::uint64_t bucket_ = 0;
    int phase_ = 0;
};

/**
 * Spark grep: an almost pure sequential scan; rare matches append
 * to a small result buffer.
 */
class GrepStream : public Stream
{
  public:
    CpuAccess
    next(Rng &rng)
    {
        if (rng.chance(0.002)) {
            out_ += 64;
            return {4, kOutBase + out_ % (16 * kMiB), true};
        }
        cursor_ = (cursor_ + 16) % (2 * kGiB);
        return {9, cursor_, false};
    }

  private:
    static constexpr std::uint64_t kOutBase = 3 * kGiB;
    std::uint64_t cursor_ = 0;
    std::uint64_t out_ = 0;
};

/**
 * Spark sort: partition phase (sequential read, scattered partition
 * writes) alternating with merge phase (round-robin partition
 * reads, sequential writes).
 */
class SortStream : public Stream
{
  public:
    CpuAccess
    next(Rng &rng)
    {
        constexpr std::uint64_t kIn = 0;
        constexpr std::uint64_t kPart = 2 * kGiB;
        constexpr std::uint64_t kOut = 4 * kGiB;
        constexpr std::uint64_t kRegion = 1 * kGiB;
        constexpr int kPartitions = 64;

        if ((steps_++ / 262144) % 2 == 0) {
            // Partition phase: read a record, write it to a bucket.
            if (steps_ % 2 == 1) {
                in_ = (in_ + 32) % kRegion;
                return {8, kIn + in_, false};
            }
            const auto p = rng.below(kPartitions);
            partCursor_[p] = (partCursor_[p] + 32) %
                             (kRegion / kPartitions);
            return {6, kPart + p * (kRegion / kPartitions) +
                        partCursor_[p], true};
        }
        // Merge phase: round-robin partition reads, ordered writes.
        if (steps_ % 2 == 1) {
            const auto p = merge_++ % kPartitions;
            partCursor_[p] = (partCursor_[p] + 32) %
                             (kRegion / kPartitions);
            return {7, kPart + p * (kRegion / kPartitions) +
                        partCursor_[p], false};
        }
        out_ = (out_ + 32) % kRegion;
        return {5, kOut + out_, true};
    }

  private:
    std::uint64_t steps_ = 0;
    std::uint64_t in_ = 0;
    std::uint64_t out_ = 0;
    std::uint64_t merge_ = 0;
    std::uint64_t partCursor_[64] = {};
};

/**
 * Pagerank on a power-law graph (11M vertices, paper's Twitter
 * set): sequential offsets/edges, random gathers of neighbour
 * ranks, sequential rank writes.
 */
class PagerankStream : public Stream
{
  public:
    CpuAccess
    next(Rng &rng)
    {
        constexpr std::uint64_t kVertices = 11 * 1000 * 1000;
        constexpr std::uint64_t kOffsets = 0;        // 4B/vertex
        constexpr std::uint64_t kEdges = 1 * kGiB;
        constexpr std::uint64_t kRanks = 3 * kGiB;   // 8B/vertex

        if (edgesLeft_ == 0) {
            // Next vertex: read its offset, draw its degree.
            vertex_ = (vertex_ + 1) % kVertices;
            edgesLeft_ = 1 + zipfRank(rng, 64, 0.8);
            pendingWrite_ = true;
            return {5, kOffsets + vertex_ * 4, false};
        }
        --edgesLeft_;
        if (edgesLeft_ == 0 && pendingWrite_) {
            pendingWrite_ = false;
            return {4, kRanks + vertex_ * 8, true};
        }
        // Edge id (sequential) then neighbour rank (random gather);
        // fold both into alternating accesses.
        if ((toggle_ ^= 1) != 0) {
            edgeCursor_ = (edgeCursor_ + 4) % (2 * kGiB);
            return {3, kEdges + edgeCursor_, false};
        }
        return {3, kRanks + rng.below(kVertices) * 8, false};
    }

  private:
    std::uint64_t vertex_ = 0;
    std::uint64_t edgesLeft_ = 0;
    std::uint64_t edgeCursor_ = 0;
    int toggle_ = 0;
    bool pendingWrite_ = false;
};

/**
 * Redis: 50 clients issuing uniform-random GET/SET over a large
 * keyspace; values span a few cache lines.
 */
class RedisStream : public Stream
{
  public:
    CpuAccess
    next(Rng &rng)
    {
        constexpr std::uint64_t kKeys = 8 * 1000 * 1000;
        constexpr std::uint64_t kIndex = 0;          // hash table
        constexpr std::uint64_t kValues = 1 * kGiB;  // 256B objects

        if (linesLeft_ == 0) {
            key_ = rng.below(kKeys);
            isSet_ = rng.chance(0.3);
            linesLeft_ = 1 + rng.below(4);  // 64..256B values
            return {42, kIndex + key_ * 16, false};  // dict probe
        }
        --linesLeft_;
        return {6, kValues + key_ * 256 +
                   (3 - linesLeft_) * 64, isSet_};
    }

  private:
    std::uint64_t key_ = 0;
    std::uint64_t linesLeft_ = 0;
    bool isSet_ = false;
};

/**
 * Memcached (CloudSuite data caching): zipfian key popularity,
 * get/set ratio 0.8, small objects.
 */
class MemcachedStream : public Stream
{
  public:
    CpuAccess
    next(Rng &rng)
    {
        constexpr std::uint64_t kKeys = 4 * 1000 * 1000;
        constexpr std::uint64_t kIndex = 0;
        constexpr std::uint64_t kSlabs = 1 * kGiB;

        if (phase_ == 0) {
            key_ = zipfRank(rng, kKeys);
            isSet_ = !rng.chance(0.8);
            phase_ = 1;
            return {35, kIndex + key_ * 8, false};  // hash probe
        }
        if (phase_ == 1) {
            phase_ = 2;
            return {5, kSlabs + key_ * 128, isSet_};
        }
        phase_ = 0;
        return {4, kSlabs + key_ * 128 + 64, isSet_};
    }

  private:
    std::uint64_t key_ = 0;
    int phase_ = 0;
    bool isSet_ = false;
};

/**
 * K-means: repeated sequential sweeps over a point set far larger
 * than the L3, against a tiny hot centroid table.
 */
class KmeansStream : public Stream
{
  public:
    CpuAccess
    next(Rng &rng)
    {
        constexpr std::uint64_t kPoints = 512 * kMiB;  // point data
        constexpr std::uint64_t kCentroids = 2 * kGiB;
        constexpr std::uint64_t kAssign = 3 * kGiB;

        switch (phase_++) {
          case 0:  // next point (32B of features)
            point_ = (point_ + 32) % kPoints;
            return {10, point_, false};
          case 1:  // a centroid (hot, stays cached)
            return {18, kCentroids + rng.below(64) * 32, false};
          default:  // assignment write every few points
            phase_ = 0;
            if (rng.chance(0.25))
                return {4, kAssign + point_ / 8, true};
            return {4, kCentroids + rng.below(64) * 32, false};
        }
    }

  private:
    std::uint64_t point_ = 0;
    int phase_ = 0;
};

/**
 * Blocked dense matrix multiply (2048x2048 doubles): streaming A,
 * strided B columns (the cache-hostile part), accumulate into C.
 */
class MatMulStream : public Stream
{
  public:
    CpuAccess
    next(Rng &rng)
    {
        (void)rng;
        constexpr std::uint64_t kN = 2048;
        constexpr std::uint64_t kA = 0;
        constexpr std::uint64_t kB = 64 * kMiB;
        constexpr std::uint64_t kC = 128 * kMiB;
        constexpr std::uint64_t kBlock = 64;

        // Walk i,k,j in kBlock tiles; emit A[i][k], B[k][j],
        // C[i][j] per step with j fastest.
        const std::uint64_t bi = (tile_ / 3) % (kN / kBlock);
        const std::uint64_t bk = (tile_ / 3 / (kN / kBlock)) %
                                 (kN / kBlock);
        const std::uint64_t i = bi * kBlock + (step_ / kBlock) %
                                kBlock;
        const std::uint64_t k = bk * kBlock + step_ % kBlock;
        const std::uint64_t j = (step_ * 7) % kN;  // strided cols

        switch (phase_++) {
          case 0:
            return {2, kA + (i * kN + k) * 8, false};
          case 1:
            return {2, kB + (k * kN + j) * 8, false};
          default:
            phase_ = 0;
            ++step_;
            if (step_ % (kBlock * kBlock) == 0)
                ++tile_;
            return {2, kC + (i * kN + j) * 8, true};
        }
    }

  private:
    std::uint64_t step_ = 0;
    std::uint64_t tile_ = 0;
    int phase_ = 0;
};

std::unique_ptr<Stream>
makeStream(Workload w)
{
    switch (w) {
      case Workload::SparkWordcount:
        return std::make_unique<WordcountStream>();
      case Workload::SparkGrep:
        return std::make_unique<GrepStream>();
      case Workload::SparkSort:
        return std::make_unique<SortStream>();
      case Workload::Pagerank:
        return std::make_unique<PagerankStream>();
      case Workload::Redis:
        return std::make_unique<RedisStream>();
      case Workload::Memcached:
        return std::make_unique<MemcachedStream>();
      case Workload::Kmeans:
        return std::make_unique<KmeansStream>();
      case Workload::MatMul:
        return std::make_unique<MatMulStream>();
    }
    return nullptr;
}

} // namespace

std::string
workloadName(Workload w)
{
    switch (w) {
      case Workload::SparkWordcount: return "wordcount";
      case Workload::SparkGrep: return "grep";
      case Workload::SparkSort: return "sort";
      case Workload::Pagerank: return "pagerank";
      case Workload::Redis: return "redis";
      case Workload::Memcached: return "memcached";
      case Workload::Kmeans: return "kmeans";
      case Workload::MatMul: return "matmul";
    }
    return "?";
}

Trace
generateTrace(Workload w, std::uint64_t seed, std::size_t num_ops,
              std::size_t warmup_ops)
{
    Trace trace;
    trace.workload = workloadName(w);
    trace.ops.reserve(num_ops);

    Rng rng(seed ^ (static_cast<std::uint64_t>(w) << 32));
    auto stream = makeStream(w);
    CacheHierarchy caches;
    std::vector<MemAccess> dram;
    std::uint64_t instr = 0;
    std::uint64_t instr_base = 0;
    std::uint64_t discarded = 0;
    // Guard against pathological cache-friendliness: bound the CPU
    // stream at 400 accesses per requested DRAM op.
    const std::uint64_t access_cap = (num_ops + warmup_ops) * 400ull;

    for (std::uint64_t produced = 0;
         trace.ops.size() < num_ops && produced < access_cap;
         ++produced) {
        const CpuAccess access = stream->next(rng);
        instr += access.instrGap;
        dram.clear();
        caches.access(access.addr, access.isWrite, dram);
        for (const MemAccess &op : dram) {
            if (discarded < warmup_ops) {
                ++discarded;
                instr_base = instr;  // trace time starts after warmup
                continue;
            }
            if (trace.ops.size() >= num_ops)
                break;
            trace.ops.push_back(
                TraceOp{instr - instr_base, op.addr, op.isWrite});
        }
    }
    trace.totalInstructions = instr - instr_base;
    const auto &l1 = caches.l1();
    const auto &l3 = caches.l3();
    const auto rate = [](std::uint64_t h, std::uint64_t m) {
        return h + m ? static_cast<double>(h) /
                       static_cast<double>(h + m)
                     : 0.0;
    };
    trace.l1HitRate = rate(l1.hits(), l1.misses());
    trace.l3HitRate = rate(l3.hits(), l3.misses());
    return trace;
}

namespace {

struct TraceKey {
    Workload w;
    std::uint64_t seed;
    std::size_t numOps;
    std::size_t warmupOps;
    auto operator<=>(const TraceKey &) const = default;
};

/**
 * Strong entries: a trace is a few MB and the key space of one
 * process (workloads x one or two op counts) stays tiny, while a
 * run that releases its reference must not evict the trace the
 * next sequential run wants.
 */
net::SharedMemo<TraceKey, std::shared_ptr<const Trace>> &
traceMemo()
{
    static net::SharedMemo<TraceKey, std::shared_ptr<const Trace>> memo;
    return memo;
}

} // namespace

std::shared_ptr<const Trace>
sharedTrace(Workload w, std::uint64_t seed, std::size_t num_ops,
            std::size_t warmup_ops)
{
    return traceMemo().getOrBuild(
        TraceKey{w, seed, num_ops, warmup_ops}, [&] {
            return std::make_shared<const Trace>(
                generateTrace(w, seed, num_ops, warmup_ops));
        });
}

net::MemoStats
sharedTraceStats()
{
    return traceMemo().stats();
}

} // namespace sf::wl
