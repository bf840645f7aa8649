/**
 * @file
 * Synthetic generators for the paper's real workloads (Table IV).
 *
 * The paper collects Pin traces of Spark jobs, CloudSuite services,
 * Redis, and two kernels on a Xeon server. Those traces are not
 * redistributable, so each workload is reproduced as a synthetic
 * CPU-access stream with the workload's characteristic footprint,
 * locality, and read/write mix, filtered through the same
 * 32KB/2MB/32MB cache hierarchy the paper's tool models (see
 * docs/substitutions.md). Trace timestamps come from instruction
 * ids at an average CPI, exactly like the paper.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "net/shared_memo.hpp"
#include "workloads/trace.hpp"

namespace sf::wl {

/** The eight evaluated workloads (paper Table IV). */
enum class Workload {
    SparkWordcount,
    SparkGrep,
    SparkSort,
    Pagerank,
    Redis,
    Memcached,
    Kmeans,
    MatMul,
};

/** All workloads in the paper's Fig 12 order. */
inline constexpr std::array<Workload, 8> kAllWorkloads{
    Workload::SparkWordcount, Workload::SparkGrep,
    Workload::SparkSort,      Workload::Pagerank,
    Workload::Redis,          Workload::Memcached,
    Workload::Kmeans,         Workload::MatMul,
};

/** Display name matching the paper's figure labels. */
std::string workloadName(Workload w);

/**
 * Generate a DRAM trace of @p num_ops operations (paper: 100,000)
 * by streaming the workload through the cache hierarchy.
 *
 * @param warmup_ops DRAM operations discarded before collection
 *        begins. The paper records traces "after workload
 *        initialization": with cold caches a 32 MB L3 absorbs the
 *        first ~512K line fills without a single dirty writeback,
 *        so a realistic steady-state trace needs the hierarchy
 *        warmed past its capacity first.
 */
Trace generateTrace(Workload w, std::uint64_t seed,
                    std::size_t num_ops = 100000,
                    std::size_t warmup_ops = 700000);

/**
 * Memoised, thread-safe variant of generateTrace: experiment sweeps
 * replay the identical trace against every network design, and
 * generating it costs more than replaying it. A quick 10,000-op
 * trace takes 34-300 ms (700K warmup ops through the cache
 * hierarchy; grep to matmul, 4-core 2.0 GHz Xeon VM), one replay of
 * it on a 256-node design ~40-90 ms. Each key is generated once per
 * process (net::SharedMemo): concurrent first requests wait for
 * that one generation instead of repeating it. The shared pointer
 * keeps entries immutable and safe to hand to concurrent runs.
 */
std::shared_ptr<const Trace>
sharedTrace(Workload w, std::uint64_t seed,
            std::size_t num_ops = 100000,
            std::size_t warmup_ops = 700000);

/** Hits and builds (misses) of sharedTrace's memo so far. */
net::MemoStats sharedTraceStats();

} // namespace sf::wl
