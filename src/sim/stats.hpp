/**
 * @file
 * Simulation statistics: latency distributions (linear and
 * HDR-style log-bucket), throughput, hop/flit-hop counters for the
 * energy model, escape usage.
 */

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "net/types.hpp"

namespace sf::sim {

/** Latency histogram with fixed-width bins and overflow bucket. */
class LatencyHistogram
{
  public:
    explicit LatencyHistogram(std::size_t bins = 4096)
        : bins_(bins, 0)
    {
    }

    void
    record(Cycle latency)
    {
        ++count_;
        sum_ += latency;
        max_ = std::max(max_, latency);
        if (latency < bins_.size())
            ++bins_[latency];
        else
            ++overflow_;
    }

    std::uint64_t count() const { return count_; }

    /** Samples folded into the terminal overflow bucket. */
    std::uint64_t overflow() const { return overflow_; }

    /** Largest recorded latency (exact, even for overflows). */
    Cycle max() const { return max_; }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                        static_cast<double>(count_)
                      : 0.0;
    }

    /**
     * Latency at quantile @p q in [0, 1]. Samples beyond the linear
     * range live in a terminal overflow bucket; a quantile landing
     * there reports the observed maximum (the honest upper bound)
     * rather than the meaningless bin count.
     */
    Cycle
    percentile(double q) const
    {
        if (count_ == 0)
            return 0;
        const auto target = static_cast<std::uint64_t>(
            q * static_cast<double>(count_ - 1));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < bins_.size(); ++i) {
            seen += bins_[i];
            if (seen > target)
                return static_cast<Cycle>(i);
        }
        return max_;  // quantile falls in the overflow bucket
    }

    void
    reset()
    {
        std::fill(bins_.begin(), bins_.end(), 0ull);
        overflow_ = count_ = sum_ = 0;
        max_ = 0;
    }

  private:
    std::vector<std::uint64_t> bins_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    Cycle max_ = 0;
};

/** Percentile summary extracted from a latency distribution. */
struct LatencySummary {
    std::uint64_t count = 0;
    double mean = 0.0;
    Cycle p50 = 0;
    Cycle p95 = 0;
    Cycle p99 = 0;
    Cycle p999 = 0;
    Cycle max = 0;
};

/**
 * HDR-style log-bucket latency histogram: fixed-size storage whose
 * buckets grow geometrically, so any latency from 0 to 2^31 cycles
 * records in O(1) with no allocation and ~3% worst-case relative
 * value error (32 sub-buckets per power of two; values below 32
 * are exact). Designed for the simulator's measure-path: record()
 * is one array increment, and two histograms merge by element-wise
 * addition, which is associative and deterministic — order-
 * independent aggregation is correct by construction.
 *
 * Percentiles report the lower bound of the quantile's bucket
 * (clamped to the exact observed max), so the extraction is a pure
 * function of the recorded multiset: any event stream that fills
 * identical buckets reports identical p50/p95/p99/p999/max.
 */
class LogHistogram
{
  public:
    /** Sub-bucket resolution: 2^5 = 32 buckets per octave. */
    static constexpr int kSubBits = 5;
    static constexpr std::uint64_t kSub = 1ull << kSubBits;
    /** Octave groups: values < 2^31 bucket exactly; larger values
     *  clamp into the terminal bucket (max() stays exact). */
    static constexpr int kGroups = 27;
    static constexpr std::size_t kBuckets =
        static_cast<std::size_t>(kGroups) * kSub;

    /** Bucket index of @p v (total order, monotone in v). */
    static constexpr std::size_t
    bucketIndex(Cycle v)
    {
        if (v < kSub)
            return static_cast<std::size_t>(v);
        const int msb = std::bit_width(v) - 1;
        const int group = msb - kSubBits + 1;
        if (group >= kGroups)
            return kBuckets - 1;
        const std::uint64_t sub =
            (v >> (msb - kSubBits)) & (kSub - 1);
        return static_cast<std::size_t>(group) * kSub +
               static_cast<std::size_t>(sub);
    }

    /** Smallest value mapping to bucket @p index. */
    static constexpr Cycle
    bucketFloor(std::size_t index)
    {
        if (index < kSub)
            return static_cast<Cycle>(index);
        const std::size_t group = index >> kSubBits;
        const std::uint64_t sub = index & (kSub - 1);
        return (kSub + sub) << (group - 1);
    }

    void
    record(Cycle latency)
    {
        ++count_;
        sum_ += latency;
        max_ = std::max(max_, latency);
        ++bins_[bucketIndex(latency)];
    }

    /** Element-wise merge: associative, commutative, lossless. */
    void
    merge(const LogHistogram &other)
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            bins_[i] += other.bins_[i];
        count_ += other.count_;
        sum_ += other.sum_;
        max_ = std::max(max_, other.max_);
    }

    std::uint64_t count() const { return count_; }

    Cycle max() const { return max_; }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                        static_cast<double>(count_)
                      : 0.0;
    }

    /**
     * Latency at quantile @p q in [0, 1]: the floor of the bucket
     * holding the target rank, clamped to the exact observed max
     * (so percentile(1.0) == max()).
     */
    Cycle
    percentile(double q) const
    {
        if (count_ == 0)
            return 0;
        const auto target = static_cast<std::uint64_t>(
            q * static_cast<double>(count_ - 1));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            seen += bins_[i];
            if (seen > target)
                return std::min(bucketFloor(i), max_);
        }
        return max_;
    }

    /**
     * Count of samples recorded after @p snapshot was copied from
     * this histogram (windowed counting for reconvergence telemetry).
     */
    std::uint64_t
    countSince(const LogHistogram &snapshot) const
    {
        return count_ - snapshot.count_;
    }

    /**
     * Latency at quantile @p q among only the samples recorded
     * after @p snapshot was copied from this histogram. Because
     * merge/record are element-wise, the bin deltas are exactly the
     * window's multiset — the windowed percentile is as
     * deterministic as the cumulative one. Returns 0 for an empty
     * window.
     */
    Cycle
    percentileSince(const LogHistogram &snapshot, double q) const
    {
        const std::uint64_t n = count_ - snapshot.count_;
        if (n == 0)
            return 0;
        const auto target = static_cast<std::uint64_t>(
            q * static_cast<double>(n - 1));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            seen += bins_[i] - snapshot.bins_[i];
            if (seen > target)
                return std::min(bucketFloor(i), max_);
        }
        return max_;
    }

    /** The standard reporting cut: p50/p95/p99/p999/max + mean. */
    LatencySummary
    summary() const
    {
        LatencySummary s;
        s.count = count_;
        s.mean = mean();
        s.p50 = percentile(0.50);
        s.p95 = percentile(0.95);
        s.p99 = percentile(0.99);
        s.p999 = percentile(0.999);
        s.max = max_;
        return s;
    }

    void
    reset()
    {
        bins_.fill(0);
        count_ = sum_ = 0;
        max_ = 0;
    }

  private:
    std::array<std::uint64_t, kBuckets> bins_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    Cycle max_ = 0;
};

/** Counters accumulated by the network model. */
struct NetStats {
    std::uint64_t injectedPackets = 0;
    std::uint64_t deliveredPackets = 0;
    std::uint64_t injectedFlits = 0;
    std::uint64_t deliveredFlits = 0;

    /** Measured-window deliveries only. */
    std::uint64_t measuredPackets = 0;
    std::uint64_t measuredHops = 0;
    /** Flit-hops of measured packets (energy: bits x hops). */
    std::uint64_t measuredFlitHops = 0;
    LatencyHistogram totalLatency;    ///< create -> eject
    LatencyHistogram networkLatency;  ///< network entry -> eject
    /** HDR-style log-bucket twins of the two linear histograms:
     *  full dynamic range (tail percentiles stay meaningful under
     *  overload) at fixed size, recorded on the same measure path. */
    LogHistogram totalLatencyLog;
    LogHistogram networkLatencyLog;

    /** All-time flit-hops (for whole-run energy accounting). */
    std::uint64_t flitHops = 0;

    std::uint64_t escapeTransfers = 0;  ///< packets forced to escape
    std::uint64_t escapeHops = 0;
    std::uint64_t droppedUnroutable = 0;  ///< dst gated mid-flight

    /**
     * Topology generations applied (onTopologyChanged calls); the
     * model's current epoch. Knob-independent: identical at every
     * job count.
     */
    std::uint64_t topologyEpochs = 0;

    /**
     * Per-phase wall-clock breakdown (SimConfig::profilePhases):
     * steady-clock nanoseconds accumulated in each of the four
     * cycle phases — Land (arrival heap drain + loopbacks),
     * Snapshot (congestion freeze), Route (barrier routing of
     * congestion-aware policies), Arbitrate (the serial σ-order
     * walk, including routes computed lazily inside it) — over
     * phaseProfiledCycles step() calls. Wall-clock only: changes
     * no simulated event and never lands in a report.
     */
    std::uint64_t phaseProfiledCycles = 0;
    std::uint64_t phaseLandNs = 0;
    std::uint64_t phaseSnapshotNs = 0;
    std::uint64_t phaseRouteNs = 0;
    std::uint64_t phaseArbitrateNs = 0;

    double
    avgHops() const
    {
        return measuredPackets
                   ? static_cast<double>(measuredHops) /
                     static_cast<double>(measuredPackets)
                   : 0.0;
    }
};

} // namespace sf::sim
