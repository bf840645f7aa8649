/**
 * @file
 * Tests for the open-loop load subsystem: arrival-process
 * determinism, the HDR-style log-bucket histogram (bucket geometry,
 * hand-computed percentiles, merge associativity), and the
 * hockey-stick experiment family's byte-identity across job
 * counts, pinned against a committed golden report.
 *
 * The golden (tests/golden/hockey_sf64_quick.json) is the SF slice
 * of the quick hockey_stick grid at --jobs 1. Like the engine
 * identity golden, an intentional simulator- or schedule-behaviour
 * change must regenerate it in the same commit:
 *   sfx run hockey_stick --quick --runs '*SF*' --jobs 1 \
 *       --out tests/golden/hockey_sf64_quick.json
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/traffic.hpp"

#ifndef SF_SOURCE_DIR
#define SF_SOURCE_DIR "."
#endif

namespace {

using namespace sf;
using namespace sf::sim;

// ------------------------------------------------ arrival processes

std::vector<Cycle>
schedule(const ArrivalConfig &cfg, double rate, std::uint64_t seed,
         std::size_t n)
{
    OpenLoopSource src(cfg, rate, seed);
    std::vector<Cycle> arrivals;
    arrivals.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        arrivals.push_back(src.next());
    return arrivals;
}

TEST(OpenLoopSource, SameSeedSameScheduleEveryProcess)
{
    for (const ArrivalProcess process : kAllArrivalProcesses) {
        ArrivalConfig cfg;
        cfg.process = process;
        const auto a = schedule(cfg, 0.02, 7, 500);
        const auto b = schedule(cfg, 0.02, 7, 500);
        EXPECT_EQ(a, b) << arrivalProcessName(process);
        // The stream is nondecreasing (several arrivals may share
        // a cycle) and actually advances.
        for (std::size_t i = 1; i < a.size(); ++i)
            ASSERT_LE(a[i - 1], a[i])
                << arrivalProcessName(process) << " @" << i;
        EXPECT_GT(a.back(), a.front())
            << arrivalProcessName(process);
        // A different seed decorrelates the schedule.
        EXPECT_NE(a, schedule(cfg, 0.02, 8, 500))
            << arrivalProcessName(process);
    }
}

TEST(OpenLoopSource, LongRunRateMatchesNominalEveryProcess)
{
    // All three processes offer the same long-run load: over many
    // arrivals the empirical rate must track the nominal one (the
    // on/off sources via B x rate at duty 1/B). Tolerances are
    // loose — this is a sanity bound, not a statistics test; the
    // heavy-tailed source converges slowest.
    for (const ArrivalProcess process : kAllArrivalProcesses) {
        ArrivalConfig cfg;
        cfg.process = process;
        const std::size_t n = 200000;
        const auto a = schedule(cfg, 0.02, 11, n);
        const double measured_rate =
            static_cast<double>(n - 1) /
            static_cast<double>(a.back() - a.front());
        EXPECT_NEAR(measured_rate, 0.02, 0.02 * 0.25)
            << arrivalProcessName(process);
    }
}

TEST(OpenLoopSource, ZeroRateNeverArrives)
{
    ArrivalConfig cfg;
    OpenLoopSource src(cfg, 0.0, 1);
    EXPECT_EQ(src.next(), std::numeric_limits<Cycle>::max());
}

TEST(OpenLoopSource, NamesRoundTrip)
{
    for (const ArrivalProcess process : kAllArrivalProcesses)
        EXPECT_EQ(parseArrivalProcess(arrivalProcessName(process)),
                  process);
    EXPECT_THROW(parseArrivalProcess("fractal"),
                 std::invalid_argument);
}

// ---------------------------------------------------- log histogram

TEST(LogHistogram, BucketGeometryIsMonotoneAndConsistent)
{
    // Values below one octave of sub-buckets are exact.
    for (Cycle v = 0; v < LogHistogram::kSub; ++v) {
        EXPECT_EQ(LogHistogram::bucketIndex(v), v);
        EXPECT_EQ(LogHistogram::bucketFloor(v), v);
    }
    // Every in-range value lands in a bucket whose floor is <= the
    // value, and floors are the smallest members of their bucket.
    for (const Cycle v :
         {32u, 33u, 63u, 64u, 100u, 992u, 1000u, 1023u, 1024u,
          65535u, 1u << 20, (1u << 30) + 17u}) {
        const std::size_t idx = LogHistogram::bucketIndex(v);
        EXPECT_LE(LogHistogram::bucketFloor(idx), v) << v;
        EXPECT_EQ(LogHistogram::bucketIndex(
                      LogHistogram::bucketFloor(idx)),
                  idx)
            << v;
        if (idx + 1 < LogHistogram::kBuckets)
            EXPECT_GT(LogHistogram::bucketFloor(idx + 1), v) << v;
        // ~3% worst-case relative error: floor within 1/32.
        EXPECT_LE(static_cast<double>(
                      v - LogHistogram::bucketFloor(idx)),
                  static_cast<double>(v) / 32.0 + 1.0)
            << v;
    }
    // Indices are monotone in the value.
    Cycle prev = 0;
    for (Cycle v = 1; v < (1u << 20); v = v * 2 + 1) {
        EXPECT_GE(LogHistogram::bucketIndex(v),
                  LogHistogram::bucketIndex(prev));
        prev = v;
    }
    // Beyond-range values clamp into the terminal bucket.
    EXPECT_EQ(LogHistogram::bucketIndex(Cycle{1} << 40),
              LogHistogram::kBuckets - 1);
}

TEST(LogHistogram, HandComputedPercentiles)
{
    LogHistogram h;
    for (Cycle v = 1; v <= 10; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 5.5);
    // Rank target = floor(q * (count-1)); values 1..10 are exact
    // buckets, so: q=0 -> rank 0 -> 1; q=0.5 -> rank 4 -> 5;
    // q=0.95 and q=0.999 -> rank 8 -> 9; q=1.0 -> rank 9 -> 10.
    EXPECT_EQ(h.percentile(0.0), 1u);
    EXPECT_EQ(h.percentile(0.5), 5u);
    EXPECT_EQ(h.percentile(0.95), 9u);
    EXPECT_EQ(h.percentile(1.0), 10u);
    EXPECT_EQ(h.max(), 10u);

    const LatencySummary s = h.summary();
    EXPECT_EQ(s.count, 10u);
    EXPECT_EQ(s.p50, 5u);
    EXPECT_EQ(s.p95, 9u);
    EXPECT_EQ(s.p999, 9u);
    EXPECT_EQ(s.max, 10u);
}

TEST(LogHistogram, BucketedValuesReportTheBucketFloor)
{
    // 1000 lives in the [992, 1024) bucket: percentiles report the
    // floor (992), max stays exact.
    LogHistogram h;
    h.record(1000);
    EXPECT_EQ(h.percentile(0.5), 992u);
    EXPECT_EQ(h.max(), 1000u);

    // Distinct sub-buckets within the octave stay ordered: 1000
    // lives in [992, 1008), 1010 in [1008, 1024).
    LogHistogram g;
    g.record(1000);
    g.record(1010);
    EXPECT_EQ(g.percentile(0.0), 992u);
    EXPECT_EQ(g.percentile(1.0), 1008u);
    EXPECT_EQ(g.max(), 1010u);

    // When the quantile's bucket floor overshoots the observed
    // max, the clamp keeps percentile(1.0) honest.
    LogHistogram top;
    top.record(1008);
    EXPECT_EQ(top.percentile(1.0), 1008u);
    EXPECT_EQ(top.max(), 1008u);
}

TEST(LogHistogram, MergeIsAssociativeAndLossless)
{
    // Three histograms fed from disjoint deterministic streams.
    Rng rng(99);
    LogHistogram parts[3];
    LogHistogram all;
    for (int i = 0; i < 3000; ++i) {
        const auto v = static_cast<Cycle>(rng.below(1u << 18));
        parts[i % 3].record(v);
        all.record(v);
    }

    // (a + b) + c  ==  a + (b + c)  ==  every-sample-at-once.
    LogHistogram left = parts[0];
    left.merge(parts[1]);
    left.merge(parts[2]);
    LogHistogram right = parts[2];
    {
        LogHistogram bc = parts[1];
        bc.merge(parts[2]);
        right = parts[0];
        right.merge(bc);
    }
    for (const LogHistogram *m : {&left, &right}) {
        EXPECT_EQ(m->count(), all.count());
        EXPECT_EQ(m->max(), all.max());
        EXPECT_DOUBLE_EQ(m->mean(), all.mean());
        for (const double q :
             {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0})
            EXPECT_EQ(m->percentile(q), all.percentile(q)) << q;
    }
}

TEST(LogHistogram, ResetClearsEverything)
{
    LogHistogram h;
    h.record(7);
    h.record(70000);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(1.0), 0u);
}

// ------------------------------------------- hockey-stick identity

using namespace sf::exp;

/** The driver's `sfx run hockey_stick --quick --runs '*SF*'` flow,
 *  in-process: plan, filter to the String Figure slice, schedule,
 *  report — at any job count and routing policy. */
std::string
hockeySliceReport(int jobs, core::RoutingPolicyKind policy =
                                core::RoutingPolicyKind::Greedy)
{
    const auto specs = registry().match("hockey_stick");
    PlanContext plan_ctx;
    plan_ctx.effort = Effort::Quick;

    std::vector<ExperimentResults> all;
    for (const ExperimentSpec *spec : specs) {
        auto runs = spec->plan(plan_ctx);
        std::erase_if(runs, [](const RunSpec &run) {
            return !globMatch("*SF*", run.id);
        });
        if (runs.empty())
            continue;
        SchedulerOptions sched;
        sched.jobs = jobs;
        sched.policy = policy;
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
    ropts.policy = policy;
    return buildReport(all, ropts).dump(2) + "\n";
}

std::string
hockeyGoldenBytes()
{
    return readFile(std::string(SF_SOURCE_DIR) +
                    "/tests/golden/hockey_sf64_quick.json");
}

TEST(HockeyStick, MatchesGoldenJobs1)
{
    const std::string golden = hockeyGoldenBytes();
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(hockeySliceReport(1), golden)
        << "the open-loop schedule or tail extraction no longer "
           "reproduces the pinned report";
}

TEST(HockeyStick, MatchesGoldenJobs8)
{
    EXPECT_EQ(hockeySliceReport(8), hockeyGoldenBytes());
}

/** The UGAL policy rides the same determinism contract: its own
 *  committed golden (tests/golden/hockey_sf64_ugal_quick.json,
 *  regenerated via `sfx run hockey_stick --quick --runs '*SF*'
 *  --jobs 1 --policy ugal --out ...`) must be byte-identical at
 *  jobs 1 and 8. */
TEST(HockeyStick, UgalMatchesGoldenAcrossMatrix)
{
    const std::string golden =
        readFile(std::string(SF_SOURCE_DIR) +
                 "/tests/golden/hockey_sf64_ugal_quick.json");
    ASSERT_FALSE(golden.empty());
    for (const int jobs : {1, 8}) {
        EXPECT_EQ(hockeySliceReport(jobs,
                                    core::RoutingPolicyKind::Ugal),
                  golden)
            << "UGAL diverged at --jobs " << jobs;
    }
}

} // namespace
