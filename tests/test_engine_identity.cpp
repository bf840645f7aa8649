/**
 * @file
 * A/B pin of the allocation-free cycle engine against the seed
 * engine: tests/golden/fig1_n64_quick.json was generated by the
 * pre-refactor (priority_queue + deque + per-hop vector) engine on
 * the n=64 slice of the quick `fig1*` grid, with `--jobs 1`. The
 * rebuilt engine must reproduce that report byte-for-byte — same
 * saturation rates, same latency distributions, same JSON bytes —
 * at any job count, because the refactor reorganised the data plane
 * without changing a single simulated event.
 *
 * If an intentional simulator-behaviour change ever lands, this
 * golden must be regenerated in the same commit (sfx run 'fig1*'
 * --quick --runs '*n64*' --jobs 1 --out tests/golden/...) and the
 * change called out as a report-breaking event, since it also
 * invalidates every stored checkpoint.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/run_store.hpp"
#include "exp/scheduler.hpp"

#ifndef SF_SOURCE_DIR
#define SF_SOURCE_DIR "."
#endif

namespace {

using namespace sf::exp;

/** The driver's `sfx run 'fig1*' --quick --runs '*n64*'` flow,
 *  in-process: plan, filter, schedule, report. */
std::string
fig1SliceReport(int jobs)
{
    const auto specs = registry().match("fig1*");
    PlanContext plan_ctx;
    plan_ctx.effort = Effort::Quick;

    std::vector<ExperimentResults> all;
    for (const ExperimentSpec *spec : specs) {
        auto runs = spec->plan(plan_ctx);
        std::erase_if(runs, [](const RunSpec &run) {
            return !globMatch("*n64*", run.id);
        });
        if (runs.empty())
            continue;  // as the driver skips filtered-out specs
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
goldenBytes()
{
    return readFile(std::string(SF_SOURCE_DIR) +
                    "/tests/golden/fig1_n64_quick.json");
}

TEST(EngineIdentity, MatchesSeedEngineGoldenJobs1)
{
    const std::string golden = goldenBytes();
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(fig1SliceReport(1), golden)
        << "the cycle engine no longer reproduces the seed "
           "engine's events";
}

TEST(EngineIdentity, MatchesSeedEngineGoldenJobs8)
{
    EXPECT_EQ(fig1SliceReport(8), goldenBytes());
}

} // namespace
