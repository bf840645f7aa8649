/**
 * @file
 * Tests for live elasticity under load: seeded reconfiguration
 * schedules (sim/reconfig_schedule.hpp), the runElastic harness and
 * its degradation-window telemetry, graceful degradation under
 * unplanned failure injection, and the elastic_serving experiment
 * family's byte-identity across job counts, pinned against a
 * committed golden report.
 *
 * The golden (tests/golden/elastic_sf64_quick.json) is the quick
 * elastic_serving grid at --jobs 1. Like the other goldens, an
 * intentional simulator-, schedule-, or telemetry-behaviour change
 * must regenerate it in the same commit:
 *   sfx run elastic_serving --quick --jobs 1 \
 *       --out tests/golden/elastic_sf64_quick.json
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/string_figure.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/scheduler.hpp"
#include "sim/reconfig_schedule.hpp"
#include "sim/simulator.hpp"
#include "topos/factory.hpp"

#ifndef SF_SOURCE_DIR
#define SF_SOURCE_DIR "."
#endif

namespace {

using namespace sf;
using namespace sf::sim;

core::SFParams
elasticParams(std::size_t n = 64)
{
    core::SFParams p;
    p.numNodes = n;
    p.routerPorts = topos::randomTopologyPorts(n);
    p.seed = 2019;
    return p;
}

constexpr RunPhases kPhases = RunPhases::openLoopQuick();

// ------------------------------------------------ schedule planning

bool
sameSchedule(const ReconfigSchedule &a, const ReconfigSchedule &b)
{
    if (a.events.size() != b.events.size())
        return false;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        if (a.events[i].at != b.events[i].at ||
            a.events[i].action != b.events[i].action ||
            a.events[i].node != b.events[i].node)
            return false;
    }
    return true;
}

TEST(ReconfigSchedule, PlanningIsDeterministicAndSorted)
{
    const auto params = elasticParams();
    for (const auto severity : kAllReconfigSeverities) {
        const auto a = planReconfigSchedule(
            severity, params, kPhases.warmup, kPhases.measure, 7);
        const auto b = planReconfigSchedule(
            severity, params, kPhases.warmup, kPhases.measure, 7);
        EXPECT_TRUE(sameSchedule(a, b)) << severity;
        ASSERT_FALSE(a.empty()) << severity;
        for (std::size_t i = 1; i < a.events.size(); ++i)
            EXPECT_LE(a.events[i - 1].at, a.events[i].at)
                << severity << " @" << i;
        // Every event lands inside the measure window, where the
        // degradation telemetry can observe it.
        for (const ReconfigEvent &ev : a.events) {
            EXPECT_GE(ev.at, kPhases.warmup) << severity;
            EXPECT_LT(ev.at, kPhases.warmup + kPhases.measure)
                << severity;
        }
    }
    EXPECT_THROW(planReconfigSchedule("meteor", params,
                                      kPhases.warmup,
                                      kPhases.measure, 7),
                 std::invalid_argument);
    EXPECT_TRUE(isReconfigSeverity("cascade"));
    EXPECT_FALSE(isReconfigSeverity("meteor"));
}

TEST(ReconfigSchedule, SeverityShapes)
{
    const auto params = elasticParams();
    const auto plan = [&](const char *severity) {
        return planReconfigSchedule(severity, params,
                                    kPhases.warmup,
                                    kPhases.measure, 7);
    };

    const auto lj = plan("leave_join");
    ASSERT_EQ(lj.events.size(), 2u);
    EXPECT_EQ(lj.events[0].action, ReconfigAction::Leave);
    EXPECT_EQ(lj.events[1].action, ReconfigAction::Join);
    EXPECT_EQ(lj.events[0].node, lj.events[1].node);

    // fail: a planned Leave, then an unplanned Fail of a node the
    // gate courtesy would refuse (a live ring neighbour of the
    // planned victim), then both Joins.
    const auto fl = plan("fail");
    ASSERT_EQ(fl.events.size(), 4u);
    EXPECT_EQ(fl.events[0].action, ReconfigAction::Leave);
    EXPECT_EQ(fl.events[1].action, ReconfigAction::Fail);
    EXPECT_EQ(fl.events[2].action, ReconfigAction::Join);
    EXPECT_EQ(fl.events[3].action, ReconfigAction::Join);
    EXPECT_NE(fl.events[0].node, fl.events[1].node);

    // cascade: halve the live network in two Leave waves, then
    // restore it in two Join waves in reverse gate order.
    const auto cs = plan("cascade");
    std::size_t leaves = 0, joins = 0;
    for (const ReconfigEvent &ev : cs.events) {
        leaves += ev.action == ReconfigAction::Leave ? 1 : 0;
        joins += ev.action == ReconfigAction::Join ? 1 : 0;
    }
    EXPECT_EQ(leaves, joins);
    EXPECT_GE(leaves, params.numNodes / 4);
}

/**
 * The planner as it was before it ran on core::LiveRings: victims
 * chosen by gating a scratch StringFigure. Returns false where that
 * planner had no gateable node to draw from (undefined behaviour
 * there; the live-rings planner throws).
 */
bool
scratchTopologyPlan(std::string_view severity,
                    const core::SFParams &params, Cycle warmup,
                    Cycle measure, std::uint64_t seed,
                    core::StringFigure &scratch, ReconfigSchedule &s)
{
    constexpr std::uint64_t kScheduleSalt = 0xe1a57c5c7ed01e5ULL;
    Rng rng(seed ^ kScheduleSalt);
    s.events.clear();
    const auto at = [&](Cycle num, Cycle den) {
        return warmup + measure * num / den;
    };
    const auto pick = [&](NodeId &out) {
        std::vector<NodeId> eligible;
        for (NodeId u = 0; u < scratch.numNodes(); ++u) {
            if (scratch.nodeAlive(u) && scratch.reconfig().canGate(u))
                eligible.push_back(u);
        }
        if (eligible.empty())
            return false;
        out = eligible[rng.below(eligible.size())];
        return true;
    };
    if (severity == "leave_join") {
        NodeId victim = kInvalidNode;
        if (!pick(victim))
            return false;
        s.events.push_back({at(1, 4), ReconfigAction::Leave, victim});
        s.events.push_back({at(5, 8), ReconfigAction::Join, victim});
    } else if (severity == "fail") {
        NodeId planned = kInvalidNode;
        if (!pick(planned))
            return false;
        const NodeId casualty = scratch.reconfig().liveNext(0, planned);
        s.events.push_back({at(1, 5), ReconfigAction::Leave, planned});
        s.events.push_back({at(2, 5), ReconfigAction::Fail, casualty});
        s.events.push_back({at(3, 5), ReconfigAction::Join, casualty});
        s.events.push_back({at(4, 5), ReconfigAction::Join, planned});
    } else {
        const std::size_t n = params.numNodes;
        const std::vector<NodeId> victims =
            scratch.reduceTo(n - n / 2, rng);
        const std::size_t half = victims.size() / 2;
        for (std::size_t i = 0; i < victims.size(); ++i) {
            const Cycle when = i < half ? at(1, 8) : at(2, 8);
            s.events.push_back(
                {when, ReconfigAction::Leave, victims[i]});
        }
        for (std::size_t i = victims.size(); i > 0; --i) {
            const Cycle when = i > half ? at(4, 8) : at(5, 8);
            s.events.push_back(
                {when, ReconfigAction::Join, victims[i - 1]});
        }
    }
    return true;
}

TEST(ReconfigSchedule, LiveRingsPlanMatchesScratchTopologyPlan)
{
    std::size_t plannable = 0;
    for (const std::size_t n : {16, 32, 64, 100, 256, 1024}) {
        for (const core::LinkMode mode :
             {core::LinkMode::Unidirectional,
              core::LinkMode::Bidirectional}) {
            for (const core::RepairMode repair :
                 {core::RepairMode::AllSpaces,
                  core::RepairMode::ShortcutsOnly}) {
                for (const std::uint64_t seed : {2019u, 7u, 3u}) {
                    if (n == 1024 && seed != 2019)
                        continue;
                    core::SFParams p = topos::defaultSfParams(n, seed);
                    p.linkMode = mode;
                    p.repairMode = repair;
                    // leave_join and fail never gate the scratch
                    // topology, so cascade may run on it last.
                    core::StringFigure scratch(p);
                    for (const auto severity : kAllReconfigSeverities) {
                        const std::uint64_t plan_seed = seed * 31 + n;
                        ReconfigSchedule want;
                        const bool ok = scratchTopologyPlan(
                            severity, p, kPhases.warmup,
                            kPhases.measure, plan_seed, scratch, want);
                        const std::string what =
                            std::string(severity) + " n" +
                            std::to_string(n) + " seed " +
                            std::to_string(seed);
                        if (!ok) {
                            EXPECT_THROW(planReconfigSchedule(
                                             severity, p, kPhases.warmup,
                                             kPhases.measure, plan_seed),
                                         std::invalid_argument)
                                << what;
                            continue;
                        }
                        ++plannable;
                        const auto got = planReconfigSchedule(
                            severity, p, kPhases.warmup,
                            kPhases.measure, plan_seed);
                        EXPECT_TRUE(sameSchedule(got, want)) << what;
                    }
                }
            }
        }
    }
    EXPECT_GT(plannable, 150u);
}

TEST(ReconfigSchedule, NoGateableNodeThrows)
{
    // ShortcutsOnly repair in unidirectional mode fabricates no wire
    // that spans any single-node hole at this scale.
    core::SFParams p = topos::defaultSfParams(32, 2021);
    p.linkMode = core::LinkMode::Unidirectional;
    p.repairMode = core::RepairMode::ShortcutsOnly;
    for (const char *severity : {"leave_join", "fail"}) {
        try {
            planReconfigSchedule(severity, p, kPhases.warmup,
                                 kPhases.measure, 7);
            ADD_FAILURE() << severity << " planned without a victim";
        } catch (const std::invalid_argument &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(severity), std::string::npos) << msg;
            EXPECT_NE(msg.find("32-node"), std::string::npos) << msg;
        }
    }
}

// --------------------------------------------------- direct elastic

void
expectSameResult(const RunResult &a, const RunResult &b,
                 const char *what)
{
    EXPECT_DOUBLE_EQ(a.avgTotalLatency, b.avgTotalLatency) << what;
    EXPECT_EQ(a.measuredPackets, b.measuredPackets) << what;
    EXPECT_EQ(a.tailTotal.p99, b.tailTotal.p99) << what;
    EXPECT_EQ(a.tailTotal.max, b.tailTotal.max) << what;
    EXPECT_EQ(a.escapeTransfers, b.escapeTransfers) << what;
    EXPECT_EQ(a.droppedUnroutable, b.droppedUnroutable) << what;
    EXPECT_EQ(a.topologyEpochs, b.topologyEpochs) << what;
    ASSERT_EQ(a.reconfigEvents.size(), b.reconfigEvents.size())
        << what;
    for (std::size_t i = 0; i < a.reconfigEvents.size(); ++i) {
        const auto &ea = a.reconfigEvents[i];
        const auto &eb = b.reconfigEvents[i];
        EXPECT_EQ(ea.at, eb.at) << what << " wave " << i;
        EXPECT_EQ(ea.gated, eb.gated) << what << " wave " << i;
        EXPECT_EQ(ea.ungated, eb.ungated) << what << " wave " << i;
        EXPECT_EQ(ea.holes, eb.holes) << what << " wave " << i;
        EXPECT_EQ(ea.baselineP99, eb.baselineP99)
            << what << " wave " << i;
        EXPECT_EQ(ea.blipP99, eb.blipP99) << what << " wave " << i;
        EXPECT_EQ(ea.reconvergeCycles, eb.reconvergeCycles)
            << what << " wave " << i;
        EXPECT_EQ(ea.reconverged, eb.reconverged)
            << what << " wave " << i;
        EXPECT_EQ(ea.dropBurst, eb.dropBurst)
            << what << " wave " << i;
        EXPECT_EQ(ea.escalationBurst, eb.escalationBurst)
            << what << " wave " << i;
    }
}

RunResult
runElasticDirect(const char *severity)
{
    const auto params = elasticParams();
    core::StringFigure topo(params);
    SimConfig cfg;
    cfg.seed = 2019;
    cfg.validateReconfig = true; // audit after every wave
    const ArrivalConfig arrivals;
    const auto schedule = planReconfigSchedule(
        severity, params, kPhases.warmup, kPhases.measure, 2019);
    return runElastic(topo, TrafficPattern::UniformRandom, arrivals,
                      0.02, schedule, cfg, kPhases);
}

TEST(Elastic, EmptyScheduleMatchesOpenLoop)
{
    const auto params = elasticParams();
    SimConfig cfg;
    cfg.seed = 2019;
    const ArrivalConfig arrivals;
    core::StringFigure topo(params);
    const auto open =
        runOpenLoop(topo, TrafficPattern::UniformRandom, arrivals,
                    0.02, cfg, kPhases);
    core::StringFigure topo2(params);
    const ReconfigSchedule none;
    const auto elastic =
        runElastic(topo2, TrafficPattern::UniformRandom, arrivals,
                   0.02, none, cfg, kPhases);
    expectSameResult(open, elastic, "empty schedule");
    EXPECT_EQ(elastic.topologyEpochs, 0u);
    EXPECT_TRUE(elastic.reconfigEvents.empty());
}

TEST(Elastic, EpochAdvancesPerWaveAndLivenessRestores)
{
    const auto params = elasticParams();
    core::StringFigure topo(params);
    SimConfig cfg;
    cfg.seed = 2019;
    cfg.validateReconfig = true;
    const ArrivalConfig arrivals;
    const auto schedule = planReconfigSchedule(
        "leave_join", params, kPhases.warmup, kPhases.measure,
        2019);
    const auto r =
        runElastic(topo, TrafficPattern::UniformRandom, arrivals,
                   0.02, schedule, cfg, kPhases);
    // One Leave wave + one Join wave, each its own generation.
    ASSERT_EQ(r.reconfigEvents.size(), 2u);
    EXPECT_EQ(r.topologyEpochs, 2u);
    EXPECT_EQ(r.reconfigEvents[0].gated, 1);
    EXPECT_EQ(r.reconfigEvents[1].ungated, 1);
    EXPECT_GT(r.reconfigEvents[0].baselineP99, 0u);
    // The schedule joins its victim back, so the run ends with the
    // full network live again.
    for (NodeId u = 0; u < 64; ++u)
        EXPECT_TRUE(topo.nodeAlive(u)) << "node " << u;
    EXPECT_EQ(topo.reconfig().checkInvariants(), "");
}

/**
 * Unplanned failure injection: the "fail" severity gates a node the
 * canGate courtesy refuses (a live ring neighbour of the planned
 * victim), exactly the case planned maintenance never creates. The
 * run must degrade gracefully — forced gate counted, ring holes
 * counted, stray packets dropped or escalated rather than crashing.
 */
TEST(Elastic, UnplannedFailureDegradesGracefully)
{
    RunResult r;
    ASSERT_NO_THROW(r = runElasticDirect("fail"));
    int forced = 0, holes = 0, refused = 0;
    for (const auto &ev : r.reconfigEvents) {
        forced += ev.failForced;
        holes += ev.holes;
        refused += ev.refused;
    }
    EXPECT_EQ(forced, 1)
        << "the Fail event did not hit a canGate-refused node";
    EXPECT_GT(holes, 0) << "a forced gate must leave ring holes";
    EXPECT_EQ(refused, 0);
    ASSERT_EQ(r.reconfigEvents.size(), 4u);
    EXPECT_EQ(r.topologyEpochs, 4u);
}

/**
 * The halving cascade: two waves of planned Leaves take the 64-node
 * network towards half its size, then two waves of Joins restore
 * every victim. The reconfiguration invariants are audited after
 * every wave, and each wave is its own topology epoch.
 */
TEST(Elastic, CascadeHalvesAndRestores)
{
    RunResult r;
    ASSERT_NO_THROW(r = runElasticDirect("cascade"));
    EXPECT_GE(r.topologyEpochs, 4u);
    std::size_t gated = 0, ungated = 0;
    for (const auto &ev : r.reconfigEvents) {
        gated += static_cast<std::size_t>(ev.gated);
        ungated += static_cast<std::size_t>(ev.ungated);
    }
    EXPECT_GE(gated, 16u) << "cascade should halve a 64-node net";
    EXPECT_EQ(gated, ungated);
}

// ------------------------------------------- elastic_serving golden

using namespace sf::exp;

/** The driver's `sfx run elastic_serving --quick` flow, in-process:
 *  plan, schedule, report — at any job count. */
std::string
elasticReport(int jobs)
{
    const auto specs = registry().match("elastic_serving");
    PlanContext plan_ctx;
    plan_ctx.effort = Effort::Quick;

    std::vector<ExperimentResults> all;
    for (const ExperimentSpec *spec : specs) {
        auto runs = spec->plan(plan_ctx);
        if (runs.empty())
            continue;
        SchedulerOptions sched;
        sched.jobs = jobs;
        sched.effort = Effort::Quick;
        ExperimentResults results;
        results.spec = spec;
        results.runs = runExperiment(*spec, runs, sched);
        for (const exp::RunResult &r : results.runs)
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
elasticGoldenBytes()
{
    return readFile(std::string(SF_SOURCE_DIR) +
                    "/tests/golden/elastic_sf64_quick.json");
}

TEST(ElasticServing, MatchesGoldenJobs1)
{
    const std::string golden = elasticGoldenBytes();
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(elasticReport(1), golden)
        << "the reconfiguration schedule or degradation telemetry "
           "no longer reproduces the pinned report";
}

TEST(ElasticServing, MatchesGoldenJobs8)
{
    EXPECT_EQ(elasticReport(8), elasticGoldenBytes());
}

/** The --reconfig-schedule severity filter restricts the planned
 *  grid without renaming the surviving runs. */
TEST(ElasticServing, SeverityFilterRestrictsPlan)
{
    const auto specs = registry().match("elastic_serving");
    ASSERT_EQ(specs.size(), 1u);
    PlanContext all_ctx;
    all_ctx.effort = Effort::Quick;
    const auto all_runs = specs[0]->plan(all_ctx);
    ASSERT_EQ(all_runs.size(), kAllReconfigSeverities.size());

    PlanContext one_ctx;
    one_ctx.effort = Effort::Quick;
    one_ctx.reconfigSchedule = "cascade";
    const auto one = specs[0]->plan(one_ctx);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_NE(one[0].id.find("cascade"), std::string::npos);
}

} // namespace
