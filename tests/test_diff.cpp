/**
 * @file
 * Tests for sfx report diffing: metric deltas, the relative
 * tolerance gate, structural mismatches, the non-deterministic
 * experiment exemption, the structured --json rendering, and the
 * --bless baseline regeneration workflow.
 */

#include <gtest/gtest.h>

#include <limits>

#include "exp/diff.hpp"
#include "exp/report.hpp"
#include "test_util.hpp"

namespace {

using namespace sf::exp;

/** Minimal sf-exp-report-v1 document with one experiment. */
Json
report(double sat_n16, double sat_n64, bool deterministic = true)
{
    const auto run = [](const char *id, double value) {
        Json r = Json::object();
        r.set("id", id);
        r.set("seed", std::uint64_t{1});
        r.set("params", Json::object());
        Json m = Json::object();
        m.set("saturation_rate", value);
        m.set("design", "SF");
        r.set("metrics", std::move(m));
        return r;
    };
    Json e = Json::object();
    e.set("name", "fig10_saturation");
    e.set("deterministic", deterministic);
    Json runs = Json::array();
    runs.push(run("n16/SF", sat_n16));
    runs.push(run("n64/SF", sat_n64));
    e.set("runs", std::move(runs));
    Json doc = Json::object();
    doc.set("schema", "sf-exp-report-v1");
    Json exps = Json::array();
    exps.push(std::move(e));
    doc.set("experiments", std::move(exps));
    return doc;
}

TEST(Diff, IdenticalReportsAreClean)
{
    const Json a = report(0.5, 0.25);
    const ReportDiff d = diffReports(a, a);
    EXPECT_TRUE(d.clean());
    EXPECT_EQ(d.compared, 4u);
    EXPECT_TRUE(d.changed.empty());
    EXPECT_TRUE(renderDiff(d).empty());
}

TEST(Diff, RegressionBeyondToleranceGates)
{
    const Json a = report(0.50, 0.25);
    const Json b = report(0.40, 0.25); // -20% on n16
    const ReportDiff strict = diffReports(a, b);
    EXPECT_FALSE(strict.clean());
    EXPECT_EQ(strict.regressions, 1u);
    ASSERT_EQ(strict.changed.size(), 1u);
    EXPECT_EQ(strict.changed[0].run, "n16/SF");
    EXPECT_EQ(strict.changed[0].metric, "saturation_rate");
    EXPECT_NEAR(strict.changed[0].relDelta, -0.2, 1e-12);
    EXPECT_NE(renderDiff(strict).find("saturation_rate"),
              std::string::npos);

    // Within a generous tolerance the same delta passes (but is
    // still reported as changed).
    DiffOptions loose;
    loose.tolerance = 0.25;
    const ReportDiff ok = diffReports(a, b, loose);
    EXPECT_TRUE(ok.clean());
    EXPECT_EQ(ok.changed.size(), 1u);
}

/**
 * NaN must not defeat the gate: NaN != NaN used to report an
 * unchanged-NaN metric as changed on every diff, and a metric
 * *becoming* NaN compared false against every tolerance — the
 * worst possible regression sailed through CI.
 */
TEST(Diff, NanMetricsCompareEqualAndNanFlipsGate)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();

    // NaN -> NaN is an unchanged metric: clean, nothing reported.
    const ReportDiff same =
        diffReports(report(nan, 0.25), report(nan, 0.25));
    EXPECT_TRUE(same.clean());
    EXPECT_TRUE(same.changed.empty());
    EXPECT_EQ(same.compared, 4u);

    // number -> NaN is a deterministic regression that no
    // tolerance may excuse.
    DiffOptions loose;
    loose.tolerance = 1e9;
    const ReportDiff broke =
        diffReports(report(0.50, 0.25), report(nan, 0.25), loose);
    EXPECT_FALSE(broke.clean());
    EXPECT_EQ(broke.regressions, 1u);
    ASSERT_EQ(broke.changed.size(), 1u);
    EXPECT_EQ(broke.changed[0].run, "n16/SF");
    EXPECT_TRUE(broke.changed[0].regression);

    // NaN -> number gates too: the baseline no longer describes
    // the current code and must be re-blessed, not waved past.
    const ReportDiff fixed =
        diffReports(report(nan, 0.25), report(0.50, 0.25), loose);
    EXPECT_FALSE(fixed.clean());
    EXPECT_EQ(fixed.regressions, 1u);

    // Non-deterministic experiments stay exempt even for NaN
    // flips (wall-clock metrics may legitimately be absent-ish).
    const ReportDiff nd = diffReports(
        report(0.50, 0.25, /*deterministic=*/false),
        report(nan, 0.25, /*deterministic=*/false), loose);
    EXPECT_TRUE(nd.clean());
    EXPECT_EQ(nd.changed.size(), 1u);

    // The CLI shape: JSON has no NaN, so a report on disk carries
    // it as null (appendNumber); after a dump/parse round trip the
    // same semantics must hold — null-vs-null unchanged,
    // number-vs-null a deterministic regression, non-deterministic
    // exempt — rather than falling into the structural-drift path
    // that gates unconditionally.
    const auto rt = [](const Json &doc) {
        return Json::parse(doc.dump(2));
    };
    EXPECT_TRUE(
        diffReports(rt(report(nan, 0.25)), rt(report(nan, 0.25)))
            .clean());
    const ReportDiff disk_broke = diffReports(
        rt(report(0.50, 0.25)), rt(report(nan, 0.25)), loose);
    EXPECT_FALSE(disk_broke.clean());
    EXPECT_EQ(disk_broke.regressions, 1u);
    EXPECT_TRUE(disk_broke.structural.empty());
    const ReportDiff disk_nd = diffReports(
        rt(report(0.50, 0.25, false)), rt(report(nan, 0.25, false)),
        loose);
    EXPECT_TRUE(disk_nd.clean());
}

/** Mutable member lookup for test surgery on report documents. */
Json &
member(Json &obj, const char *key)
{
    for (auto &m : obj.asObject()) {
        if (m.first == key)
            return m.second;
    }
    throw std::runtime_error(std::string("missing key ") + key);
}

/**
 * Percentile metrics (p50/p95/p99/p999/max, and prefixed spins
 * like net_p99) are integral functions of the deterministic event
 * stream: there is no float noise for a tolerance to absorb, so
 * *any* drift gates no matter how loose the tolerance — while a
 * plain metric with the same relative delta still passes.
 */
TEST(Diff, PercentileMetricsExactCompareRegardlessOfTolerance)
{
    EXPECT_TRUE(isPercentileMetric("p50"));
    EXPECT_TRUE(isPercentileMetric("p999"));
    EXPECT_TRUE(isPercentileMetric("max"));
    EXPECT_TRUE(isPercentileMetric("net_p99"));
    EXPECT_TRUE(isPercentileMetric("latency_max"));
    EXPECT_FALSE(isPercentileMetric("p"));
    EXPECT_FALSE(isPercentileMetric("power"));
    EXPECT_FALSE(isPercentileMetric("saturation_rate"));
    EXPECT_FALSE(isPercentileMetric("maxima"));

    const auto doc = [](std::int64_t p99, double sat) {
        Json r = Json::object();
        r.set("id", "n64/SF");
        r.set("seed", std::uint64_t{1});
        r.set("params", Json::object());
        Json m = Json::object();
        m.set("p99", p99);
        m.set("saturation_rate", sat);
        r.set("metrics", std::move(m));
        Json e = Json::object();
        e.set("name", "hockey_stick");
        e.set("deterministic", true);
        Json runs = Json::array();
        runs.push(std::move(r));
        e.set("runs", std::move(runs));
        Json d = Json::object();
        d.set("schema", "sf-exp-report-v1");
        Json exps = Json::array();
        exps.push(std::move(e));
        d.set("experiments", std::move(exps));
        return d;
    };

    DiffOptions loose;
    loose.tolerance = 0.50;  // would excuse a 50% swing

    // Both metrics drift ~2%: the plain metric passes under the
    // loose tolerance, the percentile still gates.
    const ReportDiff d =
        diffReports(doc(100, 0.50), doc(102, 0.51), loose);
    EXPECT_FALSE(d.clean());
    EXPECT_EQ(d.regressions, 1u);
    ASSERT_EQ(d.changed.size(), 2u);
    for (const MetricDelta &delta : d.changed) {
        EXPECT_EQ(delta.regression, delta.metric == "p99")
            << delta.metric;
    }

    // Unchanged percentiles stay clean, and the non-deterministic
    // exemption still outranks the exact-compare rule.
    EXPECT_TRUE(
        diffReports(doc(100, 0.50), doc(100, 0.50), loose).clean());
    Json nd_a = doc(100, 0.50);
    Json nd_b = doc(102, 0.50);
    member(member(nd_a, "experiments").asArray()[0],
           "deterministic") = Json(false);
    member(member(nd_b, "experiments").asArray()[0],
           "deterministic") = Json(false);
    EXPECT_TRUE(diffReports(nd_a, nd_b, loose).clean());
}

/**
 * Reconvergence metrics from the elastic experiments (the per-wave
 * `ev<k>_blip` / `ev<k>_*_burst` / `ev<k>_reconverge` suffixes) are
 * deterministic degradation-window measurements, exact-compared
 * like percentiles: a longer blip or a bigger drop burst must gate
 * no matter how loose the tolerance.
 */
TEST(Diff, ReconvergenceMetricsExactCompareRegardlessOfTolerance)
{
    EXPECT_TRUE(isReconvergenceMetric("ev0_blip"));
    EXPECT_TRUE(isReconvergenceMetric("ev1_drop_burst"));
    EXPECT_TRUE(isReconvergenceMetric("ev2_esc_burst"));
    EXPECT_TRUE(isReconvergenceMetric("ev3_reconverge"));
    EXPECT_FALSE(isReconvergenceMetric("holes"));
    EXPECT_FALSE(isReconvergenceMetric("drops"));
    EXPECT_FALSE(isReconvergenceMetric("ev0_holes"));
    EXPECT_FALSE(isReconvergenceMetric("blipper"));
    EXPECT_FALSE(isReconvergenceMetric("bursts"));

    const auto doc = [](std::int64_t blip, std::int64_t holes) {
        Json r = Json::object();
        r.set("id", "n64/uniform/SF/fail/r0.0200");
        r.set("seed", std::uint64_t{1});
        r.set("params", Json::object());
        Json m = Json::object();
        m.set("ev0_blip", blip);
        m.set("holes", holes);
        r.set("metrics", std::move(m));
        Json e = Json::object();
        e.set("name", "elastic_serving");
        e.set("deterministic", true);
        Json runs = Json::array();
        runs.push(std::move(r));
        e.set("runs", std::move(runs));
        Json d = Json::object();
        d.set("schema", "sf-exp-report-v1");
        Json exps = Json::array();
        exps.push(std::move(e));
        d.set("experiments", std::move(exps));
        return d;
    };

    DiffOptions loose;
    loose.tolerance = 0.50;  // would excuse a 50% swing

    // Both metrics drift ~2%: the aggregate counter passes under
    // the loose tolerance, the reconvergence metric still gates.
    const ReportDiff d =
        diffReports(doc(100, 100), doc(102, 102), loose);
    EXPECT_FALSE(d.clean());
    EXPECT_EQ(d.regressions, 1u);
    ASSERT_EQ(d.changed.size(), 2u);
    for (const MetricDelta &delta : d.changed) {
        EXPECT_EQ(delta.regression, delta.metric == "ev0_blip")
            << delta.metric;
    }
    EXPECT_TRUE(
        diffReports(doc(100, 100), doc(100, 100), loose).clean());
}

TEST(Diff, NonDeterministicExperimentsNeverGate)
{
    const Json a = report(100.0, 200.0, false);
    const Json b = report(150.0, 50.0, false);
    const ReportDiff d = diffReports(a, b);
    EXPECT_TRUE(d.clean());
    EXPECT_EQ(d.changed.size(), 2u);
    EXPECT_FALSE(d.changed[0].regression);
    EXPECT_NE(renderDiff(d).find("non-deterministic"),
              std::string::npos);
}

TEST(Diff, StructuralMismatchesGate)
{
    const Json a = report(0.5, 0.25);

    // Remove one run: gates as "only in baseline".
    Json b = report(0.5, 0.25);
    member(member(b, "experiments").asArray()[0], "runs")
        .asArray()
        .pop_back();
    const ReportDiff d = diffReports(a, b);
    EXPECT_FALSE(d.clean());
    ASSERT_EQ(d.structural.size(), 1u);
    EXPECT_NE(d.structural[0].find("only in baseline"),
              std::string::npos);

    // A non-numeric metric flip is structural too.
    Json c = report(0.5, 0.25);
    Json &run0 = member(member(c, "experiments").asArray()[0],
                        "runs")
                     .asArray()[0];
    member(member(run0, "metrics"), "design") = Json("DM");
    const ReportDiff flip = diffReports(a, c);
    EXPECT_FALSE(flip.clean());
    EXPECT_EQ(flip.structural.size(), 1u);
}

TEST(Diff, RejectsNonReports)
{
    EXPECT_THROW(diffReports(Json::parse("{}"), report(1, 1)),
                 JsonError);
    EXPECT_THROW(diffReports(report(1, 1), Json::parse("[1,2]")),
                 JsonError);
}

TEST(Diff, JsonRenderingCarriesTheWholeDiff)
{
    const Json a = report(0.50, 0.25);
    Json b = report(0.40, 0.25); // -20% regression on n16
    member(member(b, "experiments").asArray()[0], "runs")
        .asArray()
        .pop_back(); // plus one structural issue
    const ReportDiff diff = diffReports(a, b);

    const Json doc = diffToJson(diff);
    EXPECT_EQ(doc.at("schema").asString(), "sf-exp-diff-v1");
    EXPECT_EQ(doc.at("compared").asInt(), 2);
    EXPECT_EQ(doc.at("regressions").asInt(), 1);
    EXPECT_FALSE(doc.at("clean").asBool());
    const auto &changed = doc.at("changed").asArray();
    ASSERT_EQ(changed.size(), 1u);
    EXPECT_EQ(changed[0].at("experiment").asString(),
              "fig10_saturation");
    EXPECT_EQ(changed[0].at("run").asString(), "n16/SF");
    EXPECT_EQ(changed[0].at("metric").asString(),
              "saturation_rate");
    EXPECT_DOUBLE_EQ(changed[0].at("before").asDouble(), 0.50);
    EXPECT_DOUBLE_EQ(changed[0].at("after").asDouble(), 0.40);
    EXPECT_NEAR(changed[0].at("rel_delta").asDouble(), -0.2,
                1e-12);
    EXPECT_TRUE(changed[0].at("regression").asBool());
    ASSERT_EQ(doc.at("structural").asArray().size(), 1u);

    // A clean diff renders clean.
    const Json clean = diffToJson(diffReports(a, a));
    EXPECT_TRUE(clean.at("clean").asBool());
    EXPECT_TRUE(clean.at("changed").asArray().empty());

    // And the document round-trips byte-stably like any report.
    EXPECT_EQ(Json::parse(doc.dump(2)).dump(2), doc.dump(2));
}

// ------------------------------------------------- CLI round trips

using sf::test::callSfx;
using sf::test::TempDir;

/**
 * ROADMAP item "--bless mode": an intended metric change becomes
 * one command — the diff still prints, but the baseline file is
 * regenerated as a byte-exact copy of the candidate, after which
 * the strict gate passes again.
 */
TEST(Diff, BlessRegeneratesTheBaselineInPlace)
{
    TempDir dir;
    const std::string base = dir.file("baseline.json");
    const std::string cur = dir.file("current.json");
    writeFile(base, report(0.50, 0.25).dump(2) + "\n");
    writeFile(cur, report(0.40, 0.25).dump(2) + "\n");

    // The strict gate fails before blessing...
    EXPECT_EQ(callSfx({"sfx", "diff", base, cur}), 1);
    // ...blessing reports the drift but exits 0 and rewrites...
    EXPECT_EQ(callSfx({"sfx", "diff", base, cur, "--bless"}), 0);
    EXPECT_EQ(readFile(base), readFile(cur));
    // ...after which the gate is green again.
    EXPECT_EQ(callSfx({"sfx", "diff", base, cur}), 0);
}

/** A report nested past the parser's depth cap is an input error
 *  (exit 2), not a stack overflow. */
TEST(Diff, DeeplyNestedReportExitsTwo)
{
    TempDir dir;
    const std::string deep = dir.file("deep.json");
    writeFile(deep, std::string(100000, '['));
    EXPECT_EQ(callSfx({"sfx", "diff", deep, deep}), 2);
}

TEST(Diff, JsonFlagPrintsTheStructuredDocument)
{
    TempDir dir;
    const std::string base = dir.file("baseline.json");
    const std::string cur = dir.file("current.json");
    writeFile(base, report(0.50, 0.25).dump(2) + "\n");
    writeFile(cur, report(0.40, 0.25).dump(2) + "\n");

    testing::internal::CaptureStdout();
    const int rc = callSfx({"sfx", "diff", base, cur, "--json"});
    const std::string out =
        testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 1); // the gate still gates under --json

    const Json doc = Json::parse(out);
    EXPECT_EQ(doc.at("schema").asString(), "sf-exp-diff-v1");
    EXPECT_EQ(doc.at("regressions").asInt(), 1);
    EXPECT_FALSE(doc.at("clean").asBool());
}

} // namespace
