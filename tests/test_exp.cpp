/**
 * @file
 * Tests for the experiment engine: glob matching, the registry,
 * deterministic seeding, the thread-pool scheduler (order
 * independence, failure isolation, actual concurrency), and the
 * report writer's byte-identical --jobs 1 vs --jobs 8 guarantee.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/run_store.hpp"
#include "exp/scheduler.hpp"
#include "topos/factory.hpp"

namespace {

using namespace sf::exp;

TEST(Glob, Basics)
{
    EXPECT_TRUE(globMatch("fig10_saturation", "fig10_saturation"));
    EXPECT_TRUE(globMatch("fig1*", "fig10_saturation"));
    EXPECT_TRUE(globMatch("fig1*", "fig11_latency_curves"));
    EXPECT_TRUE(globMatch("fig1*", "fig12_workloads"));
    EXPECT_FALSE(globMatch("fig1*", "fig05_path_lengths"));
    EXPECT_TRUE(globMatch("*", "anything"));
    EXPECT_TRUE(globMatch("*", ""));
    EXPECT_TRUE(globMatch("a?c", "abc"));
    EXPECT_FALSE(globMatch("a?c", "ac"));
    EXPECT_TRUE(globMatch("*_edp", "fig09b_power_gating_edp"));
    EXPECT_TRUE(globMatch("a*b*c", "a-x-b-y-c"));
    EXPECT_FALSE(globMatch("a*b*c", "a-x-c"));
    EXPECT_FALSE(globMatch("", "x"));
    EXPECT_TRUE(globMatch("", ""));
}

TEST(Seed, DeterministicAndNameSensitive)
{
    const std::uint64_t a = deriveSeed("fig10", "n64/SF", 2019);
    EXPECT_EQ(a, deriveSeed("fig10", "n64/SF", 2019));
    EXPECT_NE(a, deriveSeed("fig10", "n64/S2", 2019));
    EXPECT_NE(a, deriveSeed("fig11", "n64/SF", 2019));
    EXPECT_NE(a, deriveSeed("fig10", "n64/SF", 2020));
    // The split between experiment and run id matters.
    EXPECT_NE(deriveSeed("ab", "c", 1), deriveSeed("a", "bc", 1));
}

/**
 * Checkpoint-key stability: derived seeds are the durable half of
 * every RunStore key, so their current values are pinned as
 * goldens — any change to deriveSeed silently orphans (or worse,
 * key-collides) existing checkpoints and must fail here first.
 */
TEST(Seed, GoldenValuesPinned)
{
    EXPECT_EQ(
        deriveSeed("fig10_saturation", "uniform/n64/SF", 2019),
        12362867324200668264ULL);
    EXPECT_EQ(deriveSeed("fig11_latency_curves",
                         "n64/uniform/SF/r0.005", 2019),
              10916031344874723452ULL);
    EXPECT_EQ(deriveSeed("fig12_workloads", "wordcount/SF", 2019),
              12461129398622044339ULL);
    EXPECT_EQ(deriveSeed("table2_features", "SF", 2019),
              2994852813146054711ULL);
    EXPECT_EQ(deriveSeed("toy", "run0", 2019),
              18086813016653929216ULL);
}

/** Fixed three-run spec used for the spec-hash property tests. */
ExperimentSpec
goldenToySpec()
{
    ExperimentSpec spec;
    spec.name = "golden_toy";
    spec.artefact = "test";
    spec.title = "golden";
    spec.plan = [](const PlanContext &) {
        std::vector<RunSpec> out;
        for (int i = 0; i < 3; ++i) {
            RunSpec run;
            run.id = "r" + std::to_string(i);
            run.params.set("i", i);
            run.body = [](const RunContext &) {
                return Json::object();
            };
            out.push_back(std::move(run));
        }
        return out;
    };
    return spec;
}

/**
 * The other half of the checkpoint key: spec hashes are a pure
 * function of the expanded plan, so re-planning, registry
 * iteration order, and the scheduler's job count can never move
 * them — and the current values are pinned as goldens so silent
 * key drift (which would either orphan or mis-serve checkpoints)
 * fails loudly.
 */
TEST(SpecHash, GoldenValuesPinned)
{
    const ExperimentSpec spec = goldenToySpec();
    const auto runs = spec.plan({});
    EXPECT_EQ(specHash(spec, runs, Effort::Quick, 2019),
              "3653d0edeb2ef160");
    EXPECT_EQ(specHash(spec, runs, Effort::Default, 2019),
              "d046f0547a7bbfce");
}

TEST(SpecHash, StableAcrossPlanningAndJobCounts)
{
    PlanContext ctx;
    ctx.effort = Effort::Quick;
    for (const ExperimentSpec &spec : registry().all()) {
        const std::string first = specHash(
            spec, spec.plan(ctx), ctx.effort, ctx.baseSeed);
        // Re-planning the same grid is byte-stable.
        EXPECT_EQ(specHash(spec, spec.plan(ctx), ctx.effort,
                           ctx.baseSeed),
                  first)
            << spec.name;
    }
    // The job count is not even an input to specHash(): keying is
    // a property of the plan alone, so checkpoints taken at
    // --jobs 1 and --jobs 8 can never diverge. One executed spot
    // check pins it end to end.
    const ExperimentSpec spec = goldenToySpec();
    const auto runs = spec.plan({});
    const std::string hash =
        specHash(spec, runs, Effort::Default, kBaseSeed);
    for (const int jobs : {1, 8}) {
        SchedulerOptions opts;
        opts.jobs = jobs;
        (void)runExperiment(spec, runs, opts);
        EXPECT_EQ(
            specHash(spec, runs, Effort::Default, kBaseSeed),
            hash)
            << "jobs=" << jobs;
    }
}

TEST(SpecHash, IndependentOfRegistryIterationOrder)
{
    // Two registries holding the same specs in opposite insertion
    // order must produce identical hashes for each experiment.
    ExperimentSpec a = goldenToySpec();
    ExperimentSpec b = goldenToySpec();
    b.name = "other_toy";
    Registry forward;
    forward.add(a);
    forward.add(b);
    Registry backward;
    backward.add(b);
    backward.add(a);
    for (const char *name : {"golden_toy", "other_toy"}) {
        const ExperimentSpec *fwd = forward.find(name);
        const ExperimentSpec *bwd = backward.find(name);
        ASSERT_NE(fwd, nullptr);
        ASSERT_NE(bwd, nullptr);
        EXPECT_EQ(specHash(*fwd, fwd->plan({}), Effort::Default,
                           kBaseSeed),
                  specHash(*bwd, bwd->plan({}), Effort::Default,
                           kBaseSeed));
    }
}

TEST(SpecHash, SensitiveToEveryKeyedInput)
{
    const ExperimentSpec spec = goldenToySpec();
    const auto runs = spec.plan({});
    const std::string base =
        specHash(spec, runs, Effort::Quick, 2019);

    EXPECT_NE(specHash(spec, runs, Effort::Full, 2019), base);
    EXPECT_NE(specHash(spec, runs, Effort::Quick, 2020), base);

    ExperimentSpec renamed = spec;
    renamed.name = "golden_toy2";
    EXPECT_NE(specHash(renamed, runs, Effort::Quick, 2019), base);

    auto reid = runs;
    reid[0].id = "r0b";
    EXPECT_NE(specHash(spec, reid, Effort::Quick, 2019), base);

    auto reparam = runs;
    reparam[1].params.set("i", 99);
    EXPECT_NE(specHash(spec, reparam, Effort::Quick, 2019), base);

    auto grown = runs;
    grown.push_back(runs[0]);
    grown.back().id = "r3";
    EXPECT_NE(specHash(spec, grown, Effort::Quick, 2019), base);
}

TEST(Registry, BuiltinsPresent)
{
    const Registry &r = registry();
    // Every ported harness answers to its old name.
    for (const char *name :
         {"fig05_path_lengths", "fig09a_hop_counts",
          "fig09b_power_gating_edp", "fig10_saturation",
          "fig11_latency_curves", "fig12_workloads",
          "table2_features", "bisection_bandwidth",
          "ablation_adaptive", "ablation_balance",
          "ablation_two_hop", "ablation_coord_bits",
          "ablation_unidir", "ablation_reconfig_repair",
          "ablation_reconfig_envelope", "micro_routing"})
        EXPECT_NE(r.find(name), nullptr) << name;

    // Sorted, duplicate-free listing.
    const auto &all = r.all();
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(all[i - 1].name, all[i].name);

    // The acceptance glob: fig10 + fig11 + fig12.
    const auto figs = r.match("fig1*");
    ASSERT_EQ(figs.size(), 3u);
    EXPECT_EQ(figs[0]->name, "fig10_saturation");
    EXPECT_EQ(figs[1]->name, "fig11_latency_curves");
    EXPECT_EQ(figs[2]->name, "fig12_workloads");

    // Comma-separated patterns, deduplicated.
    const auto both = r.match("fig10*,fig1*");
    EXPECT_EQ(both.size(), 3u);
    EXPECT_TRUE(r.match("no_such_experiment").empty());
}

TEST(Registry, EveryExperimentPlansNonEmptyUniqueRuns)
{
    PlanContext ctx;
    ctx.effort = Effort::Quick;
    for (const ExperimentSpec &spec : registry().all()) {
        const auto runs = spec.plan(ctx);
        EXPECT_FALSE(runs.empty()) << spec.name;
        std::set<std::string> ids;
        for (const RunSpec &run : runs) {
            EXPECT_TRUE(ids.insert(run.id).second)
                << spec.name << " duplicate run id " << run.id;
            EXPECT_TRUE(run.body) << spec.name << "/" << run.id;
            EXPECT_TRUE(run.params.isObject());
        }
    }
}

TEST(Registry, DuplicateNameRejected)
{
    Registry r;
    ExperimentSpec spec;
    spec.name = "x";
    spec.plan = [](const PlanContext &) {
        return std::vector<RunSpec>{};
    };
    r.add(spec);
    EXPECT_THROW(r.add(spec), std::invalid_argument);
}

/** Toy experiment: each run records its derived seed and square. */
ExperimentSpec
toySpec(int runs)
{
    ExperimentSpec spec;
    spec.name = "toy";
    spec.artefact = "test";
    spec.title = "toy";
    spec.plan = [runs](const PlanContext &) {
        std::vector<RunSpec> out;
        for (int i = 0; i < runs; ++i) {
            RunSpec run;
            run.id = "run" + std::to_string(i);
            run.params.set("i", i);
            run.body = [i](const RunContext &ctx) -> Json {
                Json m = Json::object();
                m.set("square", i * i);
                m.set("seed_echo", ctx.seed);
                return m;
            };
            out.push_back(std::move(run));
        }
        return out;
    };
    return spec;
}

TEST(Scheduler, ResultsInPlanOrderAtAnyJobCount)
{
    const ExperimentSpec spec = toySpec(20);
    const auto runs = spec.plan({});
    for (const int jobs : {1, 2, 8}) {
        SchedulerOptions opts;
        opts.jobs = jobs;
        const auto results = runExperiment(spec, runs, opts);
        ASSERT_EQ(results.size(), 20u);
        for (int i = 0; i < 20; ++i) {
            EXPECT_EQ(results[i].id,
                      "run" + std::to_string(i));
            EXPECT_EQ(results[i].metrics.at("square").asInt(),
                      i * i);
            EXPECT_EQ(results[i].seed,
                      deriveSeed("toy", results[i].id,
                                 kBaseSeed));
            EXPECT_FALSE(results[i].failed);
        }
    }
}

TEST(Scheduler, FailureIsIsolated)
{
    ExperimentSpec spec;
    spec.name = "failing";
    spec.plan = [](const PlanContext &) {
        std::vector<RunSpec> out;
        for (int i = 0; i < 3; ++i) {
            RunSpec run;
            run.id = "r" + std::to_string(i);
            run.body = [i](const RunContext &) -> Json {
                if (i == 1)
                    throw std::runtime_error("boom");
                Json m = Json::object();
                m.set("ok", true);
                return m;
            };
            out.push_back(std::move(run));
        }
        return out;
    };
    const auto results =
        runExperiment(spec, spec.plan({}), SchedulerOptions{});
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_TRUE(results[1].failed);
    EXPECT_EQ(results[1].error, "boom");
    EXPECT_FALSE(results[2].failed);
}

TEST(Scheduler, RunsConcurrently)
{
    // Eight sleeping runs at --jobs 8 must overlap: even on one
    // core, eight blocked threads sleep in parallel, so the wall
    // clock stays far under the 8 x 60 ms serial time.
    constexpr int kRuns = 8;
    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    ExperimentSpec spec;
    spec.name = "sleepy";
    spec.plan = [&](const PlanContext &) {
        std::vector<RunSpec> out;
        for (int i = 0; i < kRuns; ++i) {
            RunSpec run;
            run.id = "s" + std::to_string(i);
            run.body = [&](const RunContext &) -> Json {
                const int now = ++in_flight;
                int seen = peak.load();
                while (seen < now &&
                       !peak.compare_exchange_weak(seen, now)) {
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(60));
                --in_flight;
                return Json::object();
            };
            out.push_back(std::move(run));
        }
        return out;
    };
    SchedulerOptions opts;
    opts.jobs = kRuns;
    const auto start = std::chrono::steady_clock::now();
    runExperiment(spec, spec.plan({}), opts);
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GT(peak.load(), 1);
    EXPECT_LT(ms, 60.0 * kRuns / 2.0);
}

/**
 * onRunDone sees every run once. An exception it throws (on its
 * 3rd call here) does not stop the sweep: every run still finishes
 * and reports, and runExperiment rethrows that exception after
 * every thread has joined.
 */
TEST(Scheduler, ProgressCallbackSeesEveryRun)
{
    const ExperimentSpec spec = toySpec(10);
    for (const int jobs : {1, 4}) {
        for (const bool throw_third : {false, true}) {
            SchedulerOptions opts;
            opts.jobs = jobs;
            std::size_t calls = 0;
            std::size_t last_total = 0;
            opts.onRunDone = [&](std::size_t done, std::size_t total,
                                 const RunResult &) {
                ++calls;
                EXPECT_GE(done, 1u);
                EXPECT_LE(done, total);
                last_total = total;
                if (throw_third && calls == 3)
                    throw std::runtime_error("progress failed");
            };
            if (throw_third) {
                EXPECT_THROW(runExperiment(spec, spec.plan({}), opts),
                             std::runtime_error)
                    << jobs;
            } else {
                runExperiment(spec, spec.plan({}), opts);
            }
            EXPECT_EQ(calls, 10u) << jobs << throw_third;
            EXPECT_EQ(last_total, 10u) << jobs << throw_third;
        }
    }
}

/**
 * The tentpole determinism guarantee: same spec + seed produce a
 * byte-identical JSON report whether scheduled on one thread or
 * eight.
 */
TEST(Report, ByteIdenticalAcrossJobCounts)
{
    const ExperimentSpec *spec =
        registry().find("table2_features");
    ASSERT_NE(spec, nullptr);
    PlanContext plan_ctx;
    plan_ctx.effort = Effort::Quick;
    const auto runs = spec->plan(plan_ctx);

    std::string dumps[2];
    const int job_counts[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
        SchedulerOptions opts;
        opts.jobs = job_counts[i];
        opts.effort = Effort::Quick;
        ExperimentResults results;
        results.spec = spec;
        results.runs = runExperiment(*spec, runs, opts);
        ReportOptions ropts;
        ropts.effort = Effort::Quick;
        ropts.jobs = job_counts[i];
        dumps[i] = buildReport({results}, ropts).dump(2);
    }
    EXPECT_EQ(dumps[0], dumps[1]);
    EXPECT_FALSE(dumps[0].empty());
}

/**
 * The refactor's core guarantee: a saturation-search experiment —
 * shared cached topologies, one serial probe walk per run —
 * produces a byte-identical report at any job count. Pinned on a
 * small fig10 slice so it runs in seconds.
 */
TEST(Report, SaturationSliceByteIdenticalAcrossJobs)
{
    const ExperimentSpec *spec =
        registry().find("fig10_saturation");
    ASSERT_NE(spec, nullptr);
    PlanContext plan_ctx;
    plan_ctx.effort = Effort::Quick;
    auto runs = spec->plan(plan_ctx);
    std::erase_if(runs, [](const RunSpec &run) {
        return !globMatch("uniform/n16/*", run.id);
    });
    ASSERT_GE(runs.size(), 3u);

    const auto report_with = [&](int jobs) {
        sf::topos::topologyCache().clear();
        SchedulerOptions opts;
        opts.jobs = jobs;
        opts.effort = Effort::Quick;
        ExperimentResults results;
        results.spec = spec;
        results.runs = runExperiment(*spec, runs, opts);
        ReportOptions ropts;
        ropts.effort = Effort::Quick;
        ropts.jobs = jobs;
        return buildReport({results}, ropts).dump(2);
    };

    const std::string reference = report_with(1);
    EXPECT_FALSE(reference.empty());
    EXPECT_EQ(report_with(8), reference);
}

TEST(Report, SchemaRoundTrip)
{
    const ExperimentSpec spec = toySpec(3);
    ExperimentResults results;
    results.spec = &spec;
    results.runs =
        runExperiment(spec, spec.plan({}), SchedulerOptions{});
    ReportOptions ropts;
    const Json report = buildReport({results}, ropts);

    // Serialise, reparse, and verify the schema fields survive.
    const Json parsed = Json::parse(report.dump(2));
    EXPECT_EQ(parsed.at("schema").asString(), kReportSchema);
    EXPECT_EQ(parsed.at("suite").asString(), "string-figure");
    EXPECT_EQ(parsed.at("effort").asString(), "default");
    EXPECT_EQ(parsed.at("base_seed").asInt(),
              static_cast<std::int64_t>(kBaseSeed));
    const auto &exps = parsed.at("experiments").asArray();
    ASSERT_EQ(exps.size(), 1u);
    EXPECT_EQ(exps[0].at("name").asString(), "toy");
    EXPECT_EQ(exps[0].at("deterministic").asBool(), true);
    const auto &runs = exps[0].at("runs").asArray();
    ASSERT_EQ(runs.size(), 3u);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].at("id").asString(),
                  "run" + std::to_string(i));
        EXPECT_EQ(runs[i].at("params").at("i").asInt(),
                  static_cast<std::int64_t>(i));
        EXPECT_EQ(runs[i].at("metrics").at("square").asInt(),
                  static_cast<std::int64_t>(i * i));
        // Determinism contract: no wall-clock keys by default.
        EXPECT_EQ(runs[i].find("wall_ms"), nullptr);
    }
    EXPECT_EQ(parsed.find("jobs"), nullptr);

    // And the parsed document reserialises to the same bytes.
    EXPECT_EQ(parsed.dump(2), report.dump(2));
}

TEST(Report, TimingOptIn)
{
    const ExperimentSpec spec = toySpec(1);
    ExperimentResults results;
    results.spec = &spec;
    results.runs =
        runExperiment(spec, spec.plan({}), SchedulerOptions{});
    results.wallMs = 1.0;
    ReportOptions ropts;
    ropts.includeTiming = true;
    ropts.jobs = 4;
    const Json report = buildReport({results}, ropts);
    EXPECT_EQ(report.at("jobs").asInt(), 4);
    const auto &exp0 = report.at("experiments").asArray()[0];
    EXPECT_NE(exp0.find("wall_ms"), nullptr);
    EXPECT_NE(exp0.at("runs").asArray()[0].find("wall_ms"),
              nullptr);
}

TEST(Report, RenderTableAlignsColumns)
{
    const ExperimentSpec spec = toySpec(2);
    ExperimentResults results;
    results.spec = &spec;
    results.runs =
        runExperiment(spec, spec.plan({}), SchedulerOptions{});
    const std::string table = renderTable(results);
    EXPECT_NE(table.find("run"), std::string::npos);
    EXPECT_NE(table.find("square"), std::string::npos);
    EXPECT_NE(table.find("run0"), std::string::npos);
    EXPECT_NE(table.find("run1"), std::string::npos);
}

} // namespace
