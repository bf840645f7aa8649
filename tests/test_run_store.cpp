/**
 * @file
 * Crash-recovery harness for the checkpoint store (run_store.hpp).
 *
 * The hard guarantee under test: a sweep interrupted at any point —
 * process killed after the k-th persisted run, a checkpoint file
 * truncated mid-write, a byte flipped on disk — resumes to a report
 * byte-identical to an uninterrupted run, with corrupted entries
 * quarantined and re-executed and stale (spec-hash-mismatched)
 * entries invalidated per experiment, never trusted.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <utility>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/run_store.hpp"
#include "exp/scheduler.hpp"
#include "test_util.hpp"

namespace fs = std::filesystem;

namespace {

using namespace sf::exp;
using sf::test::callSfx;
using sf::test::TempDir;

/**
 * Toy experiment whose bodies count their own executions, so tests
 * can assert exactly which runs were served from the checkpoint
 * and which re-ran.
 */
ExperimentSpec
countingSpec(std::atomic<int> *executions, const std::string &name,
             int runs)
{
    ExperimentSpec spec;
    spec.name = name;
    spec.artefact = "test";
    spec.title = "crash-recovery toy";
    spec.plan = [executions, name, runs](const PlanContext &) {
        std::vector<RunSpec> out;
        for (int i = 0; i < runs; ++i) {
            RunSpec run;
            run.id = "grid/r" + std::to_string(i);
            run.params.set("i", i);
            run.body = [executions,
                        i](const RunContext &ctx) -> Json {
                if (executions)
                    ++*executions;
                Json m = Json::object();
                m.set("square", i * i);
                m.set("seed_echo", ctx.seed);
                m.set("rate", 0.5 + 0.25 * i);
                return m;
            };
            out.push_back(std::move(run));
        }
        return out;
    };
    return spec;
}

/** Sweep one experiment and build the pretty-printed report. */
std::string
sweep(const ExperimentSpec &spec, RunStore *store, int jobs = 1)
{
    const auto runs = spec.plan({});
    SchedulerOptions opts;
    opts.jobs = jobs;
    opts.store = store;
    if (store)
        opts.specHash =
            specHash(spec, runs, opts.effort, opts.baseSeed);
    ExperimentResults results;
    results.spec = &spec;
    results.runs = runExperiment(spec, runs, opts);
    return buildReport({results}, ReportOptions{}).dump(2);
}

constexpr int kRuns = 8;

/**
 * Satellite 1, part 1 — kill after the k-th persisted run, for
 * k in {0, 1, mid, all}: the writeFilter hook drops every write
 * after the k-th, the "crashed" invocation's report is discarded,
 * and a fresh store over the same directory must resume to the
 * reference bytes while executing exactly the lost runs.
 */
TEST(CrashRecovery, KillAfterKthRunResumesByteIdentical)
{
    const ExperimentSpec spec =
        countingSpec(nullptr, "crash_toy", kRuns);
    const std::string reference = sweep(spec, nullptr);

    for (const int k : {0, 1, kRuns / 2, kRuns}) {
        TempDir dir;
        {
            RunStore crashed(dir.path());
            crashed.writeFilter = [k](std::size_t attempt) {
                return attempt <= static_cast<std::size_t>(k);
            };
            (void)sweep(spec, &crashed); // report lost in the crash
            EXPECT_EQ(crashed.stats().writes,
                      static_cast<std::size_t>(k));
            EXPECT_EQ(crashed.stats().dropped,
                      static_cast<std::size_t>(kRuns - k));
        }
        std::atomic<int> executions{0};
        const ExperimentSpec counted =
            countingSpec(&executions, "crash_toy", kRuns);
        RunStore fresh(dir.path());
        const std::string resumed = sweep(counted, &fresh);
        EXPECT_EQ(resumed, reference) << "k=" << k;
        EXPECT_EQ(executions.load(), kRuns - k) << "k=" << k;
        EXPECT_EQ(fresh.stats().hits,
                  static_cast<std::size_t>(k));
        // Now complete: a further resume executes nothing.
        executions = 0;
        RunStore full(dir.path());
        EXPECT_EQ(sweep(counted, &full), reference);
        EXPECT_EQ(executions.load(), 0);
    }
}

/** The same crash matrix under a concurrent scheduler: which k
 *  runs survive is arbitrary, the resumed bytes are not. */
TEST(CrashRecovery, KillUnderConcurrencyResumesByteIdentical)
{
    const ExperimentSpec spec =
        countingSpec(nullptr, "crash_toy_mt", kRuns);
    const std::string reference = sweep(spec, nullptr);
    for (const int k : {1, kRuns / 2}) {
        TempDir dir;
        {
            RunStore crashed(dir.path());
            crashed.writeFilter = [k](std::size_t attempt) {
                return attempt <= static_cast<std::size_t>(k);
            };
            (void)sweep(spec, &crashed, /*jobs=*/8);
        }
        RunStore fresh(dir.path());
        EXPECT_EQ(sweep(spec, &fresh, /*jobs=*/8), reference)
            << "k=" << k;
        EXPECT_EQ(fresh.stats().hits,
                  static_cast<std::size_t>(k));
    }
}

/**
 * Satellite 1, part 2 — a checkpoint file truncated mid-write
 * (half its bytes) fails validation, is quarantined, and its run
 * re-executes; everything else loads and the report is identical.
 */
TEST(CrashRecovery, TruncatedEntryQuarantinedAndReRun)
{
    const ExperimentSpec spec =
        countingSpec(nullptr, "trunc_toy", kRuns);
    const std::string reference = sweep(spec, nullptr);

    TempDir dir;
    {
        RunStore store(dir.path());
        (void)sweep(spec, &store);
        EXPECT_EQ(store.stats().writes,
                  static_cast<std::size_t>(kRuns));
    }
    RunStore probe(dir.path());
    const std::string victim =
        probe.entryPath("trunc_toy", "grid/r3");
    const std::string text = readFile(victim);
    writeFile(victim, text.substr(0, text.size() / 2));

    std::atomic<int> executions{0};
    const ExperimentSpec counted =
        countingSpec(&executions, "trunc_toy", kRuns);
    RunStore fresh(dir.path());
    EXPECT_EQ(sweep(counted, &fresh), reference);
    EXPECT_EQ(executions.load(), 1);
    EXPECT_EQ(fresh.stats().quarantined, 1u);
    EXPECT_EQ(fresh.stats().hits,
              static_cast<std::size_t>(kRuns - 1));
    // The corpse is preserved under quarantine/, not deleted.
    EXPECT_TRUE(
        fs::exists(fs::path(dir.path()) / "quarantine"));
    EXPECT_FALSE(fs::is_empty(
        fs::path(dir.path()) / "quarantine"));
}

/**
 * Satellite 1, part 3 — a single flipped byte inside a stored
 * metric value still parses as JSON, so only the embedded checksum
 * can catch it; the entry must be quarantined, never trusted.
 */
TEST(CrashRecovery, FlippedByteQuarantinedAndReRun)
{
    const ExperimentSpec spec =
        countingSpec(nullptr, "flip_toy", kRuns);
    const std::string reference = sweep(spec, nullptr);

    TempDir dir;
    {
        RunStore store(dir.path());
        (void)sweep(spec, &store);
    }
    RunStore probe(dir.path());
    const std::string victim =
        probe.entryPath("flip_toy", "grid/r5");
    std::string text = readFile(victim);
    // Flip one digit of "square": 25 -> 35. Still valid JSON.
    const std::size_t pos = text.find("\"square\": 25");
    ASSERT_NE(pos, std::string::npos);
    text[pos + std::string("\"square\": ").size()] = '3';
    writeFile(victim, text);

    std::atomic<int> executions{0};
    const ExperimentSpec counted =
        countingSpec(&executions, "flip_toy", kRuns);
    RunStore fresh(dir.path());
    EXPECT_EQ(sweep(counted, &fresh), reference);
    EXPECT_EQ(executions.load(), 1);
    EXPECT_EQ(fresh.stats().quarantined, 1u);
}

/**
 * An entry nested deeper than the JSON parser's cap is corrupt like
 * any other parse failure — quarantined and re-run — where an
 * uncapped recursive parser would overflow the stack.
 */
TEST(CrashRecovery, DeeplyNestedEntryQuarantinedAndReRun)
{
    const ExperimentSpec spec =
        countingSpec(nullptr, "deep_toy", kRuns);
    const std::string reference = sweep(spec, nullptr);

    TempDir dir;
    {
        RunStore store(dir.path());
        (void)sweep(spec, &store);
    }
    writeFile(RunStore(dir.path()).entryPath("deep_toy", "grid/r2"),
              std::string(100000, '['));

    std::atomic<int> executions{0};
    const ExperimentSpec counted =
        countingSpec(&executions, "deep_toy", kRuns);
    RunStore fresh(dir.path());
    EXPECT_EQ(sweep(counted, &fresh), reference);
    EXPECT_EQ(executions.load(), 1);
    EXPECT_EQ(fresh.stats().quarantined, 1u);
}

/**
 * Bugfix pin — the same entry quarantined twice (corrupted, re-run
 * and re-stored, corrupted again: exactly what repeated resumes of
 * a sweep on flaky storage produce) must preserve BOTH corpses.
 * The quarantine target name used to be a pure function of the
 * entry name, so the second quarantine collided with the first and
 * the evidence was overwritten (or, where rename-onto-existing
 * fails, fell through to fs::remove and was deleted outright).
 */
TEST(CrashRecovery, DoubleQuarantineKeepsBothCorpses)
{
    TempDir dir;
    RunStore store(dir.path());
    const RunStore::Key key{"dup_toy", "grid/r0", 7, "h1"};
    RunResult result;
    result.metrics.set("v", 1);
    const std::string path =
        store.entryPath("dup_toy", "grid/r0");
    for (std::size_t round = 1; round <= 2; ++round) {
        store.store(key, result);
        writeFile(path, "not json at all - round " +
                            std::to_string(round));
        RunResult out;
        EXPECT_FALSE(store.load(key, out));
        EXPECT_EQ(store.stats().quarantined, round);
    }
    std::vector<std::string> corpses;
    for (const auto &entry : fs::directory_iterator(
             fs::path(dir.path()) / "quarantine"))
        corpses.push_back(entry.path().string());
    ASSERT_EQ(corpses.size(), 2u);
    // Distinct files, and both rounds' bytes survived.
    std::string all = readFile(corpses[0]) + readFile(corpses[1]);
    EXPECT_NE(all.find("round 1"), std::string::npos);
    EXPECT_NE(all.find("round 2"), std::string::npos);
}

/**
 * A registry change — here simulated by re-planning the experiment
 * with one extra grid cell — flips the spec hash and invalidates
 * exactly that experiment's entries; a sibling experiment in the
 * same checkpoint keeps loading.
 */
TEST(CrashRecovery, SpecHashMismatchInvalidatesOnlyThatExperiment)
{
    const ExperimentSpec a = countingSpec(nullptr, "exp_a", kRuns);
    const ExperimentSpec b = countingSpec(nullptr, "exp_b", kRuns);

    TempDir dir;
    {
        RunStore store(dir.path());
        (void)sweep(a, &store);
        (void)sweep(b, &store);
    }

    // "The registry changed": exp_a now plans one more run.
    std::atomic<int> executions_a{0};
    const ExperimentSpec a2 =
        countingSpec(&executions_a, "exp_a", kRuns + 1);
    const std::string reference_a2 = sweep(a2, nullptr);
    executions_a = 0;

    RunStore fresh(dir.path());
    EXPECT_EQ(sweep(a2, &fresh), reference_a2);
    // Every old exp_a entry is stale: all kRuns + 1 bodies ran.
    EXPECT_EQ(executions_a.load(), kRuns + 1);
    EXPECT_EQ(fresh.stats().stale,
              static_cast<std::size_t>(kRuns));
    EXPECT_EQ(fresh.stats().hits, 0u);

    // exp_b is untouched and still loads fully.
    std::atomic<int> executions_b{0};
    const ExperimentSpec b2 =
        countingSpec(&executions_b, "exp_b", kRuns);
    RunStore other(dir.path());
    (void)sweep(b2, &other);
    EXPECT_EQ(executions_b.load(), 0);
    EXPECT_EQ(other.stats().hits,
              static_cast<std::size_t>(kRuns));

    // And the invalidated entries were overwritten in place: a
    // second exp_a sweep under the new hash is all hits.
    executions_a = 0;
    RunStore again(dir.path());
    (void)sweep(a2, &again);
    EXPECT_EQ(executions_a.load(), 0);
    EXPECT_EQ(again.stats().hits,
              static_cast<std::size_t>(kRuns + 1));
}

TEST(RunStore, MetaBindingRejectsDifferentInvocation)
{
    TempDir dir;
    Json meta = Json::object();
    meta.set("schema", RunStore::kSchema);
    meta.set("patterns", "fig1*");
    meta.set("effort", "quick");
    meta.set("base_seed", std::uint64_t{2019});
    meta.set("run_filter", "");

    RunStore store(dir.path());
    store.bindInvocation(meta);
    store.bindInvocation(meta); // same invocation rebinds fine

    Json other = meta;
    other.set("effort", "full");
    EXPECT_THROW(store.bindInvocation(other), std::runtime_error);

    // readInvocationMeta round-trips, and rejects non-checkpoints.
    const Json read =
        RunStore::readInvocationMeta(dir.path());
    EXPECT_EQ(read.at("patterns").asString(), "fig1*");
    TempDir empty;
    EXPECT_THROW(RunStore::readInvocationMeta(empty.path()),
                 std::runtime_error);
}

TEST(RunStore, JournalStreamsEvents)
{
    const ExperimentSpec spec =
        countingSpec(nullptr, "journal_toy", 3);
    TempDir dir;
    {
        RunStore store(dir.path());
        (void)sweep(spec, &store);
    }
    const std::string journal = readFile(
        (fs::path(dir.path()) / "journal.jsonl").string());
    // Lenient tail: a crashed writer may leave a partial line.
    const std::vector<Json> events =
        Json::parseLines(journal, /*dropTruncatedTail=*/true);
    ASSERT_EQ(events.size(), 3u);
    for (const Json &e : events) {
        EXPECT_EQ(e.at("event").asString(), "store");
        EXPECT_EQ(e.at("experiment").asString(), "journal_toy");
    }
}

/**
 * Durable-write batching: the per-entry parent-directory fsync is
 * amortised into one dirty-directory pass per kDirSyncInterval
 * stores (plus a flush on destruction), so a sweep storing R
 * entries into one runs/ directory issues ~R/interval directory
 * syncs, not R — while every entry file still lands atomically
 * (the crash tests above hold with batching on, because a lost
 * rename is a miss that re-executes, never a corrupt entry).
 */
TEST(RunStore, DirSyncsAreBatchedAcrossStores)
{
    const int runs =
        static_cast<int>(RunStore::kDirSyncInterval) + 3;
    const ExperimentSpec spec =
        countingSpec(nullptr, "dirsync_toy", runs);
    TempDir dir;
    RunStore store(dir.path());
    (void)sweep(spec, &store);
    const RunStore::Stats mid = store.stats();
    EXPECT_EQ(mid.writes, static_cast<std::size_t>(runs));
    // One batch boundary was crossed; everything stored since is
    // pending until an explicit flush (or destruction).
    EXPECT_EQ(mid.dirSyncs, 1u);
    store.flushDurability();
    const RunStore::Stats flushed = store.stats();
    EXPECT_EQ(flushed.dirSyncs, 2u);
    // Idempotent: nothing dirty, nothing synced.
    store.flushDurability();
    EXPECT_EQ(store.stats().dirSyncs, 2u);
}

/** Distinct run ids — or experiment names — that sanitise
 *  identically must not collide on a shared entry file. */
TEST(RunStore, EntryPathsDisambiguateSanitisedCollisions)
{
    TempDir dir;
    RunStore store(dir.path());
    EXPECT_NE(store.entryPath("e", "a/b"),
              store.entryPath("e", "a_b"));
    EXPECT_NE(store.entryPath("e", "a/b"),
              store.entryPath("e2", "a/b"));
    // "e/x" and "e_x" share a sanitised directory; the chained
    // hash keeps their entry files apart.
    EXPECT_NE(store.entryPath("e/x", "r0"),
              store.entryPath("e_x", "r0"));
}

// --------------------------------------------------- CLI end-to-end

/** Every run entry file under checkpoint @p dir, sorted. */
std::vector<std::string>
runEntries(const std::string &dir)
{
    std::vector<std::string> entries;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (e.path().extension() == ".json" &&
            e.path().parent_path().filename() == "runs")
            entries.push_back(e.path().string());
    }
    std::sort(entries.begin(), entries.end());
    return entries;
}

/**
 * The acceptance path end to end, at --jobs 1 and 8: `sfx run
 * --checkpoint --max-runs` exits 3 (interrupted), `sfx resume`
 * finishes from meta.json alone, and the resumed report is
 * byte-identical to an uninterrupted single-shot run. Uses a
 * two-experiment sweep plus a fig1* slice so checkpoints span
 * experiments with distinct spec hashes.
 */
TEST(SfxCli, InterruptedThenResumedReportIsByteIdentical)
{
    for (const char *jobs : {"1", "8"}) {
        TempDir work;
        const std::string clean = work.file("clean.json");
        const std::string resumed = work.file("resumed.json");
        const std::string ckpt = work.file("ckpt");

        ASSERT_EQ(callSfx({"sfx", "run", "table2_features",
                           "ablation_reconfig_envelope",
                           "--quick", "--quiet", "--jobs", jobs,
                           "--out", clean}),
                  0);
        EXPECT_EQ(callSfx({"sfx", "run", "table2_features",
                           "ablation_reconfig_envelope",
                           "--quick", "--quiet", "--jobs", jobs,
                           "--checkpoint", ckpt, "--max-runs",
                           "2"}),
                  3);
        EXPECT_EQ(callSfx({"sfx", "resume", ckpt, "--quiet",
                           "--jobs", jobs, "--out", resumed}),
                  0);
        EXPECT_EQ(readFile(resumed), readFile(clean));
    }
}

TEST(SfxCli, Fig1SliceInterruptedThenResumed)
{
    TempDir work;
    const std::string clean = work.file("clean.json");
    const std::string resumed = work.file("resumed.json");
    const std::string ckpt = work.file("ckpt");

    ASSERT_EQ(callSfx({"sfx", "run", "fig1*", "--quick",
                       "--quiet", "--runs", "*/n16/*", "--jobs",
                       "8", "--out", clean}),
              0);
    EXPECT_EQ(callSfx({"sfx", "run", "fig1*", "--quick",
                       "--quiet", "--runs", "*/n16/*", "--jobs",
                       "8", "--checkpoint", ckpt, "--max-runs",
                       "5"}),
              3);
    // Resume restores patterns, effort, and the --runs filter from
    // meta.json; only execution knobs are passed here.
    EXPECT_EQ(callSfx({"sfx", "resume", ckpt, "--quiet", "--jobs",
                       "1", "--out", resumed}),
              0);
    EXPECT_EQ(readFile(resumed), readFile(clean));
}

/**
 * `sfx checkpoint status DIR`: per-experiment completed / pending /
 * stale / corrupt counts from the entry files, exit 3 while runs
 * are pending and 0 once complete, read-only (a corrupt entry is
 * reported but never quarantined by status itself), and a --json
 * form carrying the same numbers.
 */
TEST(SfxCli, CheckpointStatusTracksSweepLifecycle)
{
    TempDir work;
    const std::string ckpt = work.file("ckpt");

    // Interrupted sweep: some runs stored, some pending.
    ASSERT_EQ(callSfx({"sfx", "run", "table2_features",
                       "ablation_reconfig_envelope", "--quick",
                       "--quiet", "--checkpoint", ckpt,
                       "--max-runs", "2"}),
              3);
    EXPECT_EQ(callSfx({"sfx", "checkpoint", "status", ckpt}), 3);

    testing::internal::CaptureStdout();
    EXPECT_EQ(callSfx({"sfx", "checkpoint", "status", ckpt,
                       "--json"}),
              3);
    Json status =
        Json::parse(testing::internal::GetCapturedStdout());
    EXPECT_EQ(status.at("schema").asString(),
              "sf-exp-checkpoint-status-v1");
    EXPECT_EQ(status.at("total").at("completed").asUint(), 2u);
    EXPECT_GT(status.at("total").at("pending").asUint(), 0u);
    EXPECT_EQ(status.at("total").at("corrupt").asUint(), 0u);
    EXPECT_EQ(status.at("experiments").asArray().size(), 2u);

    // Flip a byte in one stored entry: status must count it as
    // corrupt without quarantining it (read-only inspection).
    const std::vector<std::string> entries = runEntries(ckpt);
    ASSERT_EQ(entries.size(), 2u);
    std::string text = readFile(entries[0]);
    const auto pos = text.find("\"check\": \"");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 10] = text[pos + 10] == 'f' ? '0' : 'f';
    writeFile(entries[0], text);

    testing::internal::CaptureStdout();
    EXPECT_EQ(callSfx({"sfx", "checkpoint", "status", ckpt,
                       "--json"}),
              3);
    status = Json::parse(testing::internal::GetCapturedStdout());
    EXPECT_EQ(status.at("total").at("corrupt").asUint(), 1u);
    EXPECT_EQ(status.at("total").at("completed").asUint(), 1u);
    EXPECT_TRUE(fs::exists(entries[0]))
        << "status must not quarantine";
    EXPECT_EQ(status.at("quarantined_files").asUint(), 0u);

    // Finish the sweep; the resume quarantines and re-runs the
    // corrupt entry, after which status reports complete.
    ASSERT_EQ(callSfx({"sfx", "resume", ckpt, "--quiet"}), 0);
    testing::internal::CaptureStdout();
    EXPECT_EQ(callSfx({"sfx", "checkpoint", "status", ckpt,
                       "--json"}),
              0);
    status = Json::parse(testing::internal::GetCapturedStdout());
    EXPECT_EQ(status.at("total").at("pending").asUint(), 0u);
    EXPECT_EQ(status.at("total").at("completed").asUint(),
              status.at("total").at("planned").asUint());
    EXPECT_EQ(status.at("quarantined_files").asUint(), 1u);
    EXPECT_GT(status.at("journal_events").asUint(), 0u);

    // `sfx checkpoint gc`: the complete sweep above left one
    // quarantined corpse; plant an orphan under runs/ too (a
    // registry rename / removed grid cell leaves exactly this).
    // gc must reclaim both, keep every valid entry — status still
    // reports the sweep complete — and a second gc is a no-op.
    const fs::path orphan =
        fs::path(entries[0]).parent_path() / "orphan.json";
    writeFile(orphan.string(), "{}");
    testing::internal::CaptureStdout();
    EXPECT_EQ(callSfx({"sfx", "checkpoint", "gc", ckpt,
                       "--json"}),
              0);
    Json gc = Json::parse(testing::internal::GetCapturedStdout());
    EXPECT_EQ(gc.at("quarantine_deleted").asUint(), 1u);
    EXPECT_EQ(gc.at("orphaned_deleted").asUint(), 1u);
    EXPECT_EQ(gc.at("stale_deleted").asUint(), 0u);
    EXPECT_EQ(gc.at("kept").asUint(),
              status.at("total").at("planned").asUint());
    EXPECT_FALSE(fs::exists(orphan));
    EXPECT_FALSE(
        fs::exists(fs::path(ckpt) / "quarantine"));
    testing::internal::CaptureStdout();
    EXPECT_EQ(callSfx({"sfx", "checkpoint", "status", ckpt,
                       "--json"}),
              0);
    status = Json::parse(testing::internal::GetCapturedStdout());
    EXPECT_EQ(status.at("total").at("pending").asUint(), 0u);
    testing::internal::CaptureStdout();
    EXPECT_EQ(callSfx({"sfx", "checkpoint", "gc", ckpt,
                       "--json"}),
              0);
    gc = Json::parse(testing::internal::GetCapturedStdout());
    EXPECT_EQ(gc.at("quarantine_deleted").asUint(), 0u);
    EXPECT_EQ(gc.at("orphaned_deleted").asUint(), 0u);

    // Usage errors.
    EXPECT_EQ(callSfx({"sfx", "checkpoint", "status",
                       work.file("nope")}),
              2);
    EXPECT_EQ(callSfx({"sfx", "checkpoint", "prune", ckpt}), 2);
    EXPECT_EQ(callSfx({"sfx", "checkpoint", "status"}), 2);
    EXPECT_EQ(callSfx({"sfx", "checkpoint", "gc",
                       work.file("nope")}),
              2);
}

/**
 * A wrong-typed sweep field in meta.json must stop resume, status
 * and gc with a message naming the field, before anything is
 * planned: read on, a negative base_seed wrapped to 2^64 - 1, and
 * gc then deleted every valid entry as stale.
 */
TEST(SfxCli, MalformedCheckpointMetaFailsWithoutDeleting)
{
    TempDir work;
    const std::string ckpt = work.file("ckpt");
    ASSERT_EQ(callSfx({"sfx", "run", "table2_features", "--quick",
                       "--quiet", "--checkpoint", ckpt}),
              0);
    const std::vector<std::string> entries = runEntries(ckpt);
    ASSERT_FALSE(entries.empty());

    const std::string meta_path = work.file("ckpt/meta.json");
    const std::string meta = readFile(meta_path);
    const std::string key = "\"base_seed\": 2019";
    const auto pos = meta.find(key);
    ASSERT_NE(pos, std::string::npos) << meta;
    for (const char *bad : {"-1", "2019.0", "\"2019\""}) {
        std::string text = meta;
        text.replace(pos, key.size(),
                     std::string("\"base_seed\": ") + bad);
        writeFile(meta_path, text);
        for (const char *cmd : {"gc", "status"}) {
            testing::internal::CaptureStderr();
            EXPECT_EQ(callSfx({"sfx", "checkpoint", cmd, ckpt}), 2)
                << cmd << " with base_seed " << bad;
            const std::string err =
                testing::internal::GetCapturedStderr();
            EXPECT_NE(err.find("base_seed"), std::string::npos)
                << err;
            EXPECT_NE(err.find("meta.json"), std::string::npos)
                << err;
        }
        testing::internal::CaptureStderr();
        EXPECT_EQ(callSfx({"sfx", "resume", ckpt, "--quiet"}), 2)
            << "resume with base_seed " << bad;
        testing::internal::GetCapturedStderr();
        for (const std::string &entry : entries)
            EXPECT_TRUE(fs::exists(entry))
                << entry << " deleted with base_seed " << bad;
    }
}

/** A checkpoint made by one invocation refuses another's flags. */
TEST(SfxCli, CheckpointRejectsMismatchedInvocation)
{
    TempDir work;
    const std::string ckpt = work.file("ckpt");
    EXPECT_EQ(callSfx({"sfx", "run", "table2_features", "--quick",
                       "--quiet", "--checkpoint", ckpt}),
              0);
    EXPECT_EQ(callSfx({"sfx", "run", "table2_features", "--quiet",
                       "--checkpoint", ckpt}),
              2); // different effort
    EXPECT_EQ(callSfx({"sfx", "run", "bisection_bandwidth",
                       "--quick", "--quiet", "--checkpoint",
                       ckpt}),
              2); // different patterns
    EXPECT_EQ(callSfx({"sfx", "resume", work.file("nope")}),
              2); // not a checkpoint directory
}

/**
 * An --out path the report could never be written to exits 2,
 * naming --out, before the first run is scheduled: a sweep is not
 * run only to be thrown away at the final write. Checked on run
 * (missing directory, a file where the directory should be, a
 * directory as the report path, an empty path) and on resume,
 * where a checkpoint keeps exactly the entries it had.
 */
TEST(SfxCli, UnusableOutPathFailsBeforeAnyRun)
{
    TempDir work;
    const std::string ckpt = work.file("ckpt");
    const std::string plain = work.file("plain");
    writeFile(plain, "x\n");
    const auto stored_entries = [&] {
        std::size_t n = 0;
        std::error_code ec;
        for (fs::recursive_directory_iterator it(ckpt, ec), end;
             !ec && it != end; it.increment(ec))
            n += it->is_regular_file() &&
                 it->path().parent_path().filename() == "runs";
        return n;
    };
    for (const std::string &out :
         {work.file("nonexistent/x.json"), plain + "/x.json",
          work.path(), std::string()}) {
        testing::internal::CaptureStderr();
        EXPECT_EQ(callSfx({"sfx", "run", "table2_features",
                           "--quick", "--quiet", "--jobs", "1",
                           "--checkpoint", ckpt, "--out", out}),
                  2)
            << out;
        EXPECT_NE(testing::internal::GetCapturedStderr().find(
                      "--out"),
                  std::string::npos)
            << out;
        EXPECT_EQ(stored_entries(), 0u) << out;
    }

    EXPECT_EQ(callSfx({"sfx", "run", "table2_features", "--quick",
                       "--quiet", "--jobs", "1", "--checkpoint",
                       ckpt, "--max-runs", "1"}),
              3);
    ASSERT_EQ(stored_entries(), 1u);
    for (const std::string &out :
         {work.file("nonexistent/x.json"), std::string()}) {
        testing::internal::CaptureStderr();
        EXPECT_EQ(callSfx({"sfx", "resume", ckpt, "--quiet",
                           "--out", out}),
                  2)
            << out;
        EXPECT_NE(testing::internal::GetCapturedStderr().find(
                      "--out"),
                  std::string::npos)
            << out;
        EXPECT_EQ(stored_entries(), 1u) << out;
    }
}

/** A path or glob flag given an empty value exits 2 naming the
 *  flag, instead of silently writing no report, keeping no
 *  checkpoint or filtering no run. */
TEST(SfxCli, RejectsEmptyPathAndGlobValues)
{
    for (const auto &[flag, named] :
         {std::pair<std::string, std::string>{"--out", "--out"},
          std::pair<std::string, std::string>{"-o", "--out"},
          std::pair<std::string, std::string>{"--checkpoint",
                                              "--checkpoint"},
          std::pair<std::string, std::string>{"--runs", "--runs"}}) {
        testing::internal::CaptureStderr();
        EXPECT_EQ(callSfx({"sfx", "run", "table2_features",
                           "--quick", "--quiet", "--jobs", "1", flag,
                           ""}),
                  2)
            << flag;
        EXPECT_NE(testing::internal::GetCapturedStderr().find(
                      named + " needs a non-empty value"),
                  std::string::npos)
            << flag;
    }
}

/** Count flags take a whole decimal integer in [1, INT_MAX]:
 *  trailing junk, signs, zero and out-of-range values exit 2 with
 *  a message naming the flag instead of truncating or overflowing. */
TEST(SfxCli, RejectsMalformedCountFlags)
{
    for (const char *flag : {"--jobs", "--max-runs"}) {
        for (const char *bad :
             {"4x", "2abc", "3z", "", "0", "-1", "+2",
              "99999999999", "-18446744073709551615",
              "18446744073709551616"}) {
            testing::internal::CaptureStderr();
            EXPECT_EQ(callSfx({"sfx", "run", "table2_features",
                               "--list-runs", flag, bad}),
                      2)
                << flag << " '" << bad << "'";
            EXPECT_NE(testing::internal::GetCapturedStderr().find(
                          flag),
                      std::string::npos);
        }
        testing::internal::CaptureStdout();
        EXPECT_EQ(callSfx({"sfx", "run", "table2_features",
                           "--list-runs", flag, "3"}),
                  0)
            << flag;
        testing::internal::GetCapturedStdout();
    }
    // The removed sharded and memoized route planes' flags and the
    // removed topology-cache toggle are unknown options now, on run
    // and on resume alike.
    TempDir work;
    for (const std::vector<std::string> &removed :
         {std::vector<std::string>{"--shards", "4"},
          std::vector<std::string>{"--route-cache", "off"},
          std::vector<std::string>{"--no-topo-cache"}}) {
        const std::string &flag = removed.front();
        for (std::vector<std::string> args :
             {std::vector<std::string>{"sfx", "run",
                                       "table2_features",
                                       "--list-runs"},
              std::vector<std::string>{"sfx", "resume",
                                       work.path()}}) {
            args.insert(args.end(), removed.begin(), removed.end());
            testing::internal::CaptureStderr();
            EXPECT_EQ(callSfx(args), 2) << args[1] << " " << flag;
            EXPECT_NE(testing::internal::GetCapturedStderr().find(
                          "unknown option: " + flag),
                      std::string::npos)
                << args[1] << " " << flag;
        }
    }
}

/** --seed takes a whole decimal integer in [0, 2^64 - 1]: a sign,
 *  leading whitespace, trailing junk or an overflowing value exits
 *  2 with a message naming the flag instead of being negated,
 *  skipped or truncated. */
TEST(SfxCli, RejectsMalformedSeed)
{
    for (const char *bad : {"-1", "+1", " 7", "", "7x",
                            "18446744073709551616"}) {
        testing::internal::CaptureStderr();
        EXPECT_EQ(callSfx({"sfx", "run", "table2_features",
                           "--list-runs", "--seed", bad}),
                  2)
            << "'" << bad << "'";
        EXPECT_NE(
            testing::internal::GetCapturedStderr().find("--seed"),
            std::string::npos);
    }
    for (const char *good : {"0", "18446744073709551615"}) {
        testing::internal::CaptureStdout();
        EXPECT_EQ(callSfx({"sfx", "run", "table2_features",
                           "--list-runs", "--seed", good}),
                  0)
            << good;
        testing::internal::GetCapturedStdout();
    }
}

} // namespace
