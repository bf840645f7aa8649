#include "exp/driver.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <vector>

#include <atomic>
#include <memory>

#include <unistd.h>

#include "exp/diff.hpp"
#include "exp/registry.hpp"
#include "exp/render.hpp"
#include "exp/report.hpp"
#include "exp/run_store.hpp"
#include "exp/scheduler.hpp"
#include "sim/reconfig_schedule.hpp"
#include "topos/factory.hpp"

namespace sf::exp {

namespace {

struct CliOptions {
    std::vector<std::string> patterns;
    int jobs = 0; // 0 = hardware concurrency
    /** Routing policy (sim.policy). NOT an execution knob:
     *  non-greedy policies change simulated events, so the value
     *  is part of the sweep — recorded in checkpoint meta.json and
     *  rejected on resume. */
    core::RoutingPolicyKind policy =
        core::RoutingPolicyKind::Greedy;
    /** Reconfig-schedule severity filter (PlanContext::
     *  reconfigSchedule). NOT an execution knob: it changes which
     *  runs the elastic family plans, so like --policy it is
     *  recorded in checkpoint meta.json and rejected on resume.
     *  Empty = plan every severity. */
    std::string reconfigSchedule;
    std::string outPath;
    Effort effort = Effort::Default;
    std::uint64_t baseSeed = kBaseSeed;
    std::string runFilter;
    std::string checkpointDir;
    /** 0 = unlimited; otherwise stop (exit 3) after this many
     *  executed runs — a deterministic simulated interrupt. */
    std::size_t maxRuns = 0;
    bool timing = false;
    bool listRuns = false;
    bool quiet = false;
    /** --help was handled: exit 0, not a usage error. */
    bool helpShown = false;
};

void
printUsage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage:\n"
        "  sfx list                       list registered "
        "experiments\n"
        "  sfx run <name|glob>...         run experiments\n"
        "  sfx resume <dir>               finish a checkpointed "
        "run\n"
        "  sfx checkpoint status <dir>    completed/pending/stale "
        "counts\n"
        "  sfx checkpoint gc <dir>        delete stale/orphaned/"
        "quarantined\n"
        "                                 entries, prune empty "
        "directories\n"
        "  sfx diff <base.json> <new.json>  compare two reports\n"
        "  sfx render <report.json> --table <name>  normalised\n"
        "                                 paper-table view of a "
        "report\n"
        "                                 (tables: "
        "throughput-vs-dm)\n"
        "\n"
        "run options:\n"
        "  --jobs N      worker threads (default: all cores)\n"
        "  --policy P    routing policy: greedy | ugal | "
        "table_oracle\n"
        "                 (default greedy; non-greedy changes "
        "results)\n"
        "  --reconfig-schedule S  restrict elastic experiments to "
        "one\n"
        "                 schedule severity: leave_join | fail | "
        "cascade\n"
        "                 (default: plan all; changes the run grid "
        "like\n"
        "                 --policy, so resume cannot override it)\n"
        "  --out FILE    write the JSON report to FILE\n"
        "  --effort E    quick | default | full\n"
        "  --quick       same as --effort quick\n"
        "  --full        same as --effort full\n"
        "  --seed S      base seed (default %llu)\n"
        "  --runs GLOB   keep only run ids matching GLOB\n"
        "  --timing      include wall-clock metadata in the "
        "report\n"
        "  --list-runs   print the planned run grid and exit\n"
        "  --quiet       suppress tables, print a summary only\n"
        "  --checkpoint DIR  persist completed runs under DIR and "
        "skip runs\n"
        "                 already stored there (resumable sweeps)\n"
        "  --max-runs N  stop after N executed runs (simulated "
        "interrupt,\n"
        "                 exit 3); finish with `sfx resume DIR`\n"
        "\n"
        "resume options: --jobs, --out, --timing, --quiet, "
        "--max-runs\n"
        "(pattern, effort, seed, policy, --reconfig-schedule, and "
        "--runs come from the checkpoint's meta.json)\n"
        "\n"
        "diff options:\n"
        "  --tolerance F  accept relative metric drift up to F "
        "(e.g. 0.05);\n"
        "                 exits 1 on regressions beyond it\n"
        "  --json         structured sf-exp-diff-v1 output instead "
        "of text\n"
        "  --bless        overwrite <base.json> with <new.json>'s "
        "bytes\n"
        "                 (regenerate a committed baseline in "
        "place)\n"
        "\n"
        "checkpoint status options:\n"
        "  --json         structured sf-exp-checkpoint-status-v1 "
        "output\n"
        "(exit 0 when every planned run is stored, 3 when runs "
        "are pending)\n"
        "\n"
        "checkpoint gc options:\n"
        "  --json         structured sf-exp-checkpoint-gc-v1 "
        "output\n"
        "(valid entries always survive; a gc never changes what "
        "resume computes)\n",
        static_cast<unsigned long long>(kBaseSeed));
}

/** Parse @p v as a whole unsigned decimal integer: digits only,
 *  no trailing characters, no overflow. Returns false on anything
 *  else. */
bool
parseDecimal(const char *v, unsigned long long &out)
{
    // strtoull skips leading whitespace and accepts a sign, which it
    // negates, so demand a leading digit.
    if (!std::isdigit(static_cast<unsigned char>(v[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(v, &end, 10);
    return errno == 0 && *end == '\0';
}

/** Parse @p v as a count flag's value: a decimal integer in
 *  [1, INT_MAX]. On a bad value, prints a message naming @p flag
 *  and returns false. */
bool
parseCount(const char *flag, const char *v, int &out)
{
    unsigned long long n = 0;
    if (!parseDecimal(v, n) || n < 1 ||
        n > static_cast<unsigned long long>(INT_MAX)) {
        std::fprintf(stderr,
                     "sfx: %s needs an integer in [1, %d], got "
                     "'%s'\n",
                     flag, INT_MAX, v);
        return false;
    }
    out = static_cast<int>(n);
    return true;
}

/** Parse options shared by `sfx run`, `sfx resume`, and the bench
 *  wrappers. With @p execution_knobs_only (resume), flags that
 *  define the sweep itself — which the checkpoint's meta.json owns
 *  — are rejected rather than parsed. Returns false (after
 *  printing a message) on bad usage. */
bool
parseRunOptions(int argc, char **argv, int first, CliOptions &opts,
                bool accept_patterns,
                bool execution_knobs_only = false)
{
    for (int i = first; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (execution_knobs_only &&
            (arg == "--effort" || arg == "--quick" ||
             arg == "--full" || arg == "--seed" ||
             arg == "--runs" || arg == "--checkpoint" ||
             arg == "--policy" ||
             arg == "--reconfig-schedule" ||
             arg == "--list-runs")) {
            std::fprintf(stderr,
                         "sfx: %s cannot be overridden on resume "
                         "(the sweep comes from the checkpoint's "
                         "meta.json)\n",
                         argv[i]);
            return false;
        }
        const auto need_value = [&](const char *flag) -> char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "sfx: %s needs a value\n",
                             flag);
                return nullptr;
            }
            return argv[++i];
        };
        // Paths and globs: an empty value would silently mean no
        // report, no checkpoint or no filter.
        const auto need_nonempty = [&](const char *flag) -> char * {
            char *v = need_value(flag);
            if (v && *v == '\0') {
                std::fprintf(stderr,
                             "sfx: %s needs a non-empty value\n",
                             flag);
                return nullptr;
            }
            return v;
        };
        if (arg == "--jobs" || arg == "-j") {
            char *v = need_value("--jobs");
            if (!v)
                return false;
            if (!parseCount("--jobs", v, opts.jobs))
                return false;
        } else if (arg == "--policy") {
            char *v = need_value("--policy");
            if (!v)
                return false;
            if (!core::parseRoutingPolicy(v, opts.policy)) {
                std::fprintf(stderr,
                             "sfx: --policy needs greedy, ugal, "
                             "or table_oracle, got '%s'\n",
                             v);
                return false;
            }
        } else if (arg == "--reconfig-schedule") {
            char *v = need_value("--reconfig-schedule");
            if (!v)
                return false;
            if (!sim::isReconfigSeverity(v)) {
                std::fprintf(stderr,
                             "sfx: --reconfig-schedule needs "
                             "leave_join, fail, or cascade, got "
                             "'%s'\n",
                             v);
                return false;
            }
            opts.reconfigSchedule = v;
        } else if (arg == "--out" || arg == "-o") {
            char *v = need_nonempty("--out");
            if (!v)
                return false;
            opts.outPath = v;
        } else if (arg == "--effort") {
            char *v = need_value("--effort");
            if (!v)
                return false;
            try {
                opts.effort = parseEffort(v);
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "sfx: %s\n", e.what());
                return false;
            }
        } else if (arg == "--quick") {
            opts.effort = Effort::Quick;
        } else if (arg == "--full") {
            opts.effort = Effort::Full;
        } else if (arg == "--seed") {
            char *v = need_value("--seed");
            if (!v)
                return false;
            unsigned long long seed = 0;
            if (!parseDecimal(v, seed)) {
                std::fprintf(stderr,
                             "sfx: --seed needs an unsigned "
                             "integer, got '%s'\n",
                             v);
                return false;
            }
            opts.baseSeed = seed;
        } else if (arg == "--runs") {
            char *v = need_nonempty("--runs");
            if (!v)
                return false;
            opts.runFilter = v;
        } else if (arg == "--checkpoint") {
            char *v = need_nonempty("--checkpoint");
            if (!v)
                return false;
            opts.checkpointDir = v;
        } else if (arg == "--max-runs") {
            char *v = need_value("--max-runs");
            if (!v)
                return false;
            int n = 0;
            if (!parseCount("--max-runs", v, n))
                return false;
            opts.maxRuns = static_cast<std::size_t>(n);
        } else if (arg == "--timing") {
            opts.timing = true;
        } else if (arg == "--list-runs") {
            opts.listRuns = true;
        } else if (arg == "--quiet" || arg == "-q") {
            opts.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            opts.helpShown = true;
            return false;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "sfx: unknown option: %s\n",
                         argv[i]);
            return false;
        } else if (accept_patterns) {
            opts.patterns.emplace_back(arg);
        } else {
            std::fprintf(stderr, "sfx: unexpected argument: %s\n",
                         argv[i]);
            return false;
        }
    }
    return true;
}

int
doList()
{
    const Registry &r = registry();
    std::size_t width = 0;
    for (const ExperimentSpec &spec : r.all())
        width = std::max(width, spec.name.size());
    for (const ExperimentSpec &spec : r.all())
        std::printf("%-*s  [%s]  %s\n", static_cast<int>(width),
                    spec.name.c_str(), spec.artefact.c_str(),
                    spec.title.c_str());
    return 0;
}

/**
 * Plan one experiment's run grid and apply the `--runs` id filter —
 * the single definition of "which runs does this invocation
 * execute", shared by `sfx run`/`resume` (via doRun) and
 * `sfx checkpoint status` so the two can never plan different
 * grids.
 */
std::vector<RunSpec>
plannedRuns(const ExperimentSpec &spec, const PlanContext &plan_ctx,
            const std::string &run_filter)
{
    auto runs = spec.plan(plan_ctx);
    if (!run_filter.empty())
        std::erase_if(runs, [&](const RunSpec &run) {
            return !globMatch(run_filter, run.id);
        });
    return runs;
}

/**
 * Check that the report could be written to @p path: its directory
 * exists, is a directory and is writable, and the path itself is not
 * a directory. doRun calls this before the first run is scheduled,
 * so an unusable --out costs nothing instead of the whole sweep.
 * Returns false after printing a message that names --out.
 */
bool
outPathUsable(const std::string &path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path dir = fs::path(path).parent_path();
    if (dir.empty())
        dir = ".";
    std::string problem;
    if (!fs::exists(dir, ec))
        problem = "directory '" + dir.string() + "' does not exist";
    else if (!fs::is_directory(dir, ec))
        problem = "'" + dir.string() + "' is not a directory";
    else if (::access(dir.c_str(), W_OK) != 0)
        problem = "directory '" + dir.string() + "' is not writable";
    else if (fs::is_directory(path, ec))
        problem = "it is a directory";
    if (problem.empty())
        return true;
    std::fprintf(stderr, "sfx: --out %s: %s\n", path.c_str(),
                 problem.c_str());
    return false;
}

int
doRun(const CliOptions &opts)
{
    std::string joined;
    for (const std::string &p : opts.patterns) {
        if (!joined.empty())
            joined.push_back(',');
        joined += p;
    }
    const auto specs = registry().match(joined);
    if (specs.empty()) {
        std::fprintf(stderr,
                     "sfx: no experiment matches '%s' (try `sfx "
                     "list`)\n",
                     joined.c_str());
        return 2;
    }

    PlanContext plan_ctx;
    plan_ctx.effort = opts.effort;
    plan_ctx.baseSeed = opts.baseSeed;
    plan_ctx.reconfigSchedule = opts.reconfigSchedule;

    // Plan every matched experiment, applying the run-id filter.
    const auto plan_runs = [&](const ExperimentSpec *spec) {
        return plannedRuns(*spec, plan_ctx, opts.runFilter);
    };

    if (opts.listRuns) {
        for (const ExperimentSpec *spec : specs) {
            const auto runs = plan_runs(spec);
            std::printf("%s (%zu runs)\n", spec->name.c_str(),
                        runs.size());
            for (const RunSpec &run : runs)
                std::printf("  %s\n", run.id.c_str());
        }
        return 0;
    }

    if (!opts.outPath.empty() && !outPathUsable(opts.outPath))
        return 2;

    // Resumable sweeps: bind (or create) the checkpoint directory
    // before any work, so meta mismatches fail fast.
    std::unique_ptr<RunStore> store;
    if (!opts.checkpointDir.empty()) {
        try {
            store =
                std::make_unique<RunStore>(opts.checkpointDir);
            Json meta = Json::object();
            meta.set("schema", RunStore::kSchema);
            meta.set("suite", "string-figure");
            meta.set("patterns", joined);
            meta.set("effort",
                     std::string(effortName(opts.effort)));
            meta.set("base_seed", opts.baseSeed);
            meta.set("run_filter", opts.runFilter);
            // Sweep-defining like effort/seed: a checkpoint taken
            // under one policy must never be finished under
            // another (results would silently mix event streams).
            meta.set("policy",
                     core::routingPolicyName(opts.policy));
            // Sweep-defining too: the severity filter changes which
            // runs the elastic family plans.
            meta.set("reconfig_schedule", opts.reconfigSchedule);
            store->bindInvocation(meta);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "sfx: %s\n", e.what());
            return 2;
        }
    }

    std::atomic<std::size_t> executed{0};

    SchedulerOptions sched;
    sched.jobs = opts.jobs;
    sched.policy = opts.policy;
    sched.effort = opts.effort;
    sched.baseSeed = opts.baseSeed;
    sched.store = store.get();
    sched.maxExecuted = opts.maxRuns;
    sched.executedCount = &executed;

    std::vector<ExperimentResults> all;
    all.reserve(specs.size());
    bool any_failed = false;
    const auto suite_start = std::chrono::steady_clock::now();
    for (const ExperimentSpec *spec : specs) {
        const auto runs = plan_runs(spec);
        if (runs.empty() && !opts.runFilter.empty())
            continue;
        if (!opts.quiet) {
            std::printf("== %s [%s] — %s\n", spec->name.c_str(),
                        spec->artefact.c_str(),
                        spec->title.c_str());
            std::printf("   effort %s, %zu runs, %d jobs\n",
                        std::string(effortName(opts.effort))
                            .c_str(),
                        runs.size(),
                        effectiveJobs(sched, runs.size()));
            std::fflush(stdout);
        }
        ExperimentResults results;
        results.spec = spec;
        sched.specHash =
            store ? specHash(*spec, runs, opts.effort,
                             opts.baseSeed)
                  : std::string();
        const auto start = std::chrono::steady_clock::now();
        results.runs = runExperiment(*spec, runs, sched);
        results.wallMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        for (const RunResult &r : results.runs) {
            if (r.failed) {
                any_failed = true;
                std::fprintf(stderr, "sfx: %s/%s FAILED: %s\n",
                             spec->name.c_str(), r.id.c_str(),
                             r.error.c_str());
            }
        }
        if (!opts.quiet) {
            std::fputs(renderTable(results).c_str(), stdout);
            std::printf("   (%.1f ms)\n\n", results.wallMs);
            std::fflush(stdout);
        }
        all.push_back(std::move(results));
    }
    const double suite_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - suite_start)
            .count();

    std::size_t total_runs = 0;
    std::size_t reused = 0;
    std::size_t pending = 0;
    std::size_t ran = 0;
    for (const ExperimentResults &er : all) {
        total_runs += er.runs.size();
        for (const RunResult &r : er.runs) {
            reused += r.fromCheckpoint ? 1 : 0;
            pending += r.skipped ? 1 : 0;
            ran += (!r.fromCheckpoint && !r.skipped) ? 1 : 0;
        }
    }
    if (total_runs == 0 && !opts.runFilter.empty()) {
        std::fprintf(stderr,
                     "sfx: --runs '%s' matched no run in any "
                     "selected experiment (try --list-runs)\n",
                     opts.runFilter.c_str());
        return 2;
    }
    std::printf("%zu experiment(s), %zu run(s) in %.1f ms%s\n",
                all.size(), total_runs, suite_ms,
                any_failed ? " — FAILURES above" : "");
    if (store && !opts.quiet) {
        const RunStore::Stats cs = store->stats();
        std::printf("checkpoint %s: %zu reused, %zu stored, %zu "
                    "stale, %zu quarantined\n",
                    store->dir().c_str(), reused, cs.writes,
                    cs.stale, cs.quarantined);
    }
    if (store && store->stats().writeErrors > 0)
        std::fprintf(stderr,
                     "sfx: warning: %zu checkpoint write(s) "
                     "failed; those runs will re-execute on "
                     "resume\n",
                     store->stats().writeErrors);
    if (!opts.quiet) {
        const auto cache = topos::topologyCache().stats();
        if (cache.hits + cache.misses > 0)
            std::printf("topology cache: %llu hits, %llu builds"
                        ", %llu evictions\n",
                        static_cast<unsigned long long>(
                            cache.hits),
                        static_cast<unsigned long long>(
                            cache.misses),
                        static_cast<unsigned long long>(
                            cache.evictions));
    }

    if (pending > 0) {
        // The simulated interrupt fired: the sweep is incomplete,
        // so no report may be written (it would not match an
        // uninterrupted run).
        std::string hint;
        if (store)
            hint = " — resume with `sfx resume " +
                   opts.checkpointDir + "`";
        std::fprintf(stderr,
                     "sfx: stopped after %zu executed run(s) "
                     "(--max-runs); %zu run(s) pending%s\n",
                     ran, pending, hint.c_str());
        return 3;
    }

    if (!opts.outPath.empty()) {
        ReportOptions ropts;
        ropts.effort = opts.effort;
        ropts.baseSeed = opts.baseSeed;
        ropts.jobs = opts.jobs;
        ropts.policy = opts.policy;
        ropts.includeTiming = opts.timing;
        try {
            writeFile(opts.outPath,
                      buildReport(all, ropts).dump(2) + "\n");
        } catch (const std::exception &e) {
            std::fprintf(stderr, "sfx: %s\n", e.what());
            return 1;
        }
        std::printf("report: %s\n", opts.outPath.c_str());
    }
    return any_failed ? 1 : 0;
}

/**
 * Load the sweep-defining fields (patterns, effort, base seed, run
 * filter) of a checkpoint's meta.json into @p opts — the single
 * source of truth for what a checkpointed invocation plans, shared
 * by `sfx resume` and `sfx checkpoint status` so the two can never
 * re-plan different grids. Throws on a non-checkpoint directory.
 */
void
optionsFromMeta(const std::string &dir, CliOptions &opts)
{
    const Json meta = RunStore::readInvocationMeta(dir);
    opts.patterns = {meta.at("patterns").asString()};
    opts.effort = parseEffort(meta.at("effort").asString());
    opts.baseSeed = meta.at("base_seed").asUint();
    opts.runFilter = meta.at("run_filter").asString();
    // Absent in checkpoints taken before the policy seam existed:
    // those sweeps all ran greedy, the default.
    if (const Json *p = meta.find("policy")) {
        if (!core::parseRoutingPolicy(p->asString(), opts.policy))
            throw std::runtime_error(
                "unknown policy in checkpoint meta.json: " +
                p->asString());
    }
    // Absent in checkpoints taken before the elastic family
    // existed: those sweeps planned every severity (the default).
    if (const Json *s = meta.find("reconfig_schedule")) {
        if (!s->asString().empty() &&
            !sim::isReconfigSeverity(s->asString()))
            throw std::runtime_error(
                "unknown reconfig_schedule in checkpoint "
                "meta.json: " +
                s->asString());
        opts.reconfigSchedule = s->asString();
    }
}

/**
 * `sfx resume DIR`: re-enter an interrupted `sfx run --checkpoint
 * DIR` invocation. What to run (patterns, effort, base seed, run
 * filter) comes from the checkpoint's meta.json so the resumed
 * sweep is exactly the interrupted one; only execution knobs
 * (--jobs, --out, --quiet, --timing, --max-runs) may be given.
 */
int
doResume(int argc, char **argv)
{
    if (argc >= 3 && (std::string_view(argv[2]) == "--help" ||
                      std::string_view(argv[2]) == "-h")) {
        printUsage(stdout);
        return 0;
    }
    if (argc < 3 || argv[2][0] == '-') {
        std::fprintf(
            stderr,
            "sfx: resume needs a checkpoint directory\n");
        return 2;
    }
    const std::string dir = argv[2];
    CliOptions opts;
    if (!parseRunOptions(argc, argv, 3, opts,
                         /*accept_patterns=*/false,
                         /*execution_knobs_only=*/true))
        return opts.helpShown ? 0 : 2;
    try {
        optionsFromMeta(dir, opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sfx: %s\n", e.what());
        return 2;
    }
    opts.checkpointDir = dir;
    return doRun(opts);
}

int
doRender(int argc, char **argv)
{
    std::string table;
    std::string path;
    for (int i = 2; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--table") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "sfx: --table needs a name\n");
                return 2;
            }
            table = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "sfx: unknown option: %s\n",
                         argv[i]);
            return 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            std::fprintf(stderr, "sfx: unexpected argument: %s\n",
                         argv[i]);
            return 2;
        }
    }
    if (path.empty() || table.empty()) {
        std::fprintf(stderr,
                     "sfx: usage: sfx render <report.json> "
                     "--table <name>\n");
        return 2;
    }
    try {
        const Json report = Json::parse(readFile(path));
        std::fputs(renderReportTable(report, table).c_str(),
                   stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sfx: %s\n", e.what());
        return 2;
    }
}

int
doDiff(int argc, char **argv)
{
    DiffOptions opts;
    bool json_out = false;
    bool bless = false;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--tolerance" || arg == "-t") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "sfx: --tolerance needs a value\n");
                return 2;
            }
            char *end = nullptr;
            opts.tolerance = std::strtod(argv[++i], &end);
            // isfinite also rejects NaN, which would otherwise
            // disable the gate (every comparison false).
            if (end == argv[i] || *end != '\0' ||
                !std::isfinite(opts.tolerance) ||
                opts.tolerance < 0.0) {
                std::fprintf(stderr,
                             "sfx: --tolerance needs a "
                             "non-negative number, got '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (arg == "--json") {
            json_out = true;
        } else if (arg == "--bless") {
            bless = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "sfx: unknown option: %s\n",
                         argv[i]);
            return 2;
        } else {
            paths.emplace_back(arg);
        }
    }
    if (paths.size() != 2) {
        std::fprintf(stderr,
                     "sfx: diff needs exactly two report files\n");
        return 2;
    }
    try {
        const std::string base_text = readFile(paths[0]);
        const std::string current_text = readFile(paths[1]);
        const Json base = Json::parse(base_text);
        const Json current = Json::parse(current_text);
        const ReportDiff diff = diffReports(base, current, opts);
        if (json_out) {
            std::fputs((diffToJson(diff).dump(2) + "\n").c_str(),
                       stdout);
        } else {
            std::fputs(renderDiff(diff).c_str(), stdout);
            std::printf("%zu metric(s) compared, %zu changed, %zu "
                        "regression(s), %zu structural issue(s)\n",
                        diff.compared, diff.changed.size(),
                        diff.regressions, diff.structural.size());
        }
        if (bless) {
            // Byte-exact copy, not a re-dump: the blessed baseline
            // must be the candidate file verbatim.
            if (base_text != current_text)
                writeFile(paths[0], current_text);
            if (!json_out)
                std::printf("blessed: %s\n", paths[0].c_str());
            return 0;
        }
        return diff.clean() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sfx: %s\n", e.what());
        return 2;
    }
}

/**
 * Shared walk behind `sfx checkpoint status` and `sfx checkpoint
 * gc`: re-plan every experiment the checkpoint's meta.json selects
 * and classify each planned run's on-disk entry. Key construction
 * mirrors the scheduler's store lookup (scheduler.cpp) — same
 * plannedRuns, same specHash over the same grid, same deriveSeed
 * inputs — and lives in exactly one place, so status, gc, and the
 * scheduler can never disagree about which entry file a planned
 * run maps to. @p on_spec fires once per selected experiment (in
 * the same order `sfx run` would sweep them), then @p on_entry
 * once per planned run with the classification and entry path.
 */
void
forEachPlannedEntry(
    const RunStore &store,
    const std::vector<const ExperimentSpec *> &specs,
    const CliOptions &opts,
    const std::function<void(const ExperimentSpec &)> &on_spec,
    const std::function<void(RunStore::EntryState,
                             const std::string &)> &on_entry)
{
    PlanContext plan_ctx;
    plan_ctx.effort = opts.effort;
    plan_ctx.baseSeed = opts.baseSeed;
    plan_ctx.reconfigSchedule = opts.reconfigSchedule;
    for (const ExperimentSpec *spec : specs) {
        const auto runs =
            plannedRuns(*spec, plan_ctx, opts.runFilter);
        if (runs.empty() && !opts.runFilter.empty())
            continue;  // as `sfx run` skips filtered-out specs
        on_spec(*spec);
        const std::string hash =
            specHash(*spec, runs, opts.effort, opts.baseSeed);
        for (const RunSpec &run : runs) {
            const RunStore::Key key{
                spec->name, run.id,
                deriveSeed(spec->name, run.id, opts.baseSeed),
                hash};
            on_entry(store.inspect(key),
                     store.entryPath(spec->name, run.id));
        }
    }
}

/**
 * `sfx checkpoint status DIR`: classify every run the checkpointed
 * invocation plans against the entries on disk — completed (valid
 * under the current spec hash), stale (outdated key, will re-run),
 * corrupt (checksum/parse failure, will re-run), pending (no usable
 * entry) — plus the quarantine backlog and the journal event tally.
 * Read-only: inspecting never quarantines or journals, so a status
 * check can never change what a later `sfx resume` observes.
 */
int
doCheckpointStatus(const std::string &dir, bool json_out)
{
    namespace fs = std::filesystem;
    CliOptions opts;
    try {
        optionsFromMeta(dir, opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sfx: %s\n", e.what());
        return 2;
    }
    const auto specs = registry().match(opts.patterns[0]);
    if (specs.empty()) {
        std::fprintf(stderr,
                     "sfx: checkpoint %s plans '%s', which matches "
                     "no registered experiment\n",
                     dir.c_str(), opts.patterns[0].c_str());
        return 2;
    }
    RunStore store(dir);

    struct Row {
        std::string name;
        std::size_t planned = 0;
        std::size_t completed = 0;
        std::size_t stale = 0;
        std::size_t corrupt = 0;

        std::size_t
        pending() const
        {
            return planned - completed;
        }
    };
    std::vector<Row> rows;
    Row total{"total"};
    forEachPlannedEntry(
        store, specs, opts,
        [&](const ExperimentSpec &spec) {
            rows.push_back(Row{spec.name});
        },
        [&](RunStore::EntryState state, const std::string &) {
            Row &row = rows.back();
            ++row.planned;
            ++total.planned;
            switch (state) {
            case RunStore::EntryState::Valid:
                ++row.completed;
                ++total.completed;
                break;
            case RunStore::EntryState::Stale:
                ++row.stale;
                ++total.stale;
                break;
            case RunStore::EntryState::Corrupt:
                ++row.corrupt;
                ++total.corrupt;
                break;
            case RunStore::EntryState::Missing:
                break;
            }
        });

    std::size_t quarantined = 0;
    std::error_code ec;
    for (fs::directory_iterator it(fs::path(dir) / "quarantine",
                                   ec),
         end;
         !ec && it != end; it.increment(ec))
        ++quarantined;

    // Journal event tally (diagnostic; tolerate a missing or
    // truncated journal).
    std::size_t journal_events = 0;
    Json journal_counts = Json::object();
    try {
        const auto lines = Json::parseLines(
            readFile((fs::path(dir) / "journal.jsonl").string()),
            /*dropTruncatedTail=*/true);
        for (const Json &line : lines) {
            ++journal_events;
            const Json *event = line.find("event");
            if (!event || !event->isString())
                continue;
            const std::string &name = event->asString();
            const Json *have = journal_counts.find(name);
            journal_counts.set(
                name, (have ? have->asUint() : 0) + 1);
        }
    } catch (const std::exception &) {
    }

    if (json_out) {
        Json doc = Json::object();
        doc.set("schema", "sf-exp-checkpoint-status-v1");
        doc.set("dir", dir);
        Json experiments = Json::array();
        const auto row_json = [](const Row &row) {
            Json r = Json::object();
            r.set("experiment", row.name);
            r.set("planned", row.planned);
            r.set("completed", row.completed);
            r.set("pending", row.pending());
            r.set("stale", row.stale);
            r.set("corrupt", row.corrupt);
            return r;
        };
        for (const Row &row : rows)
            experiments.push(row_json(row));
        doc.set("experiments", std::move(experiments));
        doc.set("total", row_json(total));
        doc.set("quarantined_files", quarantined);
        doc.set("journal_events", journal_events);
        doc.set("journal_event_counts", std::move(journal_counts));
        std::fputs((doc.dump(2) + "\n").c_str(), stdout);
    } else {
        std::size_t width = total.name.size();
        for (const Row &row : rows)
            width = std::max(width, row.name.size());
        std::printf("%-*s  %9s  %9s  %9s  %6s  %7s\n",
                    static_cast<int>(width), "experiment",
                    "planned", "completed", "pending", "stale",
                    "corrupt");
        const auto print_row = [&](const Row &row) {
            std::printf("%-*s  %9zu  %9zu  %9zu  %6zu  %7zu\n",
                        static_cast<int>(width), row.name.c_str(),
                        row.planned, row.completed, row.pending(),
                        row.stale, row.corrupt);
        };
        for (const Row &row : rows)
            print_row(row);
        print_row(total);
        std::printf("quarantine: %zu file(s); journal: %zu "
                    "event(s)\n",
                    quarantined, journal_events);
        if (total.pending() > 0)
            std::printf("resume with: sfx resume %s\n",
                        dir.c_str());
    }
    return total.pending() > 0 ? 3 : 0;
}

/**
 * `sfx checkpoint gc DIR`: reclaim everything a resume can no
 * longer use — stale entries (outdated spec hash; they would be
 * re-run and overwritten anyway), corrupt entries (they would be
 * quarantined and re-run), orphaned files under runs/ that no
 * planned run maps to (left behind by registry renames, removed
 * grid cells, or interrupted temp writes), and the quarantine
 * backlog — then prunes emptied directories. Valid entries are
 * never touched, so gc cannot change what a later `sfx resume`
 * computes; it only shrinks multi-day sweep directories.
 */
int
doCheckpointGc(const std::string &dir, bool json_out)
{
    namespace fs = std::filesystem;
    CliOptions opts;
    try {
        optionsFromMeta(dir, opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sfx: %s\n", e.what());
        return 2;
    }
    // A pattern matching no registered experiment usually means
    // the wrong (newer) binary, not true garbage — the planned-run
    // walk would then keep nothing and pass 2 would reap every
    // completed entry as an orphan. Refuse, exactly as status
    // does; a checkpoint that really is all garbage is `rm -r`
    // territory, not gc's.
    const auto specs = registry().match(opts.patterns[0]);
    if (specs.empty()) {
        std::fprintf(stderr,
                     "sfx: checkpoint %s plans '%s', which matches "
                     "no registered experiment; refusing to gc "
                     "(every entry would count as orphaned)\n",
                     dir.c_str(), opts.patterns[0].c_str());
        return 2;
    }
    RunStore store(dir);

    std::size_t stale = 0;
    std::size_t corrupt = 0;
    std::size_t orphaned = 0;
    std::size_t quarantined = 0;
    std::size_t kept = 0;
    std::size_t pruned_dirs = 0;
    std::size_t errors = 0;
    std::error_code ec;
    // Deletions count only when they actually happened: a
    // read-only or foreign-owned checkpoint must report failures
    // (and exit nonzero), not pretend the space was reclaimed.
    const auto reap = [&](const fs::path &p, std::size_t &n) {
        std::error_code rec;
        if (fs::remove(p, rec) && !rec)
            ++n;
        else
            ++errors;
    };
    // A directory that cannot be *iterated* (foreign owner, mode
    // 000) is a failure too — the sweep silently covered nothing —
    // but a directory that simply does not exist is the normal
    // shape of "nothing to do" (no quarantine/ yet, an experiment
    // dir without runs/).
    const auto iter_failed = [&](const std::error_code &it_ec) {
        if (it_ec &&
            it_ec != std::errc::no_such_file_or_directory)
            ++errors;
    };

    // Pass 1: classify every planned run's entry — via the same
    // walk status uses, so "valid" is precisely "resume would
    // reuse it". Every path this pass touched (kept, or a
    // deletion attempt regardless of outcome) is off-limits to
    // the orphan sweep: a stale entry whose removal failed must
    // not be re-attempted — and re-counted — as an orphan.
    std::vector<std::string> handled;
    forEachPlannedEntry(
        store, specs, opts, [](const ExperimentSpec &) {},
        [&](RunStore::EntryState state, const std::string &path) {
            switch (state) {
            case RunStore::EntryState::Valid:
                handled.push_back(path);
                ++kept;
                break;
            case RunStore::EntryState::Stale:
                handled.push_back(path);
                reap(path, stale);
                break;
            case RunStore::EntryState::Corrupt:
                handled.push_back(path);
                reap(path, corrupt);
                break;
            case RunStore::EntryState::Missing:
                break;
            }
        });
    std::sort(handled.begin(), handled.end());
    const auto pass1_handled = [&](const fs::path &p) {
        return std::binary_search(handled.begin(), handled.end(),
                                  p.string());
    };

    // Pass 2: orphan sweep — anything under an experiment's runs/
    // that pass 1 did not mark as a valid planned entry (renamed
    // experiments, removed grid cells, stray temp files).
    for (fs::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_directory() ||
            it->path().filename() == "quarantine")
            continue;
        const fs::path runs_dir = it->path() / "runs";
        std::error_code rec;
        for (fs::directory_iterator rit(runs_dir, rec), rend;
             !rec && rit != rend; rit.increment(rec)) {
            if (rit->is_regular_file() &&
                !pass1_handled(rit->path()))
                reap(rit->path(), orphaned);
        }
        iter_failed(rec);
        // Prune what emptied (remove() refuses non-empty dirs).
        if (fs::remove(runs_dir, rec))
            ++pruned_dirs;
        if (fs::remove(it->path(), rec))
            ++pruned_dirs;
    }
    iter_failed(ec);

    // Pass 3: the quarantine backlog is post-mortem evidence, and
    // gc is its explicit retention limit.
    const fs::path quarantine_dir = fs::path(dir) / "quarantine";
    for (fs::directory_iterator it(quarantine_dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file())
            reap(it->path(), quarantined);
    }
    iter_failed(ec);
    fs::remove(quarantine_dir, ec);  // only if emptied

    // One journal line so the event stream explains the shrink.
    try {
        Json line = Json::object();
        line.set("event", "gc");
        line.set("kept", kept);
        line.set("stale", stale);
        line.set("corrupt", corrupt);
        line.set("orphaned", orphaned);
        line.set("quarantined", quarantined);
        line.set("errors", errors);
        appendJsonLine(
            (fs::path(dir) / "journal.jsonl").string(), line);
    } catch (const std::exception &) {
    }

    if (json_out) {
        Json doc = Json::object();
        doc.set("schema", "sf-exp-checkpoint-gc-v1");
        doc.set("dir", dir);
        doc.set("kept", kept);
        doc.set("stale_deleted", stale);
        doc.set("corrupt_deleted", corrupt);
        doc.set("orphaned_deleted", orphaned);
        doc.set("quarantine_deleted", quarantined);
        doc.set("pruned_dirs", pruned_dirs);
        doc.set("errors", errors);
        std::fputs((doc.dump(2) + "\n").c_str(), stdout);
    } else {
        std::printf("gc %s: kept %zu, deleted %zu stale + %zu "
                    "corrupt + %zu orphaned + %zu quarantined, "
                    "pruned %zu dir(s)%s\n",
                    dir.c_str(), kept, stale, corrupt, orphaned,
                    quarantined, pruned_dirs,
                    errors ? " — DELETIONS FAILED" : "");
    }
    if (errors > 0) {
        std::fprintf(stderr,
                     "sfx: gc: %zu deletion(s) failed (permissions"
                     "?); the files are still on disk\n",
                     errors);
        return 1;
    }
    return 0;
}

} // namespace

int
sfxMain(int argc, char **argv)
{
    if (argc < 2) {
        printUsage(stderr);
        return 2;
    }
    const std::string_view command = argv[1];
    if (command == "list")
        return doList();
    if (command == "diff")
        return doDiff(argc, argv);
    if (command == "render")
        return doRender(argc, argv);
    if (command == "resume")
        return doResume(argc, argv);
    if (command == "checkpoint") {
        std::string sub;
        std::string dir;
        bool json_out = false;
        for (int i = 2; i < argc; ++i) {
            const std::string_view arg = argv[i];
            if (arg == "--json") {
                json_out = true;
            } else if (arg == "--help" || arg == "-h") {
                printUsage(stdout);
                return 0;
            } else if (sub.empty()) {
                if (arg != "status" && arg != "gc") {
                    std::fprintf(stderr,
                                 "sfx: unknown checkpoint "
                                 "subcommand: %s\n",
                                 argv[i]);
                    return 2;
                }
                sub = arg;
            } else if (dir.empty() && !arg.empty() &&
                       arg[0] != '-') {
                dir = arg;
            } else {
                std::fprintf(stderr,
                             "sfx: unexpected argument: %s\n",
                             argv[i]);
                return 2;
            }
        }
        if (sub.empty() || dir.empty()) {
            std::fprintf(stderr,
                         "sfx: usage: sfx checkpoint "
                         "status|gc <dir> [--json]\n");
            return 2;
        }
        return sub == "gc" ? doCheckpointGc(dir, json_out)
                           : doCheckpointStatus(dir, json_out);
    }
    if (command == "run") {
        CliOptions opts;
        if (!parseRunOptions(argc, argv, 2, opts, true))
            return opts.helpShown ? 0 : 2;
        if (opts.patterns.empty()) {
            std::fprintf(stderr,
                         "sfx: run needs at least one experiment "
                         "name or glob\n");
            return 2;
        }
        return doRun(opts);
    }
    if (command == "--help" || command == "-h") {
        printUsage(stdout);
        return 0;
    }
    std::fprintf(stderr, "sfx: unknown command: %s\n", argv[1]);
    printUsage(stderr);
    return 2;
}

int
benchMain(const std::string &patterns, int argc, char **argv)
{
    CliOptions opts;
    if (!parseRunOptions(argc, argv, 1, opts, false))
        return opts.helpShown ? 0 : 2;
    opts.patterns = {patterns};
    return doRun(opts);
}

} // namespace sf::exp
