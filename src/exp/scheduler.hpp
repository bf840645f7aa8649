/**
 * @file
 * Scheduler fanning independent experiment runs out across cores.
 * Results land at their plan index regardless of completion order,
 * and per-run seeds derive from stable names, so any job count
 * produces the identical result vector.
 *
 * A run is the unit of parallelism: runExperiment starts up to
 * --jobs threads (never more than there are runs), and each claims
 * whole runs by plan index. A run body itself runs on one thread.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/spec.hpp"

namespace sf::exp {

class RunStore;

/** Outcome of one scheduled run. */
struct RunResult {
    std::string id;
    Json params = Json::object();
    /** Metrics the body returned (empty object when failed). */
    Json metrics = Json::object();
    std::uint64_t seed = 0;
    /** Wall-clock of the body, milliseconds (not in default reports). */
    double wallMs = 0.0;
    bool failed = false;
    std::string error;
    /** Served from the checkpoint store; body never executed.
     *  Scheduling detail only — reports look identical either way. */
    bool fromCheckpoint = false;
    /** Not executed: the maxExecuted cap (simulated interrupt) hit
     *  first. The sweep is incomplete and must not be reported. */
    bool skipped = false;
};

/** Scheduler knobs. */
struct SchedulerOptions {
    /** Worker threads; 0 means hardware concurrency. */
    int jobs = 0;
    /** Routing policy (RunContext::policy). Changes results for
     *  non-greedy values — a sweep parameter, not an execution
     *  knob like jobs. */
    core::RoutingPolicyKind policy =
        core::RoutingPolicyKind::Greedy;
    Effort effort = Effort::Default;
    std::uint64_t baseSeed = kBaseSeed;
    /**
     * Progress hook, called after each run completes with
     * (completed so far, total, finished run). Invoked under a lock;
     * keep it cheap. May be empty.
     */
    std::function<void(std::size_t, std::size_t, const RunResult &)>
        onRunDone;
    /**
     * Checkpoint store (may be null): runs it already holds under
     * (experiment, id, seed, specHash) load instead of executing,
     * and fresh successful results persist back immediately.
     */
    RunStore *store = nullptr;
    /** Plan hash of the experiment being run; see specHash(). */
    std::string specHash;
    /**
     * Execute at most this many run bodies (0 = unlimited).
     * Checkpoint loads don't count. Runs beyond the cap come back
     * with skipped = true — a deterministic stand-in for "the
     * process died mid-sweep" that `sfx run --max-runs` and the
     * crash-recovery tests use.
     */
    std::size_t maxExecuted = 0;
    /**
     * Shared executed-body counter for caps spanning several
     * runExperiment() calls (one sfx invocation sweeps many
     * experiments). Null means count per call.
     */
    std::atomic<std::size_t> *executedCount = nullptr;
};

/** Resolve the effective worker count for @p opts over @p n runs. */
int effectiveJobs(const SchedulerOptions &opts, std::size_t n);

/**
 * Execute every run of @p exp (already planned as @p runs) on
 * effectiveJobs() threads, the caller included, and return results
 * in plan order. A throwing body marks its run failed and never
 * tears down the sweep. An exception thrown by onRunDone or the
 * checkpoint store leaves the other runs to finish, and the first
 * one is rethrown after every thread has joined.
 */
std::vector<RunResult> runExperiment(const ExperimentSpec &exp,
                                     const std::vector<RunSpec> &runs,
                                     const SchedulerOptions &opts);

} // namespace sf::exp
