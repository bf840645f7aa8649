#include "exp/scheduler.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "exp/run_store.hpp"

namespace sf::exp {

int
effectiveJobs(const SchedulerOptions &opts, std::size_t n)
{
    int jobs = opts.jobs;
    if (jobs <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs = hw ? static_cast<int>(hw) : 1;
    }
    if (static_cast<std::size_t>(jobs) > n)
        jobs = static_cast<int>(n ? n : 1);
    return jobs;
}

std::vector<RunResult>
runExperiment(const ExperimentSpec &exp,
              const std::vector<RunSpec> &runs,
              const SchedulerOptions &opts)
{
    std::vector<RunResult> results(runs.size());
    if (runs.empty())
        return results;

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> executed_local{0};
    std::atomic<std::size_t> *executed =
        opts.executedCount ? opts.executedCount : &executed_local;
    // Guards onRunDone and the first escaped exception.
    std::mutex mutex;
    std::exception_ptr error;

    const auto execute = [&](std::size_t i) {
        const RunSpec &run = runs[i];
        RunResult &result = results[i];
        result.id = run.id;
        result.params = run.params;
        RunContext ctx;
        ctx.seed = deriveSeed(exp.name, run.id, opts.baseSeed);
        ctx.baseSeed = opts.baseSeed;
        ctx.effort = opts.effort;
        ctx.policy = opts.policy;
        result.seed = ctx.seed;
        const auto progress = [&] {
            const std::size_t completed =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            if (opts.onRunDone) {
                const std::lock_guard<std::mutex> lock(mutex);
                opts.onRunDone(completed, runs.size(), result);
            }
        };
        const RunStore::Key key{exp.name, run.id, ctx.seed,
                                opts.specHash};
        if (opts.store && opts.store->load(key, result)) {
            result.fromCheckpoint = true;
            progress();
            return;
        }
        if (opts.maxExecuted &&
            executed->fetch_add(1, std::memory_order_relaxed) >=
                opts.maxExecuted) {
            result.skipped = true;
            progress();
            return;
        }
        const auto start = std::chrono::steady_clock::now();
        try {
            result.metrics = run.body(ctx);
        } catch (const std::exception &e) {
            result.failed = true;
            result.error = e.what();
        } catch (...) {
            result.failed = true;
            result.error = "unknown exception";
        }
        result.wallMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        if (opts.store && !result.failed)
            opts.store->store(key, result);
        progress();
    };

    // Every thread, the caller included, claims plan indices until
    // none are left. A body's exception only fails its run; one
    // that escapes a run (from onRunDone or the checkpoint store)
    // does not stop the sweep, and the first is rethrown once every
    // thread has joined.
    const auto claim = [&] {
        for (std::size_t i = next.fetch_add(1); i < runs.size();
             i = next.fetch_add(1)) {
            try {
                execute(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mutex);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    {
        const int jobs = effectiveJobs(opts, runs.size());
        std::vector<std::jthread> threads;
        try {
            for (int t = 1; t < jobs; ++t)
                threads.emplace_back(claim);
        } catch (...) {
            // A thread failed to start: the started ones finish the
            // runs they hold and join on the way out.
            next.store(runs.size(), std::memory_order_relaxed);
            throw;
        }
        claim();
    }
    if (error)
        std::rethrow_exception(error);
    return results;
}

} // namespace sf::exp
