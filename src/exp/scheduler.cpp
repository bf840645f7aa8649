#include "exp/scheduler.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "exp/run_store.hpp"
#include "exp/work_pool.hpp"

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

int
poolJobs(const SchedulerOptions &opts, std::size_t n)
{
    return effectiveJobs(opts, n * 8);
}

std::vector<RunResult>
runExperiment(const ExperimentSpec &exp,
              const std::vector<RunSpec> &runs,
              const SchedulerOptions &opts)
{
    std::vector<RunResult> results(runs.size());
    if (runs.empty())
        return results;

    // One pool serves the whole sweep: run bodies are its top-level
    // tasks, and a body's nested batches (saturation probes) ride
    // the same workers, so idle capacity at the sweep tail drains
    // the long-running stragglers instead of sitting out.
    WorkPool pool(poolJobs(opts, runs.size()));
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> executed_local{0};
    std::atomic<std::size_t> *executed =
        opts.executedCount ? opts.executedCount : &executed_local;
    std::mutex progress_mutex;

    std::vector<std::function<void()>> tasks;
    tasks.reserve(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        tasks.push_back([&, i] {
            const RunSpec &run = runs[i];
            RunResult &result = results[i];
            result.id = run.id;
            result.params = run.params;
            RunContext ctx;
            ctx.seed = deriveSeed(exp.name, run.id, opts.baseSeed);
            ctx.baseSeed = opts.baseSeed;
            ctx.effort = opts.effort;
            ctx.executor = &pool;
            ctx.policy = opts.policy;
            result.seed = ctx.seed;
            const auto progress = [&] {
                const std::size_t completed =
                    done.fetch_add(1, std::memory_order_relaxed) +
                    1;
                if (opts.onRunDone) {
                    const std::lock_guard<std::mutex> lock(
                        progress_mutex);
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
                executed->fetch_add(1,
                                    std::memory_order_relaxed) >=
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
            result.wallMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (opts.store && !result.failed)
                opts.store->store(key, result);
            progress();
        });
    }
    pool.runAll(tasks);
    return results;
}

} // namespace sf::exp
