/**
 * @file
 * Minimal parallel-execution interface for nested simulator work.
 *
 * The saturation search wants to evaluate several candidate probe
 * rates concurrently, but the simulator layer must not depend on
 * the experiment engine that owns the worker threads. This tiny
 * interface inverts the dependency: the scheduler's work pool
 * implements it (exp::WorkPool), and findSaturationRate accepts an
 * optional Executor. Passing nothing (or serialExecutor()) keeps
 * every evaluation inline on the calling thread. One simulation
 * always runs on the thread that calls it; only whole probes fan
 * out.
 */

#pragma once

#include <functional>
#include <vector>

namespace sf::sim {

/** Runs batches of independent tasks, possibly in parallel. */
class Executor {
  public:
    virtual ~Executor() = default;

    /**
     * Workers likely available right now, including the calling
     * thread (>= 1). A sizing hint for speculative work: callers
     * should only fan out wider than 1 when idle capacity exists,
     * so speculation never displaces required work.
     */
    virtual int availableParallelism() const { return 1; }

    /**
     * Run every task to completion, in any order, possibly on
     * other threads; returns when all have finished. A task
     * exception propagates to the caller (first one wins) after
     * the batch has drained. Must be safe to call from inside a
     * task running on this executor (nested batches).
     */
    virtual void
    runAll(std::vector<std::function<void()>> &tasks) = 0;
};

/** The shared inline executor (runs every task on the caller). */
Executor &serialExecutor();

} // namespace sf::sim
