/**
 * @file
 * Core types of the experiment engine: effort levels, deterministic
 * per-run seeding, run specifications, and experiment specs.
 *
 * Every paper figure / table / ablation is a named ExperimentSpec
 * that expands, at a given effort level, into a flat list of
 * independent RunSpecs (one grid cell each: topology kind × traffic
 * pattern × network size × injection rate × ...). Runs share no
 * mutable state, so the scheduler may execute them on any thread in
 * any order; seeds derive from stable names, never from execution
 * order, which makes reports reproducible bit-for-bit at any job
 * count.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/routing_policy.hpp"
#include "exp/json.hpp"

namespace sf::sim {
class Executor;
}

namespace sf::exp {

/** Effort level of a whole invocation (old --quick/--full flags). */
enum class Effort { Quick, Default, Full };

/** "quick" / "default" / "full". */
std::string_view effortName(Effort effort);

/** Parse an effort name; throws std::invalid_argument otherwise. */
Effort parseEffort(std::string_view name);

/**
 * Base seed every experiment derives from by default; kept at the
 * seed the standalone harnesses always used so ported numbers stay
 * comparable.
 */
inline constexpr std::uint64_t kBaseSeed = 2019;

/**
 * Deterministic per-run seed: a 64-bit FNV-1a hash of
 * "<experiment>/<run id>" finalised with splitmix64 and mixed with
 * @p base. Depends only on stable names, never on scheduling.
 */
std::uint64_t deriveSeed(std::string_view experiment,
                         std::string_view run_id,
                         std::uint64_t base);

/** Everything a run body may depend on. */
struct RunContext {
    /** Per-run derived seed — use for traffic / sampling RNGs. */
    std::uint64_t seed = 0;
    /**
     * Invocation base seed — use for topology construction so
     * every run in a sweep evaluates the same generated network
     * (as the standalone harnesses did with their common seed).
     */
    std::uint64_t baseSeed = kBaseSeed;
    Effort effort = Effort::Default;
    /**
     * Removed hook: always null, and nothing in the library sets
     * or reads it (the nested work pool was deleted; a run body
     * runs on one thread). Kept only because the frozen benchmark
     * (perfbench/sfbench.cpp) passes it to sim::runSynthetic; to be
     * deleted by the next change that may edit perfbench/.
     */
    sim::Executor *executor = nullptr;
    /**
     * Removed knob: always 1, and nothing in the library sets or
     * reads it (the sharded route plane was deleted). Kept only
     * because the frozen benchmark (perfbench/sfbench.cpp) copies
     * it into sim::SimConfig::shards; to be deleted by the next
     * change that may edit perfbench/.
     */
    int shards = 1;
    /**
     * Removed knob: always false, and nothing in the library sets
     * or reads it (the memoized route plane was deleted). Kept only
     * because the frozen benchmark (perfbench/sfbench.cpp) copies
     * it into sim::SimConfig::routeCache; to be deleted by the next
     * change that may edit perfbench/.
     */
    bool routeCache = false;
    /**
     * Removed knob: always 0, and nothing in the library sets or
     * reads it (the commit-wavefront scheduler was deleted). Kept
     * only because the frozen benchmark (perfbench/sfbench.cpp)
     * copies it into sim::SimConfig::wavefront; to be deleted by
     * the next change that may edit perfbench/.
     */
    int wavefront = 0;
    /**
     * Routing policy (`sfx --policy`, sim::SimConfig::policy):
     * bodies that run the flit simulator should copy this into
     * their SimConfig — UNLESS the policy is part of their own run
     * grid (the routing_bakeoff family), in which case the cell
     * wins. This is NOT an execution knob: non-greedy policies
     * change simulated events, so the driver records it in
     * checkpoint metadata and reports, and refuses to override it
     * on resume.
     */
    core::RoutingPolicyKind policy =
        core::RoutingPolicyKind::Greedy;
};

/** One independent unit of work inside an experiment. */
struct RunSpec {
    /** Stable id, unique within the experiment ("n=64/SF/r=0.02"). */
    std::string id;
    /** The grid cell as a JSON object (named parameter values). */
    Json params = Json::object();
    /** Body: produces an ordered metrics object. Must be pure given
     *  the context (no shared mutable state). */
    std::function<Json(const RunContext &)> body;
};

/** Context handed to an experiment's planner. */
struct PlanContext {
    Effort effort = Effort::Default;
    std::uint64_t baseSeed = kBaseSeed;
    /**
     * Reconfig-schedule severity filter (`sfx --reconfig-schedule`):
     * empty plans every severity the elastic_serving family's
     * effort grid includes; a severity name restricts the grid to
     * it. Like the routing policy this is NOT an execution knob —
     * it changes which runs exist — so the driver records it in
     * checkpoint metadata and refuses to override it on resume.
     */
    std::string reconfigSchedule;
};

/** A named experiment: a planner producing a run grid. */
struct ExperimentSpec {
    /** Registry name ("fig10_saturation"); also the glob target. */
    std::string name;
    /** Paper artefact label ("Fig 10"). */
    std::string artefact;
    /** One-line description shown by `sfx list`. */
    std::string title;
    /**
     * False when metrics are wall-clock timings (microbenchmarks):
     * such reports cannot be byte-identical across machines or job
     * counts and are excluded from determinism checks.
     */
    bool deterministic = true;
    /** Expand the parameter grid at the given effort. */
    std::function<std::vector<RunSpec>(const PlanContext &)> plan;
};

} // namespace sf::exp
