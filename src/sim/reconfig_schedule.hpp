/**
 * @file
 * Seeded, deterministic mid-run reconfiguration schedules: the
 * event stream that turns an open-loop serving run into an
 * *elastic* serving run (paper Section III-C under load).
 *
 * A schedule is a list of (cycle, action, node) events, sorted by
 * cycle. Events sharing a cycle form one *wave*: the simulator
 * applies the whole wave serially at that cycle's barrier (before
 * injection and before the network steps), then advances the
 * network model's topology generation exactly once — so routing
 * stays a pure per-epoch function and the event stream is
 * byte-identical at every job count.
 *
 * Actions:
 *  - Leave: planned down-scale. Applied through the feasibility
 *    courtesy (`canGate`); a refused victim is skipped and counted,
 *    never forced.
 *  - Fail: unplanned loss. Applied *without* the courtesy — the
 *    gate proceeds even where canGate would refuse, leaving ring
 *    holes and exercising the escalation and drop paths for
 *    in-flight packets whose destination vanished.
 *  - Join: up-scale (planned rejoin or repair completion).
 *
 * Schedules are pure functions of (severity, topology params,
 * phase lengths, seed): planning chooses victims on a private
 * core::LiveRings over the topology's wire inventory, never on the
 * instance being simulated, so planning is side-effect free and the
 * apply-time outcome of every Leave matches the plan exactly (gate
 * feasibility depends only on liveness, never on traffic).
 */

#pragma once

#include <array>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "net/types.hpp"

namespace sf::sim {

/** What a reconfiguration event does to its node. */
enum class ReconfigAction {
    Leave,  ///< planned gate, honours the canGate courtesy
    Join,   ///< ungate (rejoin)
    Fail,   ///< unplanned gate, no feasibility courtesy
};

/** One scheduled reconfiguration event. */
struct ReconfigEvent {
    Cycle at = 0;
    ReconfigAction action = ReconfigAction::Leave;
    NodeId node = kInvalidNode;
};

/** A planned event stream (events nondecreasing in `at`). */
struct ReconfigSchedule {
    std::vector<ReconfigEvent> events;

    bool empty() const { return events.empty(); }
};

/**
 * The named schedule severities the elastic_serving family sweeps
 * (and `sfx --reconfig-schedule` selects), mildest first:
 *  - "leave_join": one planned leave inside the measure window,
 *    one rejoin — the paper's elementary elastic cycle.
 *  - "fail": a planned leave followed by an *unplanned* failure of
 *    a statically adjacent node (exactly the victim canGate
 *    refuses), then staged rejoins — the degraded-mode story.
 *  - "cascade": a halving cascade — two waves gating down to ~50%
 *    live nodes, then two waves restoring — the paper's headline
 *    elasticity envelope, under load.
 */
inline constexpr std::array<std::string_view, 3>
    kAllReconfigSeverities{"leave_join", "fail", "cascade"};

/** Is @p name one of kAllReconfigSeverities? */
bool isReconfigSeverity(std::string_view name);

/**
 * Plan the @p severity schedule for a String Figure built from
 * @p params, with events placed inside the measure window
 * [@p warmup, @p warmup + @p measure). Victim selection draws from
 * @p seed on scratch live rings; the result is a pure function of
 * the arguments. Throws std::invalid_argument for an unknown
 * severity name, and for "leave_join" or "fail" when no node of the
 * topology can be gated.
 */
ReconfigSchedule planReconfigSchedule(std::string_view severity,
                                      const core::SFParams &params,
                                      Cycle warmup, Cycle measure,
                                      std::uint64_t seed);

} // namespace sf::sim
