#include "sim/reconfig_schedule.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "core/reconfig.hpp"
#include "core/topology_builder.hpp"
#include "net/rng.hpp"

namespace sf::sim {

namespace {

/** Distinguishes schedule-victim draws from traffic streams. */
constexpr std::uint64_t kScheduleSalt = 0xe1a57c5c7ed01e5ULL;

/**
 * Random victim the feasibility courtesy accepts right now.
 *
 * @throws std::invalid_argument when no node can be gated (e.g.
 *         ShortcutsOnly repair at small scale).
 */
NodeId
pickGateable(const core::LiveRings &rings, Rng &rng,
             std::string_view severity)
{
    std::vector<NodeId> eligible;
    const auto n = static_cast<NodeId>(rings.aliveMask().size());
    eligible.reserve(n);
    for (NodeId u = 0; u < n; ++u) {
        if (rings.canGate(u))
            eligible.push_back(u);
    }
    if (eligible.empty()) {
        throw std::invalid_argument(
            "reconfig schedule '" + std::string(severity) +
            "': no node of the " + std::to_string(n) +
            "-node topology can be gated");
    }
    return eligible[rng.below(eligible.size())];
}

} // namespace

bool
isReconfigSeverity(std::string_view name)
{
    return std::find(kAllReconfigSeverities.begin(),
                     kAllReconfigSeverities.end(),
                     name) != kAllReconfigSeverities.end();
}

ReconfigSchedule
planReconfigSchedule(std::string_view severity,
                     const core::SFParams &params, Cycle warmup,
                     Cycle measure, std::uint64_t seed)
{
    const core::SFTopologyData data = core::buildTopologyData(params);
    core::LiveRings rings(data);
    Rng rng(seed ^ kScheduleSalt);
    ReconfigSchedule s;
    const auto at = [&](Cycle num, Cycle den) {
        return warmup + measure * num / den;
    };

    if (severity == "leave_join") {
        const NodeId victim = pickGateable(rings, rng, severity);
        s.events.push_back({at(1, 4), ReconfigAction::Leave, victim});
        s.events.push_back({at(5, 8), ReconfigAction::Join, victim});
    } else if (severity == "fail") {
        // Planned leave, then the victim canGate() is guaranteed to
        // refuse next: the gated node's static ring successor. Its
        // unplanned failure punches real holes.
        const NodeId planned = pickGateable(rings, rng, severity);
        const NodeId casualty = rings.next(0, planned);
        s.events.push_back({at(1, 5), ReconfigAction::Leave, planned});
        s.events.push_back({at(2, 5), ReconfigAction::Fail, casualty});
        s.events.push_back({at(3, 5), ReconfigAction::Join, casualty});
        s.events.push_back({at(4, 5), ReconfigAction::Join, planned});
    } else if (severity == "cascade") {
        // Halving cascade: gate down to ~50% live in two waves, then
        // restore in two. Victims come from the selection
        // StringFigure::reduceTo runs, here on the live rings alone,
        // so the same gate order is feasible at apply time (gate
        // feasibility depends only on liveness, never on traffic).
        const std::vector<NodeId> victims = core::gateInRandomOrder(
            rings, params.numNodes / 2, rng,
            [&](NodeId u) { rings.remove(u); });
        const std::size_t half = victims.size() / 2;
        for (std::size_t i = 0; i < victims.size(); ++i) {
            const Cycle when = i < half ? at(1, 8) : at(2, 8);
            s.events.push_back(
                {when, ReconfigAction::Leave, victims[i]});
        }
        // Rejoin in reverse gate order (ungate is always feasible;
        // reverse order restores the intermediate liveness states).
        for (std::size_t i = victims.size(); i > 0; --i) {
            const Cycle when = i > half ? at(4, 8) : at(5, 8);
            s.events.push_back(
                {when, ReconfigAction::Join, victims[i - 1]});
        }
    } else {
        throw std::invalid_argument(
            "unknown reconfig schedule severity: " +
            std::string(severity));
    }

    assert(std::is_sorted(s.events.begin(), s.events.end(),
                          [](const ReconfigEvent &a,
                             const ReconfigEvent &b) {
                              return a.at < b.at;
                          }));
    return s;
}

} // namespace sf::sim
