#pragma once
/**
 * @file
 * The routing-policy seam: every route decision the simulator makes
 * flows through one `RoutingPolicy::route()` call — a *pure*
 * function of (immutable topology, packet destination/first-hop
 * flag, per-cycle congestion snapshot). Purity is the load-bearing
 * property, not a style choice: the engine routes greedy heads
 * lazily inside arbitration and keeps a head's route until the head
 * moves or its topology epoch ends, which is exact only if an answer
 * depends on nothing but these inputs. A policy that read *live*
 * queue state would also observe mid-cycle arbitration effects, so
 * its decisions would depend on how far the arbitration walk had
 * got; instead, congestion-aware policies read a
 * `CongestionSnapshot` frozen once per cycle before any routing.
 *
 * Three policies ship behind the seam:
 *  - `greedy`       — the incumbent: delegates to the topology's own
 *                     `routeCandidates` (space-shuffle greedy on SF,
 *                     DOR on meshes, ...). Congestion-independent.
 *  - `ugal`         — UGAL-L-style adaptive routing: at injection,
 *                     compare the best minimal out-link against the
 *                     best Valiant-style non-minimal detour by
 *                     queue-depth x estimated-hop-count products
 *                     from the snapshot; after the first hop, route
 *                     minimally on a BFS distance table (strictly
 *                     decreasing distance, hence loop-free).
 *  - `table_oracle` — static all-pairs shortest-path next-hop
 *                     tables: the topology-independent upper bound
 *                     greedy routing is racing against.
 *
 * See docs/routing_policies.md.
 */

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "net/topology.hpp"

namespace sf::core {

/** Selectable routing policy (`sfx --policy`, SimConfig::policy). */
enum class RoutingPolicyKind : std::uint8_t {
    Greedy = 0,
    Ugal = 1,
    TableOracle = 2,
};

inline constexpr RoutingPolicyKind kAllRoutingPolicies[] = {
    RoutingPolicyKind::Greedy,
    RoutingPolicyKind::Ugal,
    RoutingPolicyKind::TableOracle,
};

/** CLI/report spelling: "greedy", "ugal", "table_oracle". */
std::string routingPolicyName(RoutingPolicyKind kind);

/** Parse a policy name; returns false on an unknown spelling. */
bool parseRoutingPolicy(std::string_view name,
                        RoutingPolicyKind &out);

/**
 * Read-only view of per-link queued flits, frozen once per cycle in
 * `NetworkModel::step()` *before* any route is computed that cycle
 * (the barrier at which congestion-aware policies route). The
 * value for a link is the sum of `flitsReserved` across all of its
 * virtual channels — flits committed to land in that link's input
 * buffers, the engine's natural queue-depth estimate.
 *
 * An empty snapshot (congestion-oblivious policy, or a route asked
 * for before the first cycle) reads as zero congestion everywhere,
 * which every policy must treat as "route minimally".
 */
class CongestionSnapshot
{
  public:
    CongestionSnapshot() = default;
    explicit CongestionSnapshot(
        std::span<const std::uint32_t> queued)
        : queued_(queued)
    {
    }

    /** Queued flits headed into `link`; 0 when no snapshot. */
    std::uint32_t queuedFlits(LinkId link) const
    {
        const auto i = static_cast<std::size_t>(link);
        return i < queued_.size() ? queued_[i] : 0u;
    }

    bool empty() const { return queued_.empty(); }

  private:
    std::span<const std::uint32_t> queued_{};
};

/**
 * A routing policy. `route()` must be a pure function of the
 * constructor topology, its arguments, and state rebuilt only by
 * `onTopologyChanged()`, and must not mutate anything: `--jobs`
 * runs share one cached topology across threads, whose const
 * routing a policy calls with no synchronisation.
 * Escape-channel routing, dead-destination handling and delivery
 * short-circuits stay in the engine; a policy only answers "which
 * enabled out-links may this normal-VC packet take next".
 */
class RoutingPolicy
{
  public:
    virtual ~RoutingPolicy() = default;

    virtual RoutingPolicyKind kind() const = 0;

    /**
     * Fill `out` (capacity >= 1) with candidate out-links from
     * `current` toward `dest`, best first; returns the count (0 =
     * no route, the engine escalates to the escape channel).
     * `first_hop` mirrors `Topology::routeCandidates`: injection
     * may fan out alternatives, later hops commit to one choice.
     */
    virtual std::size_t route(NodeId current, NodeId dest,
                              bool first_hop,
                              const CongestionSnapshot &congestion,
                              std::span<LinkId> out) const = 0;

    /** True when `route()` reads the snapshot: the engine only
     *  pays for the per-cycle snapshot fill if someone reads it. */
    virtual bool congestionAware() const { return false; }

    /**
     * Rebuild derived state (distance tables) after the topology
     * reconfigured. Called on the serial engine thread at a cycle
     * barrier, so an eager rebuild here is race-free; `route()`
     * itself must stay const.
     */
    virtual void onTopologyChanged() {}
};

/** Build a policy bound to `topo` (which must outlive it). */
std::unique_ptr<RoutingPolicy>
makeRoutingPolicy(RoutingPolicyKind kind, const net::Topology &topo);

} // namespace sf::core
