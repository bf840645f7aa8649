/**
 * @file
 * Routing-policy implementations behind the seam declared in
 * routing_policy.hpp. The greedy policy is a zero-state delegate to
 * the topology's own routing (so routing "through the seam" is the
 * incumbent behaviour, byte for byte); the adaptive (UGAL-L-style)
 * and oracle policies share an all-pairs BFS distance table over
 * *enabled* links, rebuilt eagerly on reconfiguration at the
 * engine's cycle barrier. Every `route()` is const and touches only
 * immutable state + the frozen per-cycle snapshot, so its answer
 * depends on nothing else and it is safe on a topology that other
 * runs share across threads.
 */

#include "core/routing_policy.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "net/paths.hpp"

namespace sf::core {

namespace {

/** The incumbent: whatever the topology's native routing says
 *  (space-shuffle greedy on SF/S2, DOR on meshes, ...). A pure
 *  function of (node, dest, first_hop). */
class GreedyPolicy final : public RoutingPolicy
{
  public:
    explicit GreedyPolicy(const net::Topology &topo) : topo_(&topo)
    {
    }

    RoutingPolicyKind kind() const override
    {
        return RoutingPolicyKind::Greedy;
    }

    std::size_t route(NodeId current, NodeId dest, bool first_hop,
                      const CongestionSnapshot & /*congestion*/,
                      std::span<LinkId> out) const override
    {
        return topo_->routeCandidates(current, dest, first_hop,
                                      out);
    }

  private:
    const net::Topology *topo_;
};

/**
 * Shared base for table-driven policies: an all-pairs BFS distance
 * table over enabled links. Rebuilt eagerly in the constructor and
 * in onTopologyChanged() (at a cycle barrier, never mid-step), so
 * `dist()` is immutable within a topology epoch.
 */
class DistanceTablePolicy : public RoutingPolicy
{
  public:
    explicit DistanceTablePolicy(const net::Topology &topo)
        : topo_(&topo)
    {
        rebuild();
    }

    void onTopologyChanged() override { rebuild(); }

  protected:
    std::uint16_t dist(NodeId u, NodeId v) const
    {
        return dist_[static_cast<std::size_t>(u) * n_ + v];
    }

    const net::Topology &topo() const { return *topo_; }

  private:
    void rebuild()
    {
        n_ = topo_->numNodes();
        dist_ = net::distanceTable(topo_->graph());
    }

    const net::Topology *topo_;
    std::size_t n_ = 0;
    std::vector<std::uint16_t> dist_;
};

/** Static shortest-path next-hop tables: the upper bound. Emits
 *  every equal-cost shortest out-link (up to the engine's candidate
 *  cap) in deterministic out-link order. */
class TableOraclePolicy final : public DistanceTablePolicy
{
  public:
    using DistanceTablePolicy::DistanceTablePolicy;

    RoutingPolicyKind kind() const override
    {
        return RoutingPolicyKind::TableOracle;
    }

    std::size_t route(NodeId current, NodeId dest, bool first_hop,
                      const CongestionSnapshot & /*congestion*/,
                      std::span<LinkId> out) const override
    {
        const int base = dist(current, dest);
        if (base == 0 || base == net::kUnreachable ||
            out.empty())
            return 0;
        // Mirror the greedy contract: injection may fan out
        // equal-cost alternatives, later hops commit to one.
        const std::size_t cap =
            first_hop ? std::min(out.size(),
                                 std::size_t{
                                     net::kMaxRouteCandidates})
                      : std::size_t{1};
        const net::Graph &g = topo().graph();
        std::size_t count = 0;
        for (const LinkId id : g.outLinks(current)) {
            const net::Link &l = g.link(id);
            if (!l.enabled)
                continue;
            if (dist(l.dst, dest) + 1 != base)
                continue;
            out[count++] = id;
            if (count == cap)
                break;
        }
        return count;
    }
};

/**
 * UGAL-L-style adaptive routing, made deterministic. At injection
 * (first hop) the policy weighs the best *minimal* out-link m
 * against the best *non-minimal* detour d using the classic UGAL
 * product of local queue depth x estimated remaining hops, all
 * read from the frozen snapshot:
 *
 *     take d  iff  q(d) * (1 + dist(d.dst, dest))
 *                     <  q(m) * dist(current, dest)
 *
 * Zero congestion makes both sides 0, so the strict `<` falls back
 * to minimal — the classic UGAL tie-towards-minimal. After the
 * first hop the packet routes minimally on the distance table
 * (strictly decreasing distance per hop => loop-free and bounded,
 * even when hop 1 was a detour). Ties everywhere break to the
 * lowest-index out-link, so the decision is a pure deterministic
 * function of (topology, packet, snapshot) — exactly what barrier
 * routing requires.
 */
class UgalPolicy final : public DistanceTablePolicy
{
  public:
    using DistanceTablePolicy::DistanceTablePolicy;

    RoutingPolicyKind kind() const override
    {
        return RoutingPolicyKind::Ugal;
    }

    bool congestionAware() const override { return true; }

    std::size_t route(NodeId current, NodeId dest, bool first_hop,
                      const CongestionSnapshot &congestion,
                      std::span<LinkId> out) const override
    {
        const int base = dist(current, dest);
        if (base == 0 || base == net::kUnreachable ||
            out.empty())
            return 0;
        const net::Graph &g = topo().graph();
        LinkId minimal = kInvalidLink;
        std::uint64_t minimal_q = 0;
        LinkId detour = kInvalidLink;
        std::uint64_t detour_cost =
            std::numeric_limits<std::uint64_t>::max();
        std::uint64_t detour_hops = 0;
        for (const LinkId id : g.outLinks(current)) {
            const net::Link &l = g.link(id);
            if (!l.enabled)
                continue;
            const int d = dist(l.dst, dest);
            if (d == net::kUnreachable)
                continue;
            const std::uint64_t q = congestion.queuedFlits(id);
            if (d + 1 == base) {
                if (minimal == kInvalidLink || q < minimal_q) {
                    minimal = id;
                    minimal_q = q;
                }
            } else if (first_hop) {
                const std::uint64_t hops = 1ull +
                                           static_cast<std::uint64_t>(d);
                const std::uint64_t cost = q * hops;
                if (cost < detour_cost ||
                    (cost == detour_cost && hops < detour_hops)) {
                    detour = id;
                    detour_cost = cost;
                    detour_hops = hops;
                }
            }
        }
        if (minimal == kInvalidLink) {
            // Every minimal next hop is gated off. The detour (if
            // any) is still loop-free by the decreasing-distance
            // argument from *its* endpoint; otherwise report no
            // route and let the engine escalate to escape.
            if (detour == kInvalidLink)
                return 0;
            out[0] = detour;
            return 1;
        }
        if (first_hop && detour != kInvalidLink &&
            detour_cost <
                minimal_q * static_cast<std::uint64_t>(base)) {
            out[0] = detour;
            return 1;
        }
        out[0] = minimal;
        return 1;
    }
};

} // namespace

std::string
routingPolicyName(RoutingPolicyKind kind)
{
    switch (kind) {
    case RoutingPolicyKind::Greedy:
        return "greedy";
    case RoutingPolicyKind::Ugal:
        return "ugal";
    case RoutingPolicyKind::TableOracle:
        return "table_oracle";
    }
    return "greedy";
}

bool
parseRoutingPolicy(std::string_view name, RoutingPolicyKind &out)
{
    for (const RoutingPolicyKind kind : kAllRoutingPolicies) {
        if (name == routingPolicyName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

std::unique_ptr<RoutingPolicy>
makeRoutingPolicy(RoutingPolicyKind kind, const net::Topology &topo)
{
    switch (kind) {
    case RoutingPolicyKind::Ugal:
        return std::make_unique<UgalPolicy>(topo);
    case RoutingPolicyKind::TableOracle:
        return std::make_unique<TableOraclePolicy>(topo);
    case RoutingPolicyKind::Greedy:
    default:
        return std::make_unique<GreedyPolicy>(topo);
    }
}

} // namespace sf::core
