/**
 * @file
 * Elastic network reconfiguration (paper Section III-C).
 *
 * Gating a node follows the paper's four-phase atomic protocol:
 *  1. block the routing-table entries that refer to the victim,
 *  2. disable its wires and enable spare (shortcut/repair) wires
 *     that re-close each virtual-space ring across the hole,
 *  3. re-validate the affected routing-table entries,
 *  4. unblock.
 * Ungating runs the same steps in reverse. Wires are enabled or
 * disabled against the per-router port budget; a ring that cannot be
 * re-closed (no fabricated spare wire spans the hole, or no port is
 * free) is recorded as a *hole* — greedy routing then loses its
 * delivery guarantee for some pairs and the owning facade falls back
 * to a precomputed next-hop (counted, see StringFigure).
 *
 * Each operation costs only what it changes. Phase 1 blocks the
 * tables that can hold an entry for the victim: its enabled
 * in-neighbours and theirs. Phase 3 rebuilds exactly the tables
 * whose view changed. A table lists its node's enabled out-links and
 * those neighbours' enabled out-links, so it changes only at the
 * source of a link whose enabled bit flipped, or at an enabled
 * in-neighbour of such a source; every other table already equals a
 * fresh rebuild.
 *
 * Because spare wires span two or four static ring hops, a node can
 * be gated only if, in every space, the hole it creates or extends
 * spans a fabricated wire: sequential gating therefore refuses
 * victims statically adjacent to an already-gated node. Halving
 * patterns (gate every other node) are fully supported, and a second
 * halving rides the 4-hop wires, so a deployment can elastically run
 * at 100%, ~50%, or ~25% scale, or any sparser pattern in between —
 * exactly the shortcut-based down-scaling the paper motivates.
 */

#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/routing_table.hpp"
#include "core/topology_builder.hpp"
#include "net/rng.hpp"

namespace sf::core {

/** Outcome of one gate/ungate operation. */
struct ReconfigResult {
    bool applied = false;  ///< False if the victim state was a no-op.
    int closuresEnabled = 0;  ///< Spare wires switched on.
    int wiresDisabled = 0;
    int wiresEnabled = 0;
    int holes = 0;         ///< Rings left open by this operation.
    int tablesRebuilt = 0;
};

/**
 * Liveness and the live virtual-space rings: per node, alive or
 * gated, and per space the live clockwise successor and predecessor
 * of every live node. Gate feasibility reads only this state and
 * the static wire inventory, so victims can be chosen on a LiveRings
 * alone, with no wires, ports or tables (the schedule planner does).
 */
class LiveRings
{
  public:
    /** Every node of @p data live, on its static rings. */
    explicit LiveRings(const SFTopologyData &data);

    bool alive(NodeId u) const { return alive_[u]; }
    const std::vector<bool> &aliveMask() const { return alive_; }
    std::size_t numAlive() const { return numAlive_; }
    int numSpaces() const { return static_cast<int>(next_.size()); }

    /** Live clockwise successor of live node @p u in space @p s. */
    NodeId next(int s, NodeId u) const { return next_[s][u]; }

    /** Live clockwise predecessor of live node @p u in space @p s. */
    NodeId prev(int s, NodeId u) const { return prev_[s][u]; }

    /**
     * Cheap feasibility check: every ring hole that gating @p u
     * would create is spanned by a fabricated wire. Ports are not
     * checked; ReconfigEngine::gate() reports the authoritative
     * result.
     */
    bool canGate(NodeId u) const;

    /** Unlink live @p u from every ring and mark it gated. */
    void remove(NodeId u);

    /**
     * Mark gated @p u live and splice it into every ring after its
     * nearest live static predecessor.
     */
    void insert(NodeId u);

  private:
    const SFTopologyData *data_;
    std::vector<bool> alive_;
    std::size_t numAlive_ = 0;
    /** next_[space][node], valid only for live nodes. */
    std::vector<std::vector<NodeId>> next_;
    std::vector<std::vector<NodeId>> prev_;
};

/**
 * Victim selection shared by ReconfigEngine::gateRandom and the
 * schedule planner: visit every node in an @p rng-shuffled order and
 * gate each live one that @p rings.canGate accepts, until @p target
 * are gated or only 8 nodes remain. @p gate(u) must take u off
 * @p rings before the next node is considered.
 *
 * @return The victims, in gate order.
 */
template <typename Gate>
std::vector<NodeId>
gateInRandomOrder(const LiveRings &rings, std::size_t target,
                  Rng &rng, Gate &&gate)
{
    std::vector<NodeId> order(rings.aliveMask().size());
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);

    std::vector<NodeId> gated;
    for (NodeId u : order) {
        if (gated.size() >= target || rings.numAlive() <= 8)
            break;
        if (!rings.alive(u) || !rings.canGate(u))
            continue;
        gate(u);
        gated.push_back(u);
    }
    return gated;
}

/** Tracks liveness, live rings, and wire activation. */
class ReconfigEngine
{
  public:
    ReconfigEngine(SFTopologyData &data, RoutingTables &tables);

    /** Liveness of @p u. */
    bool alive(NodeId u) const { return rings_.alive(u); }

    /** Liveness mask over all nodes. */
    const std::vector<bool> &aliveMask() const
    {
        return rings_.aliveMask();
    }

    /** Number of live nodes. */
    std::size_t numAlive() const { return rings_.numAlive(); }

    /** LiveRings::canGate. */
    bool canGate(NodeId u) const { return rings_.canGate(u); }

    /** Power-gate @p u (dynamic reduction). */
    ReconfigResult gate(NodeId u);

    /** Bring @p u back (dynamic expansion). */
    ReconfigResult ungate(NodeId u);

    /**
     * Greedily gate up to @p target nodes chosen in random order,
     * refusing victims that would leave an unrepairable hole.
     *
     * @return The victims actually gated (may be fewer than target).
     */
    std::vector<NodeId> gateRandom(std::size_t target, Rng &rng);

    /** Number of live-ring adjacencies currently missing a wire. */
    int currentHoles() const;

    /** Live clockwise successor of live node @p u in space @p s. */
    NodeId liveNext(int s, NodeId u) const { return rings_.next(s, u); }

    /** Live clockwise predecessor of live node @p u in space @p s. */
    NodeId livePrev(int s, NodeId u) const { return rings_.prev(s, u); }

    /** Cumulative statistics. */
    struct Stats {
        std::uint64_t gateOps = 0;
        std::uint64_t ungateOps = 0;
        std::uint64_t closuresEnabled = 0;
        std::uint64_t tableRebuilds = 0;
        std::uint64_t entriesBlocked = 0;
        std::uint64_t holesCreated = 0;
        /**
         * Non-ring wires (pairing / throughput shortcuts) dropped by
         * the topology switch to free a port for a ring repair.
         */
        std::uint64_t portsStolen = 0;
    };
    const Stats &stats() const { return stats_; }

    /**
     * Debug/test helper: verify that the enabled wire set matches
     * the desired state derived from liveness, that port budgets are
     * respected, and that live ring lists are consistent.
     *
     * @return Empty string when consistent, else a description.
     */
    std::string checkInvariants() const;

  private:
    bool bidir() const;
    /** Desired activation of the wire carried by link @p id. */
    bool wireDesired(LinkId id) const;
    /** Any space where the live ring runs a -> b. */
    bool ringUse(NodeId a, NodeId b) const;
    void enableWire(LinkId id);
    void disableWire(LinkId id);
    bool wireEnabled(LinkId id) const;
    /**
     * Make a port available at @p x for a ring repair, dropping a
     * non-ring wire (pairing / throughput shortcut) if needed.
     *
     * @param dry_run Only report feasibility, change nothing.
     * @return True when a port is (or would be) available.
     */
    bool freePortAt(NodeId x, bool dry_run);
    /** All fabricated wires touching any node in @p nodes. */
    std::vector<LinkId>
    incidentWires(const std::vector<NodeId> &nodes) const;
    /** Phase 1: block @p u's entries in every table holding one. */
    void blockEntriesFor(NodeId u);
    /**
     * Phases 3 + 4: rebuild the tables of the sources of flipped_
     * and of their enabled in-neighbours, then clear flipped_.
     */
    void rebuildChangedTables(ReconfigResult &result);
    /** Re-evaluate candidate wires; disables first, then enables. */
    void settleWires(const std::vector<LinkId> &candidates,
                     ReconfigResult &result);

    SFTopologyData *data_;
    RoutingTables *tables_;
    LiveRings rings_;
    /** Links switched by the current operation (both directions). */
    std::vector<LinkId> flipped_;
    /** Scratch dedupe marks, all zero between operations. */
    std::vector<std::uint8_t> nodeMark_;
    std::vector<std::uint8_t> wireMark_;
    Stats stats_;
};

} // namespace sf::core
