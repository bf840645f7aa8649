/**
 * @file
 * Cycle-level network model: virtual cut-through routers with
 * per-VC buffering, credit-limited forwarding, congestion-adaptive
 * output selection, escape channels, and a deadlock watchdog.
 *
 * Router microarchitecture (one per memory node):
 *  - one input unit per incoming link, holding V virtual channels of
 *    @c SimConfig::kVcDepth flits each;
 *  - a source queue (terminal/processor port) injecting at one flit
 *    per cycle;
 *  - one ejection port delivering at one flit per cycle;
 *  - per cycle, each input port forwards at most one packet and each
 *    output link accepts at most one packet (crossbar constraints),
 *    chosen round-robin for fairness;
 *  - virtual cut-through: a packet moves only when the downstream VC
 *    has room for all its flits; the link then serialises it at one
 *    flit per cycle, plus wire latency and SerDes delay.
 *
 * Virtual channel map per input port:
 *    [0, C)            normal VCs: msgClass x topology vcClass
 *    [C, C+4)          escape VCs: msgClass x dateline parity
 * where C = numVcClasses() * 2. Escape routing follows the
 * topology's scheme (up*-down* or dateline ring); packets switch to
 * escape after a head-of-line wait threshold and stay there, which
 * keeps the escape network's channel dependencies acyclic.
 *
 * Data plane: the hot path is allocation-free in steady state.
 * Packets live in a slab pool (packet_pool.hpp) and every queue —
 * source FIFOs, per-VC buffers, the arrival queue — holds 32-bit
 * slot indices chained intrusively through the pool. Routing writes
 * candidates straight into the packet record via the span-based
 * Topology::routeCandidates, so no per-hop vector exists.
 *
 * The arrival queue is a binary min-heap of 24-byte entries driven
 * by std::push_heap / std::pop_heap with the same at-only ordering
 * the original std::priority_queue<Arrival> used. That keeps the
 * pop order of same-cycle arrivals bit-for-bit identical to the
 * historical engine — the tie order is load-bearing, because it
 * decides the round-robin order of newly activated VCs and routers.
 * (A cycle-bucketed FIFO calendar ring was prototyped and measured:
 * it lands O(1) but reorders same-cycle ties, which changes
 * simulated events and breaks byte-identical reports, so it was
 * rejected. With pooled packets the heap sifts 24-byte PODs over a
 * bounded horizon of flits + wire latency + SerDes cycles, so the
 * sift cost is a few word moves, not ~100-byte Packet copies.)
 *
 * Topology generations: a reconfig (onTopologyChanged) advances an
 * epoch counter instead of disabling anything. Reconfig events
 * apply serially at a cycle barrier (between step() calls, before
 * injection), so routing stays a pure function of the topology
 * within an epoch. The one cross-epoch hazard is a route that
 * arbitration computed but never consumed: a head routed at the
 * barrier, or routed lazily and then blocked (no free link, no
 * downstream room), keeps its candidates, and carried across the
 * boundary they would be the *previous* epoch's route. The epoch
 * barrier therefore clears the routed flag on every queue head, so
 * routes never outlive their epoch.
 *
 * Routing-policy seam (cfg.policy + core/routing_policy.hpp): every
 * normal-VC route query goes through one RoutingPolicy::route()
 * call. The greedy policy delegates straight to the topology's own
 * routeCandidates, so routing through the seam is the incumbent
 * behaviour byte for byte. Adaptive policies additionally read a
 * CongestionSnapshot — per-link queued flits summed over VCs —
 * frozen exactly once per cycle in step(), after arrivals land and
 * before any route is computed. The sums are kept live as
 * linkReserved_, updated wherever a VC's flitsReserved changes, so
 * freezing is a copy of one word per link. Freezing the snapshot
 * there, and routing every cycle-start head against it at the same
 * barrier (precomputeRoutes), means an adaptive decision reads the
 * queue depths of the first cycle its packet waits at a queue head:
 * never a later cycle's, and never a state halfway through the
 * arbitration walk (see docs/routing_policies.md).
 *
 * Phase-pipeline cycle engine (docs/engine_phases.md): step() runs
 * four phases — Land → Snapshot → Route → Arbitrate. Arbitration is
 * one serial walk over activeNodes_ in its swap-removal order
 * (σ-order); each node applies its effects in place — drains,
 * downstream VC reservations, arrival-heap pushes, deliveries and
 * drops — before the next node runs. That walk defines the arrival
 * heap's push interleaving and the same-cycle neighbour
 * drain/reserve ordering: the engine's total event order.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/routing_policy.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"
#include "net/updown.hpp"
#include "sim/packet.hpp"
#include "sim/packet_pool.hpp"
#include "sim/sim_config.hpp"
#include "sim/stats.hpp"

namespace sf::sim {

/** The simulated network: all routers, links, and queues. */
class NetworkModel
{
  public:
    /** Called when a packet fully ejects at its destination. */
    using DeliverHandler =
        std::function<void(const Packet &, Cycle)>;

    /**
     * Called when a packet is dropped because its destination was
     * gated away mid-flight (reconfiguration); callers typically
     * reissue the operation to the address's new owner.
     */
    using DropHandler = std::function<void(const Packet &, Cycle)>;

    /** @throws std::invalid_argument when cfg.wavefront is nonzero,
     *  cfg.shards is not 1 or cfg.routeCache is true (the wavefront
     *  scheduler, the sharded route plane and the memoized route
     *  plane they selected no longer exist). */
    NetworkModel(const net::Topology &topo, const SimConfig &cfg);

    /**
     * Queue a packet at @p src's terminal port. Packets with
     * src == dst bypass the network and deliver next cycle.
     */
    void inject(NodeId src, NodeId dst, int flits, MsgClass mc,
                Cycle now, std::uint64_t payload = 0,
                bool measured = false);

    /** Advance the network by one cycle. */
    void step(Cycle now);

    /** Packets injected but not yet delivered or dropped. */
    std::uint64_t inFlight() const;

    /** Total packets waiting in source queues (saturation signal).
     *  O(1): maintained at inject/dequeue, never recounted. */
    std::uint64_t sourceQueueBacklog() const
    {
        return sourceBacklog_;
    }

    /** No buffered, queued, or in-flight traffic touches @p u. */
    bool nodeQuiescent(NodeId u) const;

    /** Statistics. */
    const NetStats &stats() const { return stats_; }

    void setDeliverHandler(DeliverHandler handler)
    {
        onDeliver_ = std::move(handler);
    }

    void setDropHandler(DropHandler handler)
    {
        onDrop_ = std::move(handler);
    }

    /**
     * Advance the topology generation after a reconfiguration:
     * escape tables rebuild lazily, and every queue-head route is
     * invalidated (routes must not outlive their epoch — see the
     * file header). Must be called at a cycle barrier (never
     * mid-step).
     */
    void onTopologyChanged();

    /** Current topology generation (onTopologyChanged calls). */
    std::uint64_t topologyEpoch() const
    {
        return stats_.topologyEpochs;
    }

    /** The configured topology. */
    const net::Topology &topology() const { return *topo_; }

    /**
     * Where every live packet currently sits — a full walk of the
     * engine's queues, for conservation-invariant tests. The sum of
     * the four locations must equal both liveSlots and inFlight()
     * at every step boundary.
     */
    struct Accounting {
        std::uint64_t sourceQueued = 0;  ///< terminal-port FIFOs
        std::uint64_t vcBuffered = 0;    ///< per-VC input buffers
        std::uint64_t onLinks = 0;       ///< arrival queue (in wire)
        std::uint64_t localPending = 0;  ///< src == dst loopbacks
        std::uint64_t liveSlots = 0;     ///< pool slots claimed
        /** Links whose live reserved-flit total differs from the
         *  sum of their VCs' flitsReserved; must always be 0. */
        std::uint64_t reservedMismatches = 0;

        std::uint64_t
        total() const
        {
            return sourceQueued + vcBuffered + onLinks +
                   localPending;
        }
    };

    /** Audit packet conservation and the per-link reserved-flit
     *  totals (walks every queue and VC; test-only). */
    Accounting audit() const;

  private:
    /** One virtual-channel input buffer (flat per link x VC). */
    struct VcState {
        PacketFifo fifo;
        int flitsReserved = 0;  ///< includes packets still in flight
        Cycle headSince = 0;
        LinkId link = kInvalidLink;    ///< owning input port
        std::uint16_t vcIndex = 0;     ///< VC within the port
        bool inActiveList = false;     ///< O(1) activeVcs_ member?
    };

    /** A packet in flight on a link (or a local loopback). */
    struct Arrival {
        Cycle at;
        std::uint32_t slot;       ///< pool index of the packet
        LinkId link;              ///< kInvalidLink for loopbacks
        std::int32_t vcIndex;

        /** Heap order: earliest arrival first — at only, exactly
         *  like the historical priority_queue (tie order matters). */
        bool operator>(const Arrival &o) const { return at > o.at; }
    };

    int totalVcs() const { return escapeBase_ + 4; }
    int normalVcIndex(const Packet &p) const
    {
        return p.msgClass * topo_->numVcClasses() + p.vcClass;
    }
    int escapeVcIndex(const Packet &p) const
    {
        return escapeBase_ + p.msgClass * 2 + p.escapeVcBit;
    }
    /** VC index the packet occupies downstream of link @p l. */
    int downstreamVcIndex(const Packet &p) const
    {
        return p.escape ? escapeVcIndex(p) : normalVcIndex(p);
    }

    /** Flat VcState index of (link, vc). */
    std::size_t
    vcStateIndex(LinkId link, int vc_index) const
    {
        return static_cast<std::size_t>(link) *
                   static_cast<std::size_t>(totalVcs()) +
               static_cast<std::size_t>(vc_index);
    }

    /** Change @p vc's flitsReserved by @p flits and its link's live
     *  total with it — the only writer of either, so the two cannot
     *  drift. */
    void
    adjustReserved(VcState &vc, int flits)
    {
        vc.flitsReserved += flits;
        linkReserved_[vc.link] += static_cast<std::uint32_t>(flits);
    }

    // Phase pipeline (see the file header / docs/engine_phases.md).
    void phaseLand(Cycle now);
    void phaseSnapshot();
    void phaseRoute(Cycle now);
    void phaseArbitrate(Cycle now);
    /** Arbitrate @p node's input VCs and source port, applying
     *  every effect in place at the node's σ-position. */
    void arbitrateNode(NodeId node, Cycle now);
    /**
     * Barrier routing for congestion-aware policies, between the
     * snapshot and arbitration: route every cycle-start head that
     * the arbitration walk would route through the policy fast
     * path, against this cycle's frozen snapshot. Heads on the
     * order-sensitive paths — escape escalation due, dead
     * destination, already routed — are left for the walk.
     */
    void precomputeRoutes(Cycle now);
    /**
     * Compute (or escalate) the route of head packet @p p at
     * @p node.
     *
     * @return False when the packet must be dropped (destination
     *         gated away and unreachable).
     */
    bool computeRoute(NodeId node, Packet &p, Cycle now);
    /** Freeze this cycle's CongestionSnapshot: copy the live
     *  per-link totals (linkReserved_). Called once per step(),
     *  before any route is computed; only when the policy reads
     *  it. */
    void fillCongestionSnapshot();
    /**
     * Move head packet @p p (pool slot @p slot) one hop, or eject
     * it, if its crossbar, link and downstream VC allow this cycle.
     *
     * @return True when the packet left this router.
     */
    bool tryForward(NodeId node, Packet &p, std::uint32_t slot,
                    Cycle now);
    void activateNode(NodeId node);
    void ensureEscapeTables() const;
    void recordDelivery(const Packet &p, Cycle delivered_at);
    void pushArrival(std::vector<Arrival> &heap, Arrival a);
    void popArrival(std::vector<Arrival> &heap);

    const net::Topology *topo_;
    SimConfig cfg_;
    int escapeBase_;

    PacketPool pool_;

    std::vector<Cycle> linkBusyUntil_;   ///< per link
    std::vector<Cycle> outputGrantAt_;   ///< per link
    std::vector<Cycle> inputGrantAt_;    ///< per link (as input port)
    /** VC buffers at each link's destination, flattened to one
     *  contiguous array: index link * totalVcs() + vc. */
    std::vector<VcState> vcs_;
    /** Per link: the sum of its VCs' flitsReserved, kept live by
     *  adjustReserved (the snapshot source and the quiescence
     *  test). */
    std::vector<std::uint32_t> linkReserved_;
    std::vector<PacketFifo> sourceQueue_;  ///< per node
    std::uint64_t sourceBacklog_ = 0;
    std::vector<Cycle> sourceBusyUntil_;
    std::vector<Cycle> ejectBusyUntil_;
    std::vector<std::uint32_t> pendingArrivals_;  ///< per node

    /** Flat VcState indices that may hold a head packet, per node. */
    std::vector<std::vector<std::uint32_t>> activeVcs_;
    std::vector<std::uint8_t> nodeActive_;
    std::vector<NodeId> activeNodes_;

    /** Min-heaps ordered by Arrival::operator> (see file header). */
    std::vector<Arrival> arrivals_;
    /** Local (src == dst) deliveries scheduled for the next cycle. */
    std::vector<Arrival> localDeliveries_;

    /** The routing-policy seam (never null; greedy by default). */
    std::unique_ptr<core::RoutingPolicy> policy_;
    /** Copy of linkReserved_ frozen at the cycle barrier; sized
     *  once (only for congestion-aware policies). Never aliases the
     *  live totals: a drop or deliver handler may inject during the
     *  walk, and routes must still read the barrier values. */
    std::vector<std::uint32_t> congestionFlits_;
    /** Read-only view over congestionFlits_ handed to route(). */
    core::CongestionSnapshot congestion_;

    mutable std::unique_ptr<net::UpDownRouting> updown_;
    DeliverHandler onDeliver_;
    DropHandler onDrop_;
    NetStats stats_;
    Rng rng_;
    std::uint64_t nextPacketId_ = 1;
    Cycle lastProgress_ = 0;
};

} // namespace sf::sim
