/**
 * @file
 * Cycle-level network model: virtual cut-through routers with
 * per-VC buffering, credit-limited forwarding, congestion-adaptive
 * output selection, escape channels, and a deadlock watchdog.
 *
 * Router microarchitecture (one per memory node):
 *  - one input unit per incoming link, holding V virtual channels of
 *    @c vcDepth flits each;
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
 * Sharded route plane (cfg.shards > 1 + setRouteExecutor): the one
 * part of a cycle that is a pure function of immutable state — the
 * greedy route computation of every cycle-start head packet, ~3/4
 * of near-saturation runtime at n=1024 — is partitioned spatially:
 * nodes map to shards in contiguous blocks, each shard owns its
 * nodes' head packets, and the shards fill in Packet::candidates
 * concurrently on Executor threads between the arrival-landing and
 * arbitration phases (a cycle barrier: runAll returns before any
 * serial state advances). Everything whose *order* is load-bearing
 * stays on the serial arbitration walk, because the engine's total
 * event order is defined by it: the global arrival heap's push
 * interleaving (pop ties replay insertion structure), the
 * activeNodes_ walk with its swap-removal compaction (same-cycle
 * neighbour drain-then-reserve ordering), escape escalation (its
 * stats can land in a report mid-window), drops, deliveries, and
 * every RNG draw. Because a precomputed route is the same pure
 * function the serial loop would evaluate at its own point in the
 * cycle — the topology is immutable *within an epoch* and a head's
 * (node, dst, hops, escape) inputs cannot change before the loop
 * consumes or invalidates the cache — the sharded engine is
 * event-for-event identical to the serial one at every shard
 * count, and the partition never appears in results.
 *
 * Topology generations: a reconfig (onTopologyChanged) advances an
 * epoch counter instead of disabling anything. Reconfig events
 * apply serially at a cycle barrier (between step() calls, before
 * injection), so each epoch's route plane shards against an
 * immutable-within-epoch snapshot and routing stays a pure
 * per-epoch function. The one cross-epoch hazard is a precomputed
 * route the serial loop deferred: the sharded plane may mark a
 * head routed that arbitration skips this cycle (input port busy),
 * and a route carried across the boundary would be the *previous*
 * epoch's pure function. The epoch barrier therefore clears the
 * routed flag on every queue head — routes never outlive their
 * epoch, both engines recompute against the new topology, and
 * byte-identity across shard counts survives reconfiguration.
 *
 * Memoized route plane (cfg.routeCache + enableRouteCache): the
 * same purity argument lets the greedy route computation be cached
 * outright in per-topology next-hop tables (core/route_cache.hpp)
 * instead of re-derived per head-packet cycle — a cached value is
 * the identical pure function's output, so the event stream is
 * byte-identical with the cache on or off, at any shard count.
 * Rows are keyed by the `current` node: under sharding a shard
 * only looks up its own contiguous node block, and the serial loop
 * only touches the cache outside the route phase (the executor
 * barrier), so the lazy fills are single-writer per row and need
 * no atomics. The cache is a per-epoch object: onTopologyChanged
 * retires the current instance and immediately rebuilds a fresh
 * one against the new topology (counted in
 * NetStats::routeCacheRebuilds), so memoization stays engaged
 * across reconfig boundaries and every cached row belongs to
 * exactly one epoch.
 *
 * Routing-policy seam (cfg.policy + core/routing_policy.hpp): every
 * normal-VC route query goes through one RoutingPolicy::route()
 * call. The greedy policy delegates straight to the topology's own
 * routeCandidates, so routing through the seam is the incumbent
 * behaviour byte for byte. Adaptive policies additionally read a
 * CongestionSnapshot — per-link queued flits summed over VCs —
 * frozen exactly once per cycle in step(), after arrivals land and
 * before any route is computed (the same barrier the sharded route
 * plane fans out from). The sums are kept live as linkReserved_,
 * updated wherever a VC's flitsReserved changes, so freezing is a
 * copy of one word per link. Freezing the snapshot there keeps every
 * policy a pure per-cycle function: the serial loop, the sharded
 * route plane, and any shard count all read identical inputs, so
 * reports stay byte-identical across shards for every policy. The
 * route cache only engages for policies that are pure functions of
 * (node, dest, first_hop) — its exact key space; congestion-aware
 * decisions are uncacheable by construction and enableRouteCache
 * refuses them (see docs/routing_policies.md).
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

#include "core/route_cache.hpp"
#include "core/routing_policy.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"
#include "net/updown.hpp"
#include "sim/executor.hpp"
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

    /** @throws std::invalid_argument when cfg.wavefront is nonzero
     *  (the scheduler it selected no longer exists). */
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
    NetStats &stats() { return stats_; }

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
     * escape tables rebuild lazily, every queue-head route is
     * invalidated (precomputed routes must not outlive their
     * epoch — see the file header), and the memoized route plane
     * is retired and rebuilt against the new topology. The sharded
     * route plane stays enabled: each epoch shards against an
     * immutable-within-epoch snapshot. Must be called serially at
     * a cycle barrier (never mid-step).
     */
    void onTopologyChanged();

    /** Current topology generation (onTopologyChanged calls). */
    std::uint64_t topologyEpoch() const
    {
        return stats_.topologyEpochs;
    }

    /**
     * Enable the sharded route plane (see the file header): with
     * cfg.shards > 1, each step() fans the cycle-start head-packet
     * route computations out over @p executor in cfg.shards spatial
     * node partitions. Pass nullptr (or leave cfg.shards at 1) for
     * the exact serial engine. The executor must outlive the model.
     * Results are byte-identical either way and at any shard count.
     */
    void setRouteExecutor(Executor *executor);

    /**
     * Enable the memoized route plane (see the file header): greedy
     * route lookups go through a lazily-filled core::RouteCache
     * instead of the virtual topology call. No-op when
     * cfg.routeCache is off or the topology cannot be
     * index-encoded. Supported at any epoch, including after
     * reconfigurations: the cache memoizes the current epoch's
     * topology, and onTopologyChanged retires-and-rebuilds it at
     * each epoch boundary. Byte-identical results either way.
     */
    void enableRouteCache();

    /** Is the memoized route plane currently engaged? (tests) */
    bool routeCacheActive() const { return routeCache_ != nullptr; }

    /** The active routing policy (never null). */
    const core::RoutingPolicy &routingPolicy() const
    {
        return *policy_;
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

    /** One unit of route-plane work: the head packet in @p slot is
     *  parked at @p node and needs greedy candidates. */
    struct RouteJob {
        std::uint32_t slot;
        NodeId node;
    };

    // Phase pipeline (see the file header / docs/engine_phases.md).
    void phaseLand(Cycle now);
    void phaseSnapshot();
    void phaseRoute(Cycle now);
    void phaseArbitrate(Cycle now);
    /** Arbitrate @p node's input VCs and source port, applying
     *  every effect in place at the node's σ-position. */
    void arbitrateNode(NodeId node, Cycle now);
    /**
     * Sharded route plane, between arrival landing and arbitration:
     * collect every cycle-start head the serial loop would route
     * through the pure greedy fast path this cycle (or a later one)
     * and fill in its candidates concurrently, one spatial node
     * partition per shard. Heads on the order-sensitive paths —
     * escape escalation due, dead destination, already routed —
     * are left for the serial loop untouched.
     */
    void precomputeRoutes(Cycle now);
    /** Compute one shard's collected routes (runs on any thread;
     *  writes only to its own jobs' Packet records). */
    void routeShard(std::size_t shard);
    /**
     * Compute (or escalate) the route of head packet @p p at
     * @p node.
     *
     * @return False when the packet must be dropped (destination
     *         gated away and unreachable).
     */
    bool computeRoute(NodeId node, Packet &p, Cycle now);
    /**
     * The fast-path lookup both route planes share: fill @p p's
     * candidates for its next hop from @p node, through the route
     * cache when one is engaged, through the policy seam otherwise
     * (for greedy the two are the same pure function).
     *
     * @return Number of candidates written into p.candidates.
     */
    std::size_t routeCandidatesFor(NodeId node, Packet &p);
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

    // Sharded route plane (inert unless setRouteExecutor was
    // called with cfg_.shards > 1; see the file header).
    Executor *routeExecutor_ = nullptr;
    /** Per-shard job lists, cleared (capacity kept) every cycle. */
    std::vector<std::vector<RouteJob>> routeWork_;
    /** Reusable shard tasks, built once (steady state allocates
     *  nothing, matching the rest of the data plane). */
    std::vector<std::function<void()>> routeTasks_;

    /** Memoized route plane (null = direct virtual calls). */
    std::unique_ptr<core::RouteCache> routeCache_;
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
    std::uint64_t dropped_ = 0;
    Cycle lastProgress_ = 0;
};

} // namespace sf::sim
