#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <sstream>
#include <stdexcept>

namespace sf::sim {

namespace {

/** Comparator handed to the std heap algorithms: min-heap on at.
 *  Must stay at-only — the equal-key permutation the std heap
 *  produces is part of the engine's deterministic behaviour. */
const auto kLaterFirst = [](const auto &a, const auto &b) {
    return a > b;
};

std::uint64_t
elapsedNs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to -
                                                             from)
            .count());
}

} // namespace

NetworkModel::NetworkModel(const net::Topology &topo,
                           const SimConfig &cfg)
    : topo_(&topo), cfg_(cfg),
      escapeBase_(topo.numVcClasses() * kNumMsgClasses),
      rng_(cfg.seed)
{
    if (cfg.wavefront != 0)
        throw std::invalid_argument(
            "SimConfig::wavefront must be 0: the commit-wavefront "
            "scheduler was removed and arbitration is serial");
    if (cfg.shards != 1)
        throw std::invalid_argument(
            "SimConfig::shards must be 1: the sharded route plane "
            "was removed and routing is serial");
    if (cfg.routeCache)
        throw std::invalid_argument(
            "SimConfig::routeCache must be false: the memoized route "
            "plane was removed and every route is a policy call");
    const std::size_t n = topo.numNodes();
    const std::size_t links = topo.graph().numLinks();
    linkBusyUntil_.assign(links, 0);
    outputGrantAt_.assign(links, Cycle(-1));
    inputGrantAt_.assign(links, Cycle(-1));
    vcs_.resize(links * static_cast<std::size_t>(totalVcs()));
    linkReserved_.assign(links, 0);
    for (LinkId l = 0; l < static_cast<LinkId>(links); ++l) {
        for (int v = 0; v < totalVcs(); ++v) {
            VcState &vc = vcs_[vcStateIndex(l, v)];
            vc.link = l;
            vc.vcIndex = static_cast<std::uint16_t>(v);
        }
    }
    sourceQueue_.resize(n);
    sourceBusyUntil_.assign(n, 0);
    ejectBusyUntil_.assign(n, 0);
    pendingArrivals_.assign(n, 0);
    activeVcs_.resize(n);
    nodeActive_.assign(n, 0);
    policy_ = core::makeRoutingPolicy(cfg.policy, topo);
    if (policy_->congestionAware()) {
        // Sized once; re-filled (never resized) each cycle, so the
        // snapshot view stays valid for the model's lifetime.
        congestionFlits_.assign(links, 0);
        congestion_ = core::CongestionSnapshot(congestionFlits_);
    }
}

void
NetworkModel::pushArrival(std::vector<Arrival> &heap, Arrival a)
{
    heap.push_back(a);
    std::push_heap(heap.begin(), heap.end(), kLaterFirst);
}

void
NetworkModel::popArrival(std::vector<Arrival> &heap)
{
    std::pop_heap(heap.begin(), heap.end(), kLaterFirst);
    heap.pop_back();
}

void
NetworkModel::inject(NodeId src, NodeId dst, int flits, MsgClass mc,
                     Cycle now, std::uint64_t payload, bool measured)
{
    const std::uint32_t slot = pool_.alloc();
    Packet &p = pool_.at(slot);
    p.id = nextPacketId_++;
    p.src = src;
    p.dst = dst;
    p.flits = static_cast<std::uint16_t>(flits);
    p.msgClass = mc;
    p.vcClass = static_cast<std::uint8_t>(topo_->vcClass(src, dst));
    p.createdAt = now;
    p.measured = measured;
    p.payload = payload;
    ++stats_.injectedPackets;
    stats_.injectedFlits += static_cast<std::uint64_t>(flits);
    if (src == dst) {
        // Local access: the terminal port loops straight back.
        p.enteredNetworkAt = p.createdAt;
        pushArrival(localDeliveries_,
                    Arrival{now + 1, slot, kInvalidLink, 0});
        return;
    }
    sourceQueue_[src].push(pool_, slot);
    ++sourceBacklog_;
    activateNode(src);
}

std::uint64_t
NetworkModel::inFlight() const
{
    return stats_.injectedPackets - stats_.deliveredPackets -
           stats_.droppedUnroutable;
}

bool
NetworkModel::nodeQuiescent(NodeId u) const
{
    if (!sourceQueue_[u].empty() || pendingArrivals_[u] > 0)
        return false;
    for (LinkId id : topo_->graph().inLinks(u)) {
        if (linkReserved_[id] > 0)
            return false;
    }
    return true;
}

NetworkModel::Accounting
NetworkModel::audit() const
{
    Accounting acc;
    for (const PacketFifo &q : sourceQueue_)
        acc.sourceQueued += q.size;
    for (const VcState &vc : vcs_)
        acc.vcBuffered += vc.fifo.size;
    const std::size_t vcs = static_cast<std::size_t>(totalVcs());
    for (std::size_t l = 0; l < linkReserved_.size(); ++l) {
        std::uint32_t sum = 0;
        for (std::size_t v = 0; v < vcs; ++v)
            sum += static_cast<std::uint32_t>(
                vcs_[l * vcs + v].flitsReserved);
        if (sum != linkReserved_[l])
            ++acc.reservedMismatches;
    }
    acc.onLinks = arrivals_.size();
    acc.localPending = localDeliveries_.size();
    acc.liveSlots = pool_.liveCount();
    return acc;
}

void
NetworkModel::onTopologyChanged()
{
    updown_.reset();
    ++stats_.topologyEpochs;
    // Epoch barrier: a route is the topology's pure function only
    // while the topology is immutable, so no route may outlive its
    // epoch. A head can hold a route that arbitration never
    // consumed — routed at the barrier but skipped (input port
    // busy), or routed and then blocked (no free link, no room
    // downstream) — and carried across the boundary it would be the
    // old epoch's route. routed is only ever true on queue heads
    // (tryForward clears it on every hop, arrivals enqueue with it
    // false), so clearing the heads of every active VC and source
    // FIFO invalidates every such route; each is recomputed against
    // the new topology.
    for (const NodeId node : activeNodes_) {
        for (const std::uint32_t flat : activeVcs_[node]) {
            const VcState &vc = vcs_[flat];
            if (!vc.fifo.empty())
                pool_.at(vc.fifo.head).routed = false;
        }
        if (!sourceQueue_[node].empty())
            pool_.at(sourceQueue_[node].head).routed = false;
    }
    policy_->onTopologyChanged();
}

void
NetworkModel::fillCongestionSnapshot()
{
    // Each link's flitsReserved summed over its VCs: flits committed
    // to land in that link's input buffers — the engine's queue-depth
    // estimate, kept live by adjustReserved. Written only here,
    // before any route is computed this cycle.
    std::copy(linkReserved_.begin(), linkReserved_.end(),
              congestionFlits_.begin());
}

void
NetworkModel::precomputeRoutes(Cycle now)
{
    // Barrier routing: every cycle-start head routes against this
    // cycle's frozen snapshot, including a head that arbitration
    // then skips (input port busy); it keeps that route until it
    // moves. Routing such a head lazily would read a later cycle's
    // snapshot and so could decide differently. A greedy route does
    // not depend on the cycle it is computed in, which is why
    // greedy routes lazily instead (docs/routing_policies.md).
    for (const NodeId node : activeNodes_) {
        const auto consider = [&](std::uint32_t slot) {
            Packet &p = pool_.at(slot);
            // Only the policy fast path is routed here; the walk
            // owns every order-sensitive case: heads already routed,
            // escape routing, escalation due this cycle (its stats
            // counter can land inside the measurement window), the
            // gated-destination drop path, and ejection heads.
            if (p.routed || p.escape || p.dst == node ||
                !topo_->nodeAlive(p.dst))
                return;
            const std::size_t count = policy_->route(
                node, p.dst, p.hops == 0, congestion_, p.candidates);
            // count == 0 (a stall on a degraded topology): leave
            // the packet unrouted so the walk escalates it to the
            // escape path.
            if (count > 0) {
                p.numCandidates = static_cast<std::uint8_t>(count);
                p.routed = true;
            }
        };
        for (const std::uint32_t flat : activeVcs_[node]) {
            const VcState &vc = vcs_[flat];
            if (vc.fifo.empty())
                continue;
            if (!pool_.at(vc.fifo.head).escape &&
                now - vc.headSince > SimConfig::kEscapeThreshold)
                continue;  // the walk escalates before routing
            consider(vc.fifo.head);
        }
        const PacketFifo &source = sourceQueue_[node];
        if (!source.empty() && sourceBusyUntil_[node] <= now)
            consider(source.head);
    }
}

void
NetworkModel::ensureEscapeTables() const
{
    if (updown_)
        return;
    std::vector<bool> alive(topo_->numNodes());
    for (NodeId u = 0; u < topo_->numNodes(); ++u)
        alive[u] = topo_->nodeAlive(u);
    updown_ = std::make_unique<net::UpDownRouting>(topo_->graph(),
                                                   alive);
}

void
NetworkModel::activateNode(NodeId node)
{
    if (!nodeActive_[node]) {
        nodeActive_[node] = 1;
        activeNodes_.push_back(node);
    }
}

void
NetworkModel::step(Cycle now)
{
    // The four-phase pipeline (file header, docs/engine_phases.md):
    // Land → Snapshot → Route → Arbitrate. The phase boundaries are
    // exactly the barriers the interleaved loop already respected,
    // so the decomposition changes no simulated event;
    // cfg_.profilePhases adds steady-clock accounting per phase.
    if (cfg_.profilePhases) {
        using Clock = std::chrono::steady_clock;
        const Clock::time_point t0 = Clock::now();
        phaseLand(now);
        const Clock::time_point t1 = Clock::now();
        phaseSnapshot();
        const Clock::time_point t2 = Clock::now();
        phaseRoute(now);
        const Clock::time_point t3 = Clock::now();
        phaseArbitrate(now);
        const Clock::time_point t4 = Clock::now();
        stats_.phaseLandNs += elapsedNs(t0, t1);
        stats_.phaseSnapshotNs += elapsedNs(t1, t2);
        stats_.phaseRouteNs += elapsedNs(t2, t3);
        stats_.phaseArbitrateNs += elapsedNs(t3, t4);
        ++stats_.phaseProfiledCycles;
    } else {
        phaseLand(now);
        phaseSnapshot();
        phaseRoute(now);
        phaseArbitrate(now);
    }

    // Deadlock watchdog (after arbitration: lastProgress_ is final).
    if (inFlight() == 0) {
        lastProgress_ = now;
    } else if (now - lastProgress_ > SimConfig::kWatchdogCycles) {
        std::ostringstream os;
        os << "deadlock watchdog: no forward progress for "
           << SimConfig::kWatchdogCycles << " cycles on "
           << topo_->name()
           << " with " << inFlight() << " packets in flight";
        throw std::runtime_error(os.str());
    }
}

void
NetworkModel::phaseLand(Cycle now)
{
    // Land arrivals whose last flit reached the downstream
    // buffer (space was reserved at grant time).
    while (!arrivals_.empty() && arrivals_.front().at <= now) {
        const Arrival top = arrivals_.front();
        popArrival(arrivals_);
        const NodeId at_node = topo_->graph().link(top.link).dst;
        const std::size_t flat =
            vcStateIndex(top.link, top.vcIndex);
        VcState &vc = vcs_[flat];
        if (vc.fifo.empty())
            vc.headSince = now;
        vc.fifo.push(pool_, top.slot);
        --pendingArrivals_[at_node];
        if (!vc.inActiveList) {
            vc.inActiveList = true;
            activeVcs_[at_node].push_back(
                static_cast<std::uint32_t>(flat));
        }
        activateNode(at_node);
    }
    // Local loopback deliveries. The handler runs before the heap
    // pop (as the historical engine did): it may inject new local
    // packets, whose strictly later arrival cycles cannot displace
    // the entry being delivered from the heap front.
    while (!localDeliveries_.empty() &&
           localDeliveries_.front().at <= now) {
        const Arrival top = localDeliveries_.front();
        recordDelivery(pool_.at(top.slot), top.at);
        popArrival(localDeliveries_);
        pool_.release(top.slot);
    }
}

void
NetworkModel::phaseSnapshot()
{
    // Freeze this cycle's congestion snapshot (adaptive policies
    // only): after arrivals landed, before any route is computed,
    // so every route decision this cycle reads the same frozen
    // queue depths, however far the arbitration walk has got.
    if (policy_->congestionAware())
        fillCongestionSnapshot();
}

void
NetworkModel::phaseRoute(Cycle now)
{
    // Adaptive policies route every cycle-start head here, against
    // the snapshot just frozen (see precomputeRoutes). Greedy routes
    // lazily inside arbitration: its route is a pure function of
    // the topology, so when it is computed cannot change it
    // (docs/engine_phases.md).
    if (policy_->congestionAware())
        precomputeRoutes(now);
}

void
NetworkModel::phaseArbitrate(Cycle now)
{
    // The σ-order walk: activeNodes_ with swap-removal compaction.
    // Its order is part of the total event order (file header).
    for (std::size_t i = 0; i < activeNodes_.size();) {
        const NodeId node = activeNodes_[i];
        arbitrateNode(node, now);
        if (activeVcs_[node].empty() && sourceQueue_[node].empty()) {
            nodeActive_[node] = 0;
            activeNodes_[i] = activeNodes_.back();
            activeNodes_.pop_back();
        } else {
            ++i;
        }
    }
}

void
NetworkModel::arbitrateNode(NodeId node, Cycle now)
{
    auto &active = activeVcs_[node];
    // Round-robin start offset for fairness.
    const std::size_t start =
        active.empty() ? 0 : static_cast<std::size_t>(
            (now + node) % active.size());

    for (std::size_t k = 0; k < active.size();) {
        const std::size_t idx = (start + k) % active.size();
        VcState &vc = vcs_[active[idx]];
        if (vc.fifo.empty()) {
            // Lazy deactivation (swap-remove preserves round-robin
            // closely enough).
            vc.inActiveList = false;
            active[idx] = active.back();
            active.pop_back();
            continue;
        }
        const LinkId link = vc.link;
        // One crossbar pass per input port per cycle.
        if (inputGrantAt_[link] == now) {
            ++k;
            continue;
        }
        const std::uint32_t slot = vc.fifo.head;
        Packet &p = pool_.at(slot);
        // Escalate to the escape VC after a long head-of-line wait.
        if (!p.escape &&
            now - vc.headSince > SimConfig::kEscapeThreshold) {
            p.escape = true;
            p.escapeUpPhase = true;
            p.routed = false;
            ++stats_.escapeTransfers;
        }
        if (!p.routed && !computeRoute(node, p, now)) {
            // Destination unreachable (gated): drop the packet.
            adjustReserved(vc, -p.flits);
            vc.fifo.pop(pool_);
            vc.headSince = now;
            ++stats_.droppedUnroutable;
            lastProgress_ = now;
            if (onDrop_)
                onDrop_(p, now);
            pool_.release(slot);
            continue;
        }
        if (tryForward(node, p, slot, now)) {
            const bool ejected = p.dst == node;
            inputGrantAt_[link] = now;
            adjustReserved(vc, -p.flits);
            vc.fifo.pop(pool_);
            vc.headSince = now;
            lastProgress_ = now;
            if (ejected)
                pool_.release(slot);
        }
        ++k;
    }

    // Terminal port: inject at most one packet per cycle, at one
    // flit per cycle serialisation.
    PacketFifo &source = sourceQueue_[node];
    if (!source.empty() && sourceBusyUntil_[node] <= now) {
        const std::uint32_t slot = source.head;
        Packet &p = pool_.at(slot);
        if (!p.routed && !computeRoute(node, p, now)) {
            ++stats_.droppedUnroutable;
            source.pop(pool_);
            --sourceBacklog_;
            lastProgress_ = now;
            if (onDrop_)
                onDrop_(p, now);
            pool_.release(slot);
            return;
        }
        if (p.routed) {
            p.enteredNetworkAt = now;
            if (tryForward(node, p, slot, now)) {
                sourceBusyUntil_[node] = now + p.flits;
                source.pop(pool_);
                --sourceBacklog_;
                lastProgress_ = now;
                // Source packets never have dst == node (inject
                // short-circuits those), so the packet moved into
                // the arrival queue — the slot stays live.
            }
        }
    }
}

bool
NetworkModel::computeRoute(NodeId node, Packet &p, Cycle now)
{
    (void)now;
    p.numCandidates = 0;
    p.routed = false;
    if (!topo_->nodeAlive(p.dst))
        return false;
    if (p.dst == node) {
        // Candidates empty + routed means "eject here".
        p.routed = true;
        return true;
    }

    if (!p.escape) {
        // Zero-copy fast path: candidates land directly in the
        // packet record.
        const std::size_t count = policy_->route(
            node, p.dst, p.hops == 0, congestion_, p.candidates);
        if (count > 0) {
            p.numCandidates = static_cast<std::uint8_t>(count);
            p.routed = true;
            return true;
        }
        // Greedy stall (degraded topology): escalate immediately.
        p.escape = true;
        p.escapeUpPhase = true;
        ++stats_.escapeTransfers;
    }

    LinkId link = kInvalidLink;
    if (topo_->escapeScheme() == net::EscapeScheme::Ring) {
        link = topo_->ringEscapeLink(node);
    }
    if (link == kInvalidLink) {
        ensureEscapeTables();
        link = updown_->nextLink(node, p.dst, p.escapeUpPhase);
    }
    if (link == kInvalidLink)
        return false;  // genuinely unreachable
    p.candidates[0] = link;
    p.numCandidates = 1;
    p.routed = true;
    return true;
}

bool
NetworkModel::tryForward(NodeId node, Packet &p, std::uint32_t slot,
                         Cycle now)
{
    // Ejection at the destination.
    if (p.dst == node) {
        if (ejectBusyUntil_[node] > now)
            return false;
        ejectBusyUntil_[node] = now + p.flits;
        recordDelivery(p, now + p.flits);
        return true;  // caller releases the slot
    }

    // Collect currently grantable candidates. The downstream VC is
    // a function of the packet alone, so it is hoisted out of the
    // candidate scan.
    LinkId usable[Packet::kMaxCandidates];
    double occupancy[Packet::kMaxCandidates];
    int usable_count = 0;
    bool stale = false;
    const int want_vc = downstreamVcIndex(p);
    for (int i = 0; i < p.numCandidates; ++i) {
        const LinkId link = p.candidates[i];
        const net::Link &l = topo_->graph().link(link);
        if (!l.enabled) {
            stale = true;  // gated after this route was computed
            continue;
        }
        if (linkBusyUntil_[link] > now || outputGrantAt_[link] == now)
            continue;
        // Virtual cut-through: room for the entire packet downstream.
        const VcState &down = vcs_[vcStateIndex(link, want_vc)];
        if (down.flitsReserved + p.flits > SimConfig::kVcDepth)
            continue;
        usable[usable_count] = link;
        occupancy[usable_count] =
            static_cast<double>(down.flitsReserved) /
            static_cast<double>(SimConfig::kVcDepth);
        ++usable_count;
    }
    if (stale) {
        p.routed = false;
        if (usable_count == 0)
            return false;
    }
    if (usable_count == 0)
        return false;

    // Adaptive selection (paper: prefer the greediest choice unless
    // its port queue passed the threshold, then take the lightest).
    int pick = 0;
    if (cfg_.adaptive && usable_count > 1 &&
        occupancy[0] > SimConfig::kAdaptiveThreshold) {
        for (int i = 1; i < usable_count; ++i) {
            if (occupancy[i] < occupancy[pick])
                pick = i;
        }
    }
    const LinkId link = usable[pick];
    const net::Link &l = topo_->graph().link(link);

    // Commit the hop: the packet mutates in place and its slot
    // moves from the VC queue to the arrival queue — no copy.
    outputGrantAt_[link] = now;
    linkBusyUntil_[link] = now + p.flits;

    p.hops += 1;
    p.routed = false;
    if (p.escape) {
        ++stats_.escapeHops;
        if (topo_->escapeScheme() == net::EscapeScheme::Ring) {
            if (topo_->ringPosition(l.dst) <
                topo_->ringPosition(node))
                p.escapeVcBit = 1;  // crossed the dateline
        } else {
            ensureEscapeTables();
            if (!updown_->isUp(link))
                p.escapeUpPhase = false;
        }
    }
    stats_.flitHops += p.flits;
    if (p.measured) {
        ++stats_.measuredHops;
        stats_.measuredFlitHops += p.flits;
    }

    const int dvc = downstreamVcIndex(p);
    adjustReserved(vcs_[vcStateIndex(link, dvc)], p.flits);
    ++pendingArrivals_[l.dst];
    const Cycle arrival = now + p.flits - 1 + l.latency +
                          SimConfig::kSerdesCycles;
    pushArrival(arrivals_, Arrival{arrival, slot, link, dvc});
    return true;
}

void
NetworkModel::recordDelivery(const Packet &p, Cycle delivered_at)
{
    ++stats_.deliveredPackets;
    stats_.deliveredFlits += p.flits;
    if (p.measured) {
        ++stats_.measuredPackets;
        stats_.totalLatency.record(delivered_at - p.createdAt);
        stats_.totalLatencyLog.record(delivered_at - p.createdAt);
        stats_.networkLatencyLog.record(delivered_at -
                                        p.enteredNetworkAt);
    }
    if (onDeliver_)
        onDeliver_(p, delivered_at);
}

} // namespace sf::sim
