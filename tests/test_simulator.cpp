/**
 * @file
 * Tests for the cycle-level network model and harness: delivery,
 * latency sanity, backpressure, saturation detection, deadlock
 * freedom under stress, and behaviour across all topology kinds.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/string_figure.hpp"
#include "sim/simulator.hpp"
#include "topos/factory.hpp"
#include "topos/mesh.hpp"

namespace {

using namespace sf;
using namespace sf::sim;

core::SFParams
sfParams(std::size_t n, int ports, std::uint64_t seed = 1)
{
    core::SFParams p;
    p.numNodes = n;
    p.routerPorts = ports;
    p.seed = seed;
    return p;
}

TEST(Network, SinglePacketDelivery)
{
    const topos::MeshTopology mesh(4, 4);
    SimConfig cfg;
    NetworkModel net(mesh, cfg);
    std::uint64_t delivered = 0;
    Cycle delivered_at = 0;
    net.setDeliverHandler([&](const Packet &p, Cycle at) {
        ++delivered;
        delivered_at = at;
        EXPECT_EQ(p.src, 0u);
        EXPECT_EQ(p.dst, 15u);
        EXPECT_EQ(p.hops, 6u);  // Manhattan distance on 4x4
    });
    net.inject(0, 15, SimConfig::kPacketFlits, kRequest, 0, 0,
               true);
    for (Cycle c = 0; c < 200 && delivered == 0; ++c)
        net.step(c);
    EXPECT_EQ(delivered, 1u);
    // 6 hops x (serialization tail + wire + serdes) + eject.
    EXPECT_GT(delivered_at, 12u);
    EXPECT_LT(delivered_at, 80u);
    EXPECT_EQ(net.inFlight(), 0u);
}

TEST(Network, LocalDeliveryBypassesNetwork)
{
    const topos::MeshTopology mesh(4, 4);
    SimConfig cfg;
    NetworkModel net(mesh, cfg);
    std::uint64_t delivered = 0;
    net.setDeliverHandler([&](const Packet &p, Cycle) {
        ++delivered;
        EXPECT_EQ(p.hops, 0u);
    });
    net.inject(3, 3, 5, kRequest, 0);
    net.step(0);
    net.step(1);
    EXPECT_EQ(delivered, 1u);
}

TEST(Network, BackpressureLimitsLinkThroughput)
{
    // Two nodes on a 2-wide mesh; flood one direction: throughput
    // is bounded by one flit per cycle on the single wire.
    const topos::MeshTopology mesh(2, 2);
    SimConfig cfg;
    NetworkModel net(mesh, cfg);
    for (int i = 0; i < 50; ++i)
        net.inject(0, 1, SimConfig::kPacketFlits, kRequest, 0);
    Cycle c = 0;
    for (; c < 5000 && net.inFlight() > 0; ++c)
        net.step(c);
    EXPECT_EQ(net.inFlight(), 0u);
    // 50 packets x 5 flits = 250 flit-cycles minimum on the wire.
    EXPECT_GE(c, 250u);
}

TEST(Network, QuiescenceDetection)
{
    const topos::MeshTopology mesh(4, 4);
    SimConfig cfg;
    NetworkModel net(mesh, cfg);
    EXPECT_TRUE(net.nodeQuiescent(5));
    net.inject(5, 10, 5, kRequest, 0);
    EXPECT_FALSE(net.nodeQuiescent(5));
    for (Cycle c = 0; c < 300; ++c)
        net.step(c);
    EXPECT_TRUE(net.nodeQuiescent(5));
    EXPECT_TRUE(net.nodeQuiescent(10));
}

TEST(Network, RequestsAndRepliesBothDeliver)
{
    core::StringFigure topo(sfParams(32, 4));
    SimConfig cfg;
    NetworkModel net(topo, cfg);
    std::uint64_t requests = 0;
    std::uint64_t replies = 0;
    net.setDeliverHandler([&](const Packet &p, Cycle at) {
        if (p.msgClass == kRequest) {
            ++requests;
            // Memory node answers with a reply packet.
            net.inject(p.dst, p.src, 5, kReply, at, p.payload);
        } else {
            ++replies;
        }
    });
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        const auto s = static_cast<NodeId>(rng.below(32));
        const auto t = static_cast<NodeId>(rng.below(32));
        if (s != t)
            net.inject(s, t, 1, kRequest, 0);
    }
    for (Cycle c = 0; c < 20000 && net.inFlight() > 0; ++c)
        net.step(c);
    EXPECT_EQ(net.inFlight(), 0u);
    EXPECT_EQ(requests, replies);
}

TEST(Harness, ZeroLoadLatencyTracksHopCount)
{
    core::StringFigure topo(sfParams(64, 8));
    SimConfig cfg;
    const double zero_load = zeroLoadLatency(topo, cfg);
    EXPECT_GT(zero_load, 5.0);
    EXPECT_LT(zero_load, 60.0);
}

TEST(Harness, LatencyRisesWithLoad)
{
    core::StringFigure topo(sfParams(64, 8));
    SimConfig cfg;
    RunPhases phases;
    phases.warmup = 500;
    phases.measure = 1500;
    phases.drainLimit = 10000;
    const auto light = runSynthetic(
        topo, TrafficPattern::UniformRandom, 0.01, cfg, phases);
    const auto medium = runSynthetic(
        topo, TrafficPattern::UniformRandom, 0.06, cfg, phases);
    const auto heavy = runSynthetic(
        topo, TrafficPattern::UniformRandom, 0.30, cfg, phases);
    EXPECT_FALSE(light.saturated);
    EXPECT_GT(light.measuredPackets, 100u);
    EXPECT_GE(medium.avgTotalLatency, light.avgTotalLatency);
    // Far beyond capacity the run either reports saturation outright
    // or shows clearly elevated latency.
    EXPECT_TRUE(heavy.saturated ||
                heavy.avgTotalLatency > 2 * light.avgTotalLatency);
}

TEST(Harness, HotspotSaturatesBeforeUniform)
{
    core::StringFigure topo(sfParams(64, 8));
    SimConfig cfg;
    RunPhases phases;
    phases.warmup = 500;
    phases.measure = 1500;
    phases.drainLimit = 8000;
    const double sat_uniform = findSaturationRate(
        topo, TrafficPattern::UniformRandom, cfg, phases, 0.15);
    const double sat_hotspot = findSaturationRate(
        topo, TrafficPattern::Hotspot, cfg, phases, 0.15);
    EXPECT_LT(sat_hotspot, sat_uniform);
}

TEST(Harness, AcceptedTracksOfferedWhenUnsaturated)
{
    core::StringFigure topo(sfParams(64, 8));
    SimConfig cfg;
    RunPhases phases;
    phases.warmup = 1000;
    phases.measure = 3000;
    const auto r = runSynthetic(
        topo, TrafficPattern::UniformRandom, 0.02, cfg, phases);
    ASSERT_FALSE(r.saturated);
    EXPECT_NEAR(r.acceptedLoad, r.offeredLoad,
                0.25 * r.offeredLoad);
}

TEST(Harness, SaturatedRunReportsSaturation)
{
    core::StringFigure topo(sfParams(32, 4));
    SimConfig cfg;
    RunPhases phases;
    phases.warmup = 400;
    phases.measure = 1200;
    phases.drainLimit = 6000;
    const auto r = runSynthetic(topo, TrafficPattern::Hotspot, 0.8,
                                cfg, phases);
    EXPECT_TRUE(r.saturated);
}

/** Stress every topology kind at high load: no deadlock watchdog. */
class SimStress : public ::testing::TestWithParam<topos::TopoKind>
{
};

TEST_P(SimStress, HighLoadRunsWithoutDeadlock)
{
    const auto kind = GetParam();
    const auto topo = topos::makeTopology(kind, 64, 3, 2);
    SimConfig cfg;
    cfg.seed = 11;
    RunPhases phases;
    phases.warmup = 500;
    phases.measure = 1500;
    phases.drainLimit = 6000;
    // Intentionally beyond saturation: the watchdog would throw on
    // a true deadlock; saturated backpressure is expected and fine.
    EXPECT_NO_THROW({
        runSynthetic(*topo, TrafficPattern::UniformRandom, 0.5, cfg,
                     phases);
        runSynthetic(*topo, TrafficPattern::Tornado, 0.5, cfg,
                     phases);
    });
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SimStress,
    ::testing::Values(topos::TopoKind::DM, topos::TopoKind::ODM,
                      topos::TopoKind::S2, topos::TopoKind::SF));

/**
 * Packet conservation: at every step boundary, every injected
 * packet is exactly one of delivered, dropped, or alive in exactly
 * one engine structure (source FIFO, VC buffer, arrival queue,
 * local-delivery queue). The audit walks every queue and the slab
 * pool independently of the stats counters, so double-frees, leaks
 * and lost FIFO links all surface as a mismatch.
 *
 * The run spans a full gate/ungate cycle under load, and after each
 * mid-traffic topology change the reconfiguration engine's own
 * structural audit (ReconfigEngine::checkInvariants) must also come
 * back clean — wire state, ring closures, and routing tables stay
 * consistent exactly when traffic is in flight. The audit also
 * recounts every link's reserved flits, which must equal the live
 * per-link total the congestion snapshot copies.
 */
void
checkConservationAtEveryStep(core::RoutingPolicyKind policy)
{
    core::StringFigure topo(sfParams(64, 8));
    SimConfig cfg;
    cfg.policy = policy;
    NetworkModel net(topo, cfg);
    std::uint64_t dropped = 0;
    net.setDropHandler(
        [&](const Packet &, Cycle) { ++dropped; });
    Rng rng(21);
    Cycle cycle = 0;
    NodeId victim = kInvalidNode;
    bool gated = false;
    const auto check = [&] {
        const auto acc = net.audit();
        // Structure walk == pool accounting == stats accounting.
        ASSERT_EQ(acc.total(), acc.liveSlots);
        ASSERT_EQ(acc.liveSlots, net.inFlight());
        ASSERT_EQ(net.stats().injectedPackets,
                  net.stats().deliveredPackets + dropped +
                      acc.liveSlots);
        ASSERT_EQ(acc.sourceQueued, net.sourceQueueBacklog());
        ASSERT_EQ(acc.reservedMismatches, 0u);
    };
    for (; cycle < 1500; ++cycle) {
        // Heavy mixed traffic, including src == dst loopbacks.
        for (int i = 0; i < 4; ++i) {
            const auto s = static_cast<NodeId>(rng.below(64));
            const auto t = static_cast<NodeId>(rng.below(64));
            if (topo.nodeAlive(s) && topo.nodeAlive(t))
                net.inject(s, t, 5, kRequest, cycle, 0,
                           (cycle & 1) != 0);
        }
        net.step(cycle);
        check();
        if (cycle == 700) {
            // Pick the victim and aim a burst at it while it is
            // still alive, so strays are guaranteed to be mid-
            // flight when the gate lands a few cycles later.
            for (NodeId u = 0; u < 64 && victim == kInvalidNode;
                 ++u) {
                if (topo.reconfig().canGate(u))
                    victim = u;
            }
            ASSERT_NE(victim, kInvalidNode);
            for (NodeId s = 0; s < 12; ++s) {
                if (s != victim)
                    net.inject(s, victim, 5, kRequest, cycle);
            }
        }
        if (cycle == 705 && !gated) {
            // Gate mid-run so in-flight strays get dropped;
            // conservation must hold through the drop path too.
            ASSERT_TRUE(topo.gate(victim).applied);
            net.onTopologyChanged();
            EXPECT_EQ(topo.reconfig().checkInvariants(), "");
            gated = true;
        }
        if (cycle == 1100) {
            // Bring the victim back mid-run: the ungate leg of the
            // same audit. The random traffic above resumes sending
            // to (and from) the former victim on its own once
            // nodeAlive(victim) is true again.
            ASSERT_TRUE(topo.ungate(victim).applied);
            net.onTopologyChanged();
            EXPECT_EQ(topo.reconfig().checkInvariants(), "");
            ASSERT_TRUE(topo.nodeAlive(victim));
            for (NodeId s = 0; s < 12; ++s) {
                if (s != victim)
                    net.inject(s, victim, 5, kRequest, cycle);
            }
        }
    }
    ASSERT_TRUE(gated);
    EXPECT_EQ(topo.reconfig().checkInvariants(), "");
    for (; net.inFlight() > 0 && cycle < 60000; ++cycle) {
        net.step(cycle);
        check();
    }
    EXPECT_EQ(net.inFlight(), 0u);
    EXPECT_GT(dropped, 0u);
    const auto final_acc = net.audit();
    EXPECT_EQ(final_acc.total(), 0u);
    EXPECT_EQ(final_acc.liveSlots, 0u);
    EXPECT_EQ(net.sourceQueueBacklog(), 0u);
}

/** Greedy routes lazily inside arbitration; UGAL routes every head
 *  at the barrier from the snapshot and rebuilds its distance table
 *  at each gate and ungate. */
TEST(Network, ConservationInvariantAtEveryStep)
{
    for (const core::RoutingPolicyKind policy :
         {core::RoutingPolicyKind::Greedy,
          core::RoutingPolicyKind::Ugal}) {
        SCOPED_TRACE(core::routingPolicyName(policy));
        checkConservationAtEveryStep(policy);
        if (HasFatalFailure())
            return;
    }
}

/** The knobs of the removed commit-wavefront scheduler, sharded
 *  route plane and memoized route plane must fail loudly, not
 *  silently fall back to the serial engine. */
TEST(Network, ConstructorRejectsWavefront)
{
    const topos::MeshTopology mesh(4, 4);
    SimConfig wavefront;
    wavefront.wavefront = 2;
    EXPECT_THROW(NetworkModel(mesh, wavefront), std::invalid_argument);
    SimConfig shards;
    shards.shards = 2;
    EXPECT_THROW(NetworkModel(mesh, shards), std::invalid_argument);
    SimConfig route_cache;
    route_cache.routeCache = true;
    EXPECT_THROW(NetworkModel(mesh, route_cache),
                 std::invalid_argument);
}

TEST(Reconfiguration, GatingDuringOperationDropsOnlyStrays)
{
    core::StringFigure topo(sfParams(64, 8));
    SimConfig cfg;
    NetworkModel net(topo, cfg);
    Rng rng(3);
    Cycle cycle = 0;
    std::uint64_t injected = 0;
    const auto pump = [&](int cycles) {
        for (int i = 0; i < cycles; ++i, ++cycle) {
            const auto s = static_cast<NodeId>(rng.below(64));
            const auto t = static_cast<NodeId>(rng.below(64));
            if (s != t && topo.nodeAlive(s) && topo.nodeAlive(t)) {
                net.inject(s, t, 5, kRequest, cycle);
                ++injected;
            }
            net.step(cycle);
        }
    };
    pump(500);
    // Gate a quiescent node mid-run, following the paper's blocking
    // protocol: wait until no traffic touches the victim.
    NodeId victim = kInvalidNode;
    for (NodeId u = 0; u < 64 && victim == kInvalidNode; ++u) {
        if (net.nodeQuiescent(u) && topo.reconfig().canGate(u))
            victim = u;
    }
    ASSERT_NE(victim, kInvalidNode);
    topo.gate(victim);
    net.onTopologyChanged();
    pump(500);
    for (; net.inFlight() > 0 && cycle < 50000; ++cycle)
        net.step(cycle);
    EXPECT_EQ(net.inFlight(), 0u);
    // Packets already heading to the victim are dropped and counted;
    // everything else delivers.
    EXPECT_EQ(net.stats().deliveredPackets +
                  net.stats().droppedUnroutable,
              injected);
}

} // namespace
