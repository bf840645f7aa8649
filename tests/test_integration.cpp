/**
 * @file
 * Cross-module integration tests: topology -> placement -> simulator
 * -> energy pipelines behaving consistently end to end.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/string_figure.hpp"
#include "net/placement.hpp"
#include "sim/simulator.hpp"
#include "topos/factory.hpp"
#include "workloads/generators.hpp"
#include "workloads/replay.hpp"

namespace {

using namespace sf;

core::SFParams
sfParams(std::size_t n, int ports)
{
    core::SFParams p;
    p.numNodes = n;
    p.routerPorts = ports;
    p.seed = 5;
    return p;
}

TEST(Integration, ZeroLoadLatencyTracksRoutedHops)
{
    // latency ~= hops x (1 cycle switch + 1 serdes + wire) +
    // serialization; check the per-hop cost stays in a sane band
    // across topology kinds.
    for (const auto kind :
         {topos::TopoKind::DM, topos::TopoKind::S2,
          topos::TopoKind::SF}) {
        const auto topo = topos::makeTopology(kind, 64, 5, 1);
        sim::SimConfig cfg;
        cfg.seed = 5;
        sim::RunPhases phases;
        phases.warmup = 300;
        phases.measure = 1500;
        const auto r = sim::runSynthetic(
            *topo, sim::TrafficPattern::UniformRandom, 0.005, cfg,
            phases);
        ASSERT_GT(r.measuredPackets, 50u) << topos::kindName(kind);
        const double per_hop =
            (r.avgNetworkLatency - sim::SimConfig::kPacketFlits) /
            r.avgHops;
        EXPECT_GT(per_hop, 1.5) << topos::kindName(kind);
        EXPECT_LT(per_hop, 8.0) << topos::kindName(kind);
    }
}

TEST(Integration, PlacementLatencyRaisesMeasuredLatency)
{
    // Annotating links with grid wire lengths must raise total
    // link latency relative to unit-latency links.
    const auto placement = net::Placement::rowMajor(64);
    auto data = core::buildTopologyData(sfParams(64, 8));
    net::applyPlacementLatency(data.graph, placement);
    double annotated = 0.0;
    double unit = 0.0;
    for (LinkId id = 0;
         id < static_cast<LinkId>(data.graph.numLinks()); ++id) {
        if (!data.graph.link(id).enabled)
            continue;
        annotated += data.graph.link(id).latency;
        unit += 1.0;
    }
    EXPECT_GT(annotated, unit);
}

TEST(Integration, SnakePlacementShortensSfWires)
{
    // Ordering the grid by space-0 coordinates clusters ring
    // neighbours (the paper's MetaCube-style placement goal).
    const auto data = core::buildTopologyData(sfParams(256, 8));
    const auto naive = net::Placement::rowMajor(256);
    const auto clustered =
        net::Placement::snakeOrder(data.spaces.ring(0));
    EXPECT_LT(clustered.averageWireLength(data.graph) * 0.999,
              naive.averageWireLength(data.graph));
    EXPECT_GT(clustered.shortLinkFraction(data.graph, 10),
              naive.shortLinkFraction(data.graph, 10) * 0.999);
}

TEST(Integration, ReplayEnergyLedgerIsConsistent)
{
    core::StringFigure topo(sfParams(32, 8));
    const auto trace =
        wl::generateTrace(wl::Workload::SparkGrep, 3, 2000, 0);
    sim::SimConfig sim_cfg;
    sim_cfg.seed = 5;
    wl::ReplayConfig cfg;
    const auto r = wl::replayTrace(trace, topo, sim_cfg, cfg);
    ASSERT_TRUE(r.finished);
    // Ledger adds up.
    EXPECT_DOUBLE_EQ(r.totalPj,
                     r.networkPj + r.dramPj + r.backgroundPj);
    // DRAM energy is exactly ops x 64B x 12 pJ/bit.
    EXPECT_DOUBLE_EQ(r.dramPj, 2000.0 * 512 * 12.0);
    // Background energy is live-nodes x runtime x 10 pJ.
    EXPECT_DOUBLE_EQ(r.backgroundPj,
                     10.0 * 32 *
                         static_cast<double>(r.runtimeCycles));
}

TEST(Integration, FasterNetworkLowersReplayRuntime)
{
    const auto trace =
        wl::generateTrace(wl::Workload::Redis, 3, 3000, 0);
    sim::SimConfig sim_cfg;
    sim_cfg.seed = 5;
    wl::ReplayConfig cfg;

    const auto dm = topos::makeTopology(topos::TopoKind::DM, 256,
                                        5, 1);
    const auto sf_net = topos::makeTopology(topos::TopoKind::SF,
                                            256, 5);
    const auto r_dm = wl::replayTrace(trace, *dm, sim_cfg, cfg);
    const auto r_sf = wl::replayTrace(trace, *sf_net, sim_cfg, cfg);
    ASSERT_TRUE(r_dm.finished);
    ASSERT_TRUE(r_sf.finished);
    EXPECT_LT(r_sf.runtimeCycles, r_dm.runtimeCycles);
    EXPECT_GT(r_sf.ipc, r_dm.ipc);
}

TEST(Integration, GateUngateUnderTrafficEndToEnd)
{
    // Full elastic cycle under live traffic: shrink, verify
    // delivery, expand, verify the original wire set and delivery.
    core::StringFigure topo(sfParams(96, 8));
    sim::SimConfig cfg;
    cfg.seed = 5;
    sim::NetworkModel net(topo, cfg);
    Rng rng(5);
    Cycle cycle = 0;
    const auto pump = [&](int cycles) {
        for (int i = 0; i < cycles; ++i, ++cycle) {
            const auto s = static_cast<NodeId>(rng.below(96));
            const auto t = static_cast<NodeId>(rng.below(96));
            if (s != t && topo.nodeAlive(s) && topo.nodeAlive(t))
                net.inject(s, t, 5, sim::kRequest, cycle);
            net.step(cycle);
        }
    };
    std::vector<NodeId> gated;
    for (int round = 0; round < 12; ++round) {
        pump(120);
        for (NodeId u = 0; u < 96; ++u) {
            if (topo.nodeAlive(u) && topo.reconfig().canGate(u) &&
                net.nodeQuiescent(u)) {
                topo.gate(u);
                net.onTopologyChanged();
                gated.push_back(u);
                break;
            }
        }
    }
    EXPECT_GE(gated.size(), 8u);
    pump(300);
    for (auto it = gated.rbegin(); it != gated.rend(); ++it) {
        topo.ungate(*it);
        net.onTopologyChanged();
        pump(60);
    }
    for (; net.inFlight() > 0 && cycle < 100000; ++cycle)
        net.step(cycle);
    EXPECT_EQ(net.inFlight(), 0u);
    EXPECT_EQ(topo.reconfig().numAlive(), 96u);
    EXPECT_EQ(topo.reconfig().checkInvariants(), "");
    EXPECT_EQ(topo.reconfig().currentHoles(), 0);
}

} // namespace
