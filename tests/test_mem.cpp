/**
 * @file
 * Tests for the memory substrate: DRAM bank timing, address
 * interleaving, energy accounting, and the power manager.
 */

#include <gtest/gtest.h>

#include "core/string_figure.hpp"
#include "mem/address_map.hpp"
#include "mem/energy.hpp"
#include "mem/memory_node.hpp"
#include "mem/power_manager.hpp"
#include "sim/network.hpp"

namespace {

using namespace sf;
using namespace sf::mem;

TEST(DramTiming, NsToCycles)
{
    // 3.2 ns per cycle (312.5 MHz).
    EXPECT_EQ(DramTiming::toCycles(3.2), 1u);
    EXPECT_EQ(DramTiming::toCycles(6.0), 2u);   // ceil
    EXPECT_EQ(DramTiming::toCycles(12.0), 4u);
    EXPECT_EQ(DramTiming::toCycles(33.0), 11u);
}

TEST(MemoryNode, RowHitFasterThanMiss)
{
    MemoryNode node;
    const Cycle first = node.access(0, false, 0);      // row miss
    const Cycle second = node.access(64, false, first); // same row
    EXPECT_GT(first, 0u);
    EXPECT_LT(second - first, first);
    EXPECT_EQ(node.rowMisses(), 1u);
    EXPECT_EQ(node.rowHits(), 1u);
}

TEST(MemoryNode, BanksServeInParallel)
{
    MemoryNode node(16, 2048);
    // Different banks: both start immediately.
    const Cycle a = node.access(0, false, 0);
    const Cycle b = node.access(2048, false, 0);  // next row/bank
    EXPECT_EQ(a, b);
    // Same bank, different row: queues behind and re-activates.
    const Cycle c = node.access(16 * 2048, false, 0);
    EXPECT_GT(c, a);
}

TEST(MemoryNode, FcfsPerBank)
{
    MemoryNode node(1, 2048);
    const Cycle a = node.access(0, false, 0);
    const Cycle b = node.access(0, false, 0);  // same row, queued
    EXPECT_GT(b, a);
}

TEST(AddressMap, CoversAllNodesEvenly)
{
    core::SFParams p;
    p.numNodes = 16;
    p.routerPorts = 4;
    core::StringFigure topo(p);
    AddressMap map(topo, 4096);
    std::vector<int> hits(16, 0);
    for (std::uint64_t addr = 0; addr < 16 * 4096ull * 4;
         addr += 4096)
        ++hits[map.node(addr)];
    for (int h : hits)
        EXPECT_EQ(h, 4);
}

TEST(AddressMap, LocalAddrDenseWithinNode)
{
    core::SFParams p;
    p.numNodes = 8;
    p.routerPorts = 4;
    core::StringFigure topo(p);
    AddressMap map(topo, 4096);
    // Consecutive pages owned by node 0 map to consecutive local
    // pages.
    EXPECT_EQ(map.localAddr(0), 0u);
    EXPECT_EQ(map.localAddr(8 * 4096ull), 4096u);
    EXPECT_EQ(map.localAddr(8 * 4096ull + 100), 4196u);
}

TEST(AddressMap, CoversOnlyLiveNodes)
{
    core::SFParams p;
    p.numNodes = 32;
    p.routerPorts = 8;
    core::StringFigure topo(p);
    topo.gate(5);
    const AddressMap map(topo);
    EXPECT_EQ(map.numNodes(), 31u);
    for (std::uint64_t addr = 0; addr < 64 * 4096ull; addr += 4096)
        EXPECT_NE(map.node(addr), 5u);
}

TEST(Energy, PerBitConstants)
{
    EnergyModel model;
    model.addNetwork(128, 3);  // 128 bits, 3 hops
    EXPECT_DOUBLE_EQ(model.networkPj(), 5.0 * 128 * 3);
    model.addDram(512);
    EXPECT_DOUBLE_EQ(model.dramPj(), 12.0 * 512);
    model.addBackground(100);
    EXPECT_DOUBLE_EQ(model.backgroundPj(), 10.0 * 100);
    EXPECT_DOUBLE_EQ(model.totalPj(), 5.0 * 128 * 3 + 12.0 * 512 +
                                          10.0 * 100);
}

TEST(Energy, EdpScalesWithDelay)
{
    EnergyModel model;
    model.addDram(1000);
    const double edp1 = model.edp(1000);
    const double edp2 = model.edp(2000);
    EXPECT_NEAR(edp2 / edp1, 2.0, 1e-9);
}

TEST(Energy, FlitHopsEquivalentToNetwork)
{
    EnergyModel a;
    EnergyModel b;
    a.addNetwork(128, 7);
    b.addFlitHops(7, 128);
    EXPECT_DOUBLE_EQ(a.networkPj(), b.networkPj());
}

TEST(PowerManager, GatesToTargetRespectingGranularity)
{
    core::SFParams p;
    p.numNodes = 64;
    p.routerPorts = 8;
    core::StringFigure topo(p);
    sim::SimConfig cfg;
    sim::NetworkModel net(topo, cfg);
    PowerParams params;
    params.reconfigGranularityNs = 320.0;  // 100 cycles, fast test
    PowerManager pm(topo, net, params, 3);
    pm.setTarget(56);

    Cycle cycle = 0;
    for (; cycle < 100000 && !pm.settled(); ++cycle) {
        pm.tick(cycle);
        net.step(cycle);
    }
    EXPECT_TRUE(pm.settled());
    EXPECT_EQ(topo.reconfig().numAlive(), 56u);
    EXPECT_EQ(pm.reconfigOps(), 8u);
    // 8 ops, one per granularity window at least.
    EXPECT_GE(cycle, 7u * 100u);
    EXPECT_EQ(pm.transitionCycles(),
              8u * params.sleepCycles());
}

TEST(PowerManager, WakesBackUp)
{
    core::SFParams p;
    p.numNodes = 64;
    p.routerPorts = 8;
    core::StringFigure topo(p);
    sim::SimConfig cfg;
    sim::NetworkModel net(topo, cfg);
    PowerParams params;
    params.reconfigGranularityNs = 64.0;
    PowerManager pm(topo, net, params, 3);
    pm.setTarget(48);
    Cycle cycle = 0;
    for (; cycle < 100000 && !pm.settled(); ++cycle) {
        pm.tick(cycle);
        net.step(cycle);
    }
    ASSERT_TRUE(pm.settled());
    pm.setTarget(64);
    for (; cycle < 200000 && !pm.settled(); ++cycle) {
        pm.tick(cycle);
        net.step(cycle);
    }
    EXPECT_TRUE(pm.settled());
    EXPECT_EQ(topo.reconfig().numAlive(), 64u);
    EXPECT_EQ(topo.reconfig().currentHoles(), 0);
}

TEST(PowerManager, RespectsProtectedNodes)
{
    core::SFParams p;
    p.numNodes = 32;
    p.routerPorts = 8;
    core::StringFigure topo(p);
    sim::SimConfig cfg;
    sim::NetworkModel net(topo, cfg);
    PowerParams params;
    params.reconfigGranularityNs = 32.0;
    PowerManager pm(topo, net, params, 5);
    pm.setProtected({0, 1, 2, 3});
    pm.setTarget(24);
    for (Cycle cycle = 0; cycle < 100000 && !pm.settled(); ++cycle) {
        pm.tick(cycle);
        net.step(cycle);
    }
    for (NodeId u = 0; u < 4; ++u)
        EXPECT_TRUE(topo.nodeAlive(u));
}

} // namespace
