#include "workloads/replay.hpp"

#include <algorithm>
#include <queue>

#include "core/string_figure.hpp"
#include "mem/address_map.hpp"
#include "mem/energy.hpp"
#include "mem/memory_node.hpp"
#include "sim/network.hpp"

namespace sf::wl {

namespace {

/** A pending DRAM reply scheduled for injection. */
struct PendingReply {
    Cycle at;
    NodeId from;
    NodeId to;
    int flits;
    std::uint64_t opIndex;
    bool operator>(const PendingReply &o) const { return at > o.at; }
};

/** Per-socket issue state. */
struct Socket {
    std::vector<NodeId> attach;
    std::size_t nextAttach = 0;
    std::size_t nextOp = 0;     ///< index into its op list
    int outstanding = 0;
};

/**
 * Shared implementation: replay is read-only on @p topo except for
 * the optional up-front power gating, which requires the caller to
 * pass the mutable StringFigure view in @p sf_mutable.
 */
ReplayResult
replayImpl(const Trace &trace, const net::Topology &topo,
           core::StringFigure *sf_mutable,
           const sim::SimConfig &sim_cfg, const ReplayConfig &cfg,
           std::size_t gate_to_live)
{
    ReplayResult result;
    if (trace.ops.empty()) {
        result.finished = true;
        return result;
    }

    // Down-scaling happens before anything attaches or maps, so
    // the run never sees a topology change.
    if (gate_to_live > 0 && sf_mutable != nullptr) {
        Rng gate_rng(sim_cfg.seed * 13 + 5);
        sf_mutable->reduceTo(gate_to_live, gate_rng);
    }

    sim::NetworkModel net(topo, sim_cfg);
    const mem::AddressMap map(topo, ReplayConfig::kInterleaveBytes);
    mem::EnergyModel energy(cfg.energy);
    std::vector<mem::MemoryNode> memory(topo.numNodes());

    // Attach sockets to evenly spaced live nodes.
    constexpr int kSockets = ReplayConfig::kSockets;
    constexpr int kAttach = ReplayConfig::kAttachPerSocket;
    const auto &live = map.nodes();
    std::vector<Socket> sockets(kSockets);
    for (int s = 0; s < kSockets; ++s) {
        for (int a = 0; a < kAttach; ++a) {
            const std::size_t pick =
                (static_cast<std::size_t>(s) * kAttach + a) *
                live.size() /
                (static_cast<std::size_t>(kSockets) * kAttach);
            sockets[s].attach.push_back(live[pick]);
        }
    }

    // Round-robin op distribution across sockets.
    std::vector<std::vector<std::uint64_t>> socket_ops(
        sockets.size());
    for (std::uint64_t i = 0; i < trace.ops.size(); ++i)
        socket_ops[i % sockets.size()].push_back(i);

    // Per-op bookkeeping.
    std::vector<Cycle> issued_at(trace.ops.size(), 0);
    std::vector<NodeId> reply_to(trace.ops.size(), 0);
    std::uint64_t completed = 0;
    std::uint64_t latency_sum = 0;
    std::uint64_t hops_sum = 0;

    std::priority_queue<PendingReply, std::vector<PendingReply>,
                        std::greater<>> replies;

    net.setDeliverHandler([&](const sim::Packet &p, Cycle at) {
        const std::uint64_t op_index = p.payload;
        const TraceOp &op = trace.ops[op_index];
        hops_sum += p.hops;
        if (p.msgClass == sim::kRequest) {
            // Arrived at the memory node: access DRAM, then reply.
            const Cycle done = memory[p.dst].access(
                map.localAddr(op.addr), op.isWrite, at);
            energy.addDram(64ull * 8);
            const int flits = op.isWrite
                                  ? ReplayConfig::kWriteAckFlits
                                  : ReplayConfig::kReadReplyFlits;
            replies.push(PendingReply{done, p.dst,
                                      reply_to[op_index], flits,
                                      op_index});
        } else {
            // Reply back at the socket: the op completes.
            ++completed;
            latency_sum += at - issued_at[op_index];
            const std::uint64_t sock = op_index % sockets.size();
            --sockets[sock].outstanding;
        }
    });

    Cycle cycle = 0;
    for (; completed < trace.ops.size() &&
           cycle < ReplayConfig::kMaxCycles;
         ++cycle) {
        // Issue ready ops (timestamp arrived, window open).
        for (auto &sock : sockets) {
            const std::uint64_t sock_index =
                static_cast<std::uint64_t>(&sock - sockets.data());
            while (sock.nextOp < socket_ops[sock_index].size() &&
                   sock.outstanding < cfg.window) {
                const std::uint64_t op_index =
                    socket_ops[sock_index][sock.nextOp];
                const TraceOp &op = trace.ops[op_index];
                if (cfg.respectTimestamps &&
                    Trace::instrToCycles(op.instrId,
                                         ReplayConfig::kCpi) > cycle)
                    break;
                const NodeId attach =
                    sock.attach[sock.nextAttach++ %
                                sock.attach.size()];
                const NodeId target = map.node(op.addr);
                issued_at[op_index] = cycle;
                reply_to[op_index] = attach;
                const int flits =
                    op.isWrite ? ReplayConfig::kWriteRequestFlits
                               : ReplayConfig::kReadRequestFlits;
                net.inject(attach, target, flits, sim::kRequest,
                           cycle, op_index, true);
                ++sock.outstanding;
                ++sock.nextOp;
            }
        }

        // Inject DRAM replies that are ready.
        while (!replies.empty() && replies.top().at <= cycle) {
            const PendingReply &r = replies.top();
            net.inject(r.from, r.to, r.flits, sim::kReply, cycle,
                       r.opIndex, true);
            replies.pop();
        }

        net.step(cycle);
    }

    result.runtimeCycles = cycle;
    result.opsCompleted = completed;
    result.finished = completed == trace.ops.size();
    result.opsPerCycle = cycle ? static_cast<double>(completed) /
                                 static_cast<double>(cycle)
                               : 0.0;
    // Network cycles are 3.2 ns; the 2 GHz CPU runs 6.4 CPU cycles
    // per network cycle.
    const double cpu_cycles = static_cast<double>(cycle) * 6.4;
    result.ipc = cpu_cycles > 0
                     ? static_cast<double>(trace.totalInstructions) *
                       (static_cast<double>(completed) /
                        static_cast<double>(trace.ops.size())) /
                       cpu_cycles
                     : 0.0;
    result.avgOpLatency =
        completed ? static_cast<double>(latency_sum) /
                    static_cast<double>(completed)
                  : 0.0;
    result.avgHops = completed ? static_cast<double>(hops_sum) /
                                 (2.0 * static_cast<double>(
                                            completed))
                               : 0.0;

    energy.addFlitHops(net.stats().flitHops,
                       sim::SimConfig::kFlitBits);
    // Every mapped node stays live for the whole run.
    energy.addBackground(cycle * map.numNodes());
    result.networkPj = energy.networkPj();
    result.dramPj = energy.dramPj();
    result.backgroundPj = energy.backgroundPj();
    result.totalPj = energy.totalPj();
    result.edpJouleSeconds = energy.edp(cycle);
    result.escapeTransfers = net.stats().escapeTransfers;
    for (const auto &node : memory) {
        result.rowHits += node.rowHits();
        result.rowMisses += node.rowMisses();
    }
    return result;
}

} // namespace

ReplayResult
replayTrace(const Trace &trace, const net::Topology &topo,
            const sim::SimConfig &sim_cfg, const ReplayConfig &cfg)
{
    return replayImpl(trace, topo, nullptr, sim_cfg, cfg, 0);
}

ReplayResult
replayTrace(const Trace &trace, net::Topology &topo,
            const sim::SimConfig &sim_cfg, const ReplayConfig &cfg,
            std::size_t gate_to_live)
{
    return replayImpl(trace, topo,
                      dynamic_cast<core::StringFigure *>(&topo),
                      sim_cfg, cfg, gate_to_live);
}

} // namespace sf::wl
