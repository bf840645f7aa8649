/**
 * @file
 * Trace replay: drives a workload trace through the memory network.
 *
 * Four CPU sockets (paper Table I) attach to disjoint sets of
 * memory nodes. Trace operations are distributed round-robin over
 * the sockets (parallel worker threads); each socket issues an
 * operation when its timestamp has arrived and an MSHR-like
 * outstanding window has room. A read sends a one-flit request and
 * returns a five-flit data reply; a write sends five flits and
 * returns a one-flit acknowledgement. The destination memory node
 * models banked DRAM timing before answering. Energy follows the
 * paper's per-bit constants; runtime, IPC-style throughput, and EDP
 * come out per run.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "mem/dram_timing.hpp"
#include "net/topology.hpp"
#include "sim/sim_config.hpp"
#include "workloads/trace.hpp"

namespace sf::wl {

/**
 * Replay parameters. The Table I values are constants; the fields
 * are what callers vary.
 */
struct ReplayConfig {
    static constexpr int kSockets = 4;
    /** Memory nodes each socket attaches to (terminal ports). */
    static constexpr int kAttachPerSocket = 4;
    static constexpr double kCpi = 1.0;
    static constexpr int kReadRequestFlits = 1;
    static constexpr int kReadReplyFlits = 5;
    static constexpr int kWriteRequestFlits = 5;
    static constexpr int kWriteAckFlits = 1;
    /** Interleave granularity of the address map. */
    static constexpr std::uint64_t kInterleaveBytes = 4096;
    /** Hard cycle cap (safety against livelocked configs). */
    static constexpr Cycle kMaxCycles = 30'000'000;

    /** Outstanding requests per socket (MSHR window). */
    int window = 64;
    /**
     * Gate op issue on trace timestamps (CPU-bound replay). The
     * default issues as fast as the window allows (memory-bound
     * replay): the paper's throughput comparison only differentiates
     * networks when the memory system is the bottleneck.
     */
    bool respectTimestamps = false;
    mem::EnergyParams energy;
};

/** Outcome of one replay. */
struct ReplayResult {
    Cycle runtimeCycles = 0;
    /** Instructions per 2 GHz CPU cycle (paper's throughput). */
    double ipc = 0.0;
    double opsPerCycle = 0.0;
    double avgOpLatency = 0.0;   ///< request issue -> reply, cycles
    double avgHops = 0.0;
    double networkPj = 0.0;
    double dramPj = 0.0;
    double backgroundPj = 0.0;
    double totalPj = 0.0;
    double edpJouleSeconds = 0.0;
    std::uint64_t opsCompleted = 0;
    std::uint64_t escapeTransfers = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    bool finished = false;
};

/**
 * Replay @p trace on an immutable topology. Read-only on @p topo,
 * so a shared (cached) instance may serve many concurrent replays.
 */
ReplayResult replayTrace(const Trace &trace,
                         const net::Topology &topo,
                         const sim::SimConfig &sim_cfg,
                         const ReplayConfig &cfg);

/**
 * Replay @p trace with power gating (paper Fig 9(b)).
 *
 * @param gate_to_live When non-zero and the topology is a
 *        StringFigure, nodes are gated up front, before any socket
 *        attaches, until only this many stay live. The topology
 *        must be a private instance; never pass a shared cached
 *        one.
 */
ReplayResult replayTrace(const Trace &trace, net::Topology &topo,
                         const sim::SimConfig &sim_cfg,
                         const ReplayConfig &cfg,
                         std::size_t gate_to_live);

} // namespace sf::wl
