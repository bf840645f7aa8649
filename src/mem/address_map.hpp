/**
 * @file
 * Physical-address to memory-node interleaving.
 *
 * Data is distributed across the live memory nodes by physical
 * address (paper Section V, Workloads) at page granularity. The map
 * covers the nodes live when it is built, so a replay on a
 * down-scaled network builds it after gating (capacity shrinks;
 * resident data is assumed migrated — see docs/substitutions.md).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"

namespace sf::mem {

/** Page-interleaved address map over the live nodes. */
class AddressMap
{
  public:
    /**
     * @param interleave_bytes Contiguous bytes per node before the
     *        map moves to the next node (4 KB pages by default).
     */
    explicit AddressMap(const net::Topology &topo,
                        std::uint64_t interleave_bytes = 4096)
        : interleave_(interleave_bytes)
    {
        for (NodeId u = 0; u < topo.numNodes(); ++u) {
            if (topo.nodeAlive(u))
                nodes_.push_back(u);
        }
    }

    /** Owning memory node of @p addr. */
    NodeId
    node(std::uint64_t addr) const
    {
        return nodes_[(addr / interleave_) % nodes_.size()];
    }

    /** Node-local address (dense within the node). */
    std::uint64_t
    localAddr(std::uint64_t addr) const
    {
        const std::uint64_t page = addr / interleave_;
        return (page / nodes_.size()) * interleave_ +
               addr % interleave_;
    }

    std::size_t numNodes() const { return nodes_.size(); }
    const std::vector<NodeId> &nodes() const { return nodes_; }

  private:
    std::uint64_t interleave_;
    std::vector<NodeId> nodes_;
};

} // namespace sf::mem
