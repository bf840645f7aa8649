/**
 * @file
 * Virtual spaces, random coordinates, and circular distances.
 *
 * String Figure logically scatters all memory nodes across
 * L = floor(p/2) virtual spaces (p = router ports). In each space a
 * node has a coordinate in [0, 1); nodes adjacent in coordinate order
 * form the per-space ring that the physical topology wires up. The
 * routing metric is the circular distance
 *     D(u, v) = min(|u - v|, 1 - |u - v|)
 * and the minimum circular distance MD(U, V) = min_i D(u_i, v_i)
 * over all spaces (paper Section III-B).
 *
 * Coordinate generation supports two modes:
 *  - UniformRandom: i.i.d. uniform coordinates (Jellyfish-style).
 *  - Balanced: evenly spaced ring slots assigned to nodes by a random
 *    permutation. Randomness comes from the permutation; balance
 *    (equal arc lengths) avoids the congestion the paper attributes
 *    to imbalanced connections. This reconstructs the paper's
 *    BalancedCoordinateGen() (Fig 4(b)), whose listing is not legible
 *    in the text; the ablation bench compares both modes.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "net/rng.hpp"
#include "net/types.hpp"

namespace sf::core {

/** Coordinate in [0, 1) on a virtual-space ring. */
using Coord = double;

// Both distances are written as selects, not branches: they run
// ~80 times per routing decision on random data, and these forms
// compile to fabs/min and compare-and-mask. They are bit-identical
// to the branchy forms: IEEE subtraction is sign-symmetric, so
// |a - b| is exactly the larger-minus-smaller difference; for
// d in [0, 1], min(d, 1 - d) picks the same value as
// d <= 0.5 ? d : 1 - d; and d + 0.0 is d (it could only turn -0.0
// into +0.0, which no comparison tells apart).

/** Symmetric circular distance between two coordinates. */
inline Coord
circularDistance(Coord a, Coord b)
{
    const Coord d = std::fabs(a - b);
    return std::min(d, 1.0 - d);
}

/** Clockwise (increasing-coordinate) distance from @p a to @p b. */
inline Coord
clockwiseDistance(Coord a, Coord b)
{
    const Coord d = b - a;
    return d + (d < 0.0 ? 1.0 : 0.0);
}

/** Coordinate assignment policy. */
enum class CoordMode {
    UniformRandom,  ///< i.i.d. uniform coordinates.
    Balanced,       ///< even slots, random permutation (default).
};

/**
 * Per-node coordinates in every virtual space, plus the sorted ring
 * order of each space.
 */
class VirtualSpaces
{
  public:
    VirtualSpaces() = default;

    /**
     * Generate coordinates for @p num_nodes nodes in @p num_spaces
     * spaces.
     */
    static VirtualSpaces generate(std::size_t num_nodes,
                                  int num_spaces, Rng &rng,
                                  CoordMode mode = CoordMode::Balanced);

    /** Number of virtual spaces L. */
    int numSpaces() const { return static_cast<int>(rings_.size()); }

    /** Number of nodes N. */
    std::size_t numNodes() const { return coords_.size(); }

    /** Coordinate of @p u in space @p s. */
    Coord
    coord(NodeId u, int s) const
    {
        return coords_[u][static_cast<std::size_t>(s)];
    }

    /** All coordinates of @p u (one per space). */
    const std::vector<Coord> &coords(NodeId u) const
    {
        return coords_[u];
    }

    /** Ring order of space @p s: node ids sorted by coordinate. */
    const std::vector<NodeId> &ring(int s) const
    {
        return rings_[static_cast<std::size_t>(s)];
    }

    /** Index of @p u within the ring of space @p s. */
    std::size_t
    ringIndex(NodeId u, int s) const
    {
        return ringIndex_[static_cast<std::size_t>(s)][u];
    }

    /**
     * Node @p steps positions clockwise from @p u on the static ring
     * of space @p s (ignores liveness; the reconfiguration engine
     * tracks the live ring separately).
     */
    NodeId
    ringAhead(NodeId u, int s, std::size_t steps = 1) const
    {
        const auto &r = rings_[static_cast<std::size_t>(s)];
        return r[(ringIndex(u, s) + steps) % r.size()];
    }

    /** Node @p steps positions counter-clockwise from @p u. */
    NodeId
    ringBehind(NodeId u, int s, std::size_t steps = 1) const
    {
        const auto &r = rings_[static_cast<std::size_t>(s)];
        const std::size_t n = r.size();
        return r[(ringIndex(u, s) + n - steps % n) % n];
    }

    /** Minimum circular distance between nodes @p u and @p v. */
    Coord
    minCircularDistance(NodeId u, NodeId v) const
    {
        Coord best = 1.0;
        for (int s = 0; s < numSpaces(); ++s) {
            const Coord d = circularDistance(coord(u, s), coord(v, s));
            if (d < best)
                best = d;
        }
        return best;
    }

    /**
     * Quantise all coordinates to @p bits bits (paper stores 7-bit
     * coordinates in routing tables). Collisions become possible;
     * the routing ablation measures the impact.
     */
    void quantize(int bits);

  private:
    /** coords_[node][space] */
    std::vector<std::vector<Coord>> coords_;
    /** rings_[space] = nodes sorted by coordinate */
    std::vector<std::vector<NodeId>> rings_;
    /** ringIndex_[space][node] = position in rings_[space] */
    std::vector<std::vector<std::uint32_t>> ringIndex_;

    void rebuildRings();
};

} // namespace sf::core
