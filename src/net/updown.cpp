#include "net/updown.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "net/paths.hpp"

namespace sf::net {

namespace {

constexpr std::uint32_t kInf =
    std::numeric_limits<std::uint32_t>::max();

} // namespace

UpDownRouting::UpDownRouting(const Graph &g,
                             const std::vector<bool> &alive)
    : n_(g.numNodes())
{
    const std::vector<bool> live =
        alive.empty() ? std::vector<bool>(n_, true) : alive;
    const auto usable = [&](const Link &l) {
        return l.enabled && live[l.src] && live[l.dst];
    };

    // Tree levels: BFS from the first live node over the enabled
    // links treated as undirected (the escape network only needs a
    // consistent ordering, not direction-specific reachability).
    Graph undirected(n_);
    for (LinkId id = 0;
         id < static_cast<LinkId>(g.numLinks()); ++id) {
        const Link &l = g.link(id);
        if (usable(l)) {
            undirected.addLink(l.src, l.dst);
            undirected.addLink(l.dst, l.src);
        }
    }
    const auto root = std::find(live.begin(), live.end(), true);
    std::vector<std::uint16_t> level(n_, kUnreachable);
    if (root != live.end())
        level = bfsDistances(
            undirected, static_cast<NodeId>(root - live.begin()));

    // Link classification: "up" strictly ascends (level, id).
    isUp_.assign(g.numLinks(), false);
    for (LinkId id = 0;
         id < static_cast<LinkId>(g.numLinks()); ++id) {
        const Link &l = g.link(id);
        isUp_[id] = std::pair(level[l.dst], l.dst) <
                    std::pair(level[l.src], l.src);
    }

    // Node processing order for the up-phase DP: ascending (level,
    // id), so every up link's target is processed before its source.
    order_.resize(n_);
    std::iota(order_.begin(), order_.end(), 0u);
    std::sort(order_.begin(), order_.end(), [&](NodeId a, NodeId b) {
        return std::pair(level[a], a) < std::pair(level[b], b);
    });

    // The enabled live links the columns read, copied.
    outStart_.assign(n_ + 1, 0);
    downInStart_.assign(n_ + 1, 0);
    for (NodeId u = 0; u < n_; ++u) {
        for (LinkId id : g.outLinks(u)) {
            if (usable(g.link(id))) {
                outLink_.push_back(id);
                outDst_.push_back(g.link(id).dst);
            }
        }
        for (LinkId id : g.inLinks(u)) {
            if (usable(g.link(id)) && !isUp_[id])
                downInSrc_.push_back(g.link(id).src);
        }
        outStart_[u + 1] = static_cast<std::uint32_t>(outLink_.size());
        downInStart_[u + 1] =
            static_cast<std::uint32_t>(downInSrc_.size());
    }
    column_.assign(n_, kNoColumn);
}

std::uint32_t
UpDownRouting::buildColumn(NodeId t) const
{
    const auto c = static_cast<std::uint32_t>(columns_.size() / (2 * n_));
    columns_.resize(columns_.size() + 2 * n_, kInvalidLink);
    LinkId *up = columns_.data() + std::size_t{c} * 2 * n_;
    LinkId *down = up + n_;

    // Down-phase distances: BFS from t over reversed down links.
    dDown_.assign(n_, kInf);
    dDown_[t] = 0;
    queue_.assign(1, t);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
        const NodeId v = queue_[head];
        for (std::uint32_t k = downInStart_[v]; k < downInStart_[v + 1];
             ++k) {
            const NodeId src = downInSrc_[k];
            if (dDown_[src] == kInf) {
                dDown_[src] = dDown_[v] + 1;
                queue_.push_back(src);
            }
        }
    }
    for (NodeId u = 0; u < n_; ++u) {
        if (dDown_[u] == kInf || u == t)
            continue;
        for (std::uint32_t k = outStart_[u]; k < outStart_[u + 1];
             ++k) {
            if (!isUp_[outLink_[k]] &&
                dDown_[outDst_[k]] + 1 == dDown_[u]) {
                down[u] = outLink_[k];
                break;
            }
        }
    }

    // Up-phase DP in ascending (level, id) order: an up link's
    // destination always precedes its source, so dAny of the
    // target is final when the source is processed.
    dAny_ = dDown_;
    for (NodeId u : order_) {
        if (u == t)
            continue;
        LinkId best_link = down[u];
        for (std::uint32_t k = outStart_[u]; k < outStart_[u + 1];
             ++k) {
            const NodeId dst = outDst_[k];
            if (!isUp_[outLink_[k]] || dAny_[dst] == kInf)
                continue;
            if (dAny_[dst] + 1 < dAny_[u]) {
                dAny_[u] = dAny_[dst] + 1;
                best_link = outLink_[k];
            }
        }
        up[u] = best_link;
    }
    column_[t] = c;
    return c;
}

LinkId
UpDownRouting::nextLink(NodeId u, NodeId dest,
                        bool up_phase_allowed) const
{
    if (u == dest)
        return kInvalidLink;
    std::uint32_t c = column_[dest];
    if (c == kNoColumn)
        c = buildColumn(dest);
    const std::size_t base = std::size_t{c} * 2 * n_;
    return columns_[base + (up_phase_allowed ? 0 : n_) + u];
}

} // namespace sf::net
