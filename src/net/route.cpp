#include "net/route.hpp"

#include <algorithm>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "common/logging.hpp"

namespace temp::net {

namespace {

/// Pool key of one (src, dst, policy) endpoint pair.
std::uint64_t
endpointKey(DieId src, DieId dst, RoutePolicy policy)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 33) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst))
            << 1) |
           (policy == RoutePolicy::YX ? 1u : 0u);
}

}  // namespace

/// One route epoch's routes. Append-only: deques never move their
/// elements, so every RouteRef and candidate span handed out stays
/// valid for the storage's lifetime.
struct RouteEpoch
{
    RouteRef add(Route route)
    {
        bytes += static_cast<long>(sizeof(Route) +
                                   route.links.size() * sizeof(LinkId));
        routes.push_back(std::move(route));
        return RouteRef(&routes.back());
    }

    std::deque<Route> routes;
    std::deque<std::vector<RouteRef>> candidate_lists;
    std::unordered_map<std::uint64_t, RouteRef> safe;
    std::unordered_map<std::uint64_t, std::span<const RouteRef>> candidates;
    long bytes = 0;  ///< estimate of routes + candidate lists
};

const Route &
RouteRef::get() const
{
    static const Route kEmpty;
    return route_ ? *route_ : kEmpty;
}

Router::Router(const hw::MeshTopology &topo, const hw::FaultMap *faults)
    : topo_(topo), faults_(faults)
{
}

bool
Router::linkUsable(LinkId link) const
{
    return faults_ == nullptr || !faults_->linkFailed(link);
}

Route
Router::route(DieId src, DieId dst, RoutePolicy policy) const
{
    Route out;
    out.src = src;
    out.dst = dst;
    if (src == dst)
        return out;

    hw::DieCoord cur = topo_.coordOf(src);
    const hw::DieCoord goal = topo_.coordOf(dst);

    auto step_col = [&]() {
        while (cur.col != goal.col) {
            const int next_col = cur.col + (goal.col > cur.col ? 1 : -1);
            const DieId from = topo_.dieAt(cur.row, cur.col);
            const DieId to = topo_.dieAt(cur.row, next_col);
            out.links.push_back(topo_.linkId(from, to));
            cur.col = next_col;
        }
    };
    auto step_row = [&]() {
        while (cur.row != goal.row) {
            const int next_row = cur.row + (goal.row > cur.row ? 1 : -1);
            const DieId from = topo_.dieAt(cur.row, cur.col);
            const DieId to = topo_.dieAt(next_row, cur.col);
            out.links.push_back(topo_.linkId(from, to));
            cur.row = next_row;
        }
    };

    if (policy == RoutePolicy::XY) {
        step_col();
        step_row();
    } else {
        step_row();
        step_col();
    }
    return out;
}

Route
Router::routeVia(DieId src, DieId waypoint, DieId dst, RoutePolicy first,
                 RoutePolicy second) const
{
    const Route a = route(src, waypoint, first);
    const Route b = route(waypoint, dst, second);
    Route out;
    out.src = src;
    out.dst = dst;
    out.links = a.links;
    out.links.insert(out.links.end(), b.links.begin(), b.links.end());
    return out;
}

std::optional<Route>
Router::shortestPath(DieId src, DieId dst) const
{
    Route out;
    out.src = src;
    out.dst = dst;
    if (src == dst)
        return out;

    std::vector<DieId> prev(topo_.dieCount(), -1);
    std::vector<bool> seen(topo_.dieCount(), false);
    std::deque<DieId> queue;
    queue.push_back(src);
    seen[src] = true;

    while (!queue.empty()) {
        const DieId cur = queue.front();
        queue.pop_front();
        if (cur == dst)
            break;
        for (DieId next : topo_.neighbors(cur)) {
            if (seen[next] || !linkUsable(topo_.linkId(cur, next)))
                continue;
            seen[next] = true;
            prev[next] = cur;
            queue.push_back(next);
        }
    }
    if (!seen[dst])
        return std::nullopt;

    std::vector<DieId> path;
    for (DieId cur = dst; cur != src; cur = prev[cur])
        path.push_back(cur);
    path.push_back(src);
    std::reverse(path.begin(), path.end());
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        out.links.push_back(topo_.linkId(path[i], path[i + 1]));
    return out;
}

std::optional<Route>
Router::safeRoute(DieId src, DieId dst, RoutePolicy policy) const
{
    const Route direct = route(src, dst, policy);
    if (routeUsable(direct))
        return direct;
    const Route alt =
        route(src, dst,
              policy == RoutePolicy::XY ? RoutePolicy::YX : RoutePolicy::XY);
    if (routeUsable(alt))
        return alt;
    return shortestPath(src, dst);
}

std::vector<Route>
Router::candidateRoutes(DieId src, DieId dst) const
{
    std::vector<Route> candidates;

    // First-occurrence dedup over a flat vector: the candidate set is
    // tiny (XY + YX + a handful of one-bend detours), so a linear scan
    // beats the former std::set<std::vector<LinkId>>'s node allocation
    // per probe while preserving the insertion order the reroute
    // tie-breaking depends on.
    auto consider = [&](const Route &r) {
        if (r.src != src || r.dst != dst)
            return;
        if (!routeUsable(r))
            return;
        const bool seen =
            std::any_of(candidates.begin(), candidates.end(),
                        [&](const Route &c) { return c.links == r.links; });
        if (!seen)
            candidates.push_back(r);
    };

    consider(route(src, dst, RoutePolicy::XY));
    consider(route(src, dst, RoutePolicy::YX));
    // One-bend detours: step to a neighbour first, then route onward with
    // both dimension orders. This is the "idle neighbouring links" escape
    // hatch the Fig. 11 optimizer exploits.
    for (DieId mid : topo_.neighbors(src)) {
        if (mid == dst)
            continue;
        if (!linkUsable(topo_.linkId(src, mid)))
            continue;
        for (RoutePolicy second : {RoutePolicy::XY, RoutePolicy::YX}) {
            Route detour = routeVia(src, mid, dst, RoutePolicy::XY, second);
            consider(detour);
        }
    }
    if (candidates.empty()) {
        // Fabric has faults on all deterministic paths; fall back to BFS.
        if (auto bfs = shortestPath(src, dst))
            candidates.push_back(*bfs);
    }
    return candidates;
}

bool
Router::routeUsable(const Route &route) const
{
    return std::all_of(route.links.begin(), route.links.end(),
                       [this](LinkId l) { return linkUsable(l); });
}

RouteEpoch &
Router::currentLocked() const
{
    if (epoch_ == nullptr) {
        epoch_ = std::make_shared<RouteEpoch>();
        std::erase_if(epochs_, [](const std::weak_ptr<const RouteEpoch> &e) {
            return e.expired();
        });
        epochs_.push_back(epoch_);
    }
    return *epoch_;
}

RouteRef
Router::safeRouteRef(DieId src, DieId dst, RoutePolicy policy) const
{
    const std::uint64_t key = endpointKey(src, dst, policy);
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        if (epoch_ != nullptr) {
            auto it = epoch_->safe.find(key);
            if (it != epoch_->safe.end()) {
                ++pool_hits_;
                return it->second;
            }
        }
    }
    ++pool_misses_;
    std::optional<Route> found = safeRoute(src, dst, policy);
    std::unique_lock<std::shared_mutex> lock(mutex_);
    RouteEpoch &epoch = currentLocked();
    auto [it, inserted] = epoch.safe.try_emplace(key);
    if (inserted && found)
        it->second = epoch.add(std::move(*found));
    return it->second;
}

RouteRef
Router::linkRoute(LinkId link) const
{
    // Built once, never resized: the refs stay valid for the router's
    // lifetime.
    std::call_once(link_routes_once_, [this] {
        link_routes_.resize(static_cast<std::size_t>(topo_.linkCount()));
        for (LinkId id = 0; id < topo_.linkCount(); ++id) {
            const hw::Link &l = topo_.link(id);
            Route &r = link_routes_[static_cast<std::size_t>(id)];
            r.src = l.src;
            r.dst = l.dst;
            r.links = {id};
        }
    });
    return RouteRef(&link_routes_[static_cast<std::size_t>(link)]);
}

std::span<const RouteRef>
Router::candidateRouteRefs(DieId src, DieId dst) const
{
    const std::uint64_t key = endpointKey(src, dst, RoutePolicy::XY);
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        if (epoch_ != nullptr) {
            auto it = epoch_->candidates.find(key);
            if (it != epoch_->candidates.end()) {
                ++pool_hits_;
                return it->second;
            }
        }
    }
    ++pool_misses_;
    std::vector<Route> routes = candidateRoutes(src, dst);
    std::unique_lock<std::shared_mutex> lock(mutex_);
    RouteEpoch &epoch = currentLocked();
    if (auto it = epoch.candidates.find(key); it != epoch.candidates.end())
        return it->second;  // a racing miss stored it first
    std::vector<RouteRef> &refs = epoch.candidate_lists.emplace_back();
    refs.reserve(routes.size());
    for (Route &r : routes)
        refs.push_back(epoch.add(std::move(r)));
    epoch.bytes += static_cast<long>(sizeof(refs) +
                                     refs.size() * sizeof(RouteRef));
    const std::span<const RouteRef> span(refs);
    epoch.candidates.emplace(key, span);
    return span;
}

RouteRef
Router::intern(Route route) const
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    return currentLocked().add(std::move(route));
}

std::shared_ptr<const RouteEpoch>
Router::routeEpoch() const
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    currentLocked();
    return epoch_;
}

void
Router::newEpoch() const
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    epoch_.reset();
}

int
Router::liveEpochs() const
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    return static_cast<int>(std::count_if(
        epochs_.begin(), epochs_.end(),
        [](const std::weak_ptr<const RouteEpoch> &e) {
            return !e.expired();
        }));
}

common::CacheStats
Router::poolStats() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    common::CacheStats stats;
    if (epoch_ != nullptr) {
        stats.entries = static_cast<long>(epoch_->safe.size() +
                                          epoch_->candidates.size());
        stats.bytes_est = epoch_->bytes;
    }
    stats.hits = pool_hits_.load();
    stats.misses = pool_misses_.load();
    return stats;
}

}  // namespace temp::net
