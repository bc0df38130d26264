#include "runtime/advisor.hpp"

#include <algorithm>
#include <utility>

namespace rafda::runtime {

PolicyAdvisor::PolicyAdvisor(System& system, std::uint64_t min_calls,
                             double min_dominance)
    : system_(&system), min_calls_(min_calls), min_dominance_(min_dominance) {}

std::vector<Recommendation> PolicyAdvisor::advise() const {
    // The advisor's only input is the typed traffic table: the
    // per-(src, dst) call counters the proxy dispatchers maintain.
    std::vector<Recommendation> out;
    for (const auto& [cls, row] : system_->traffic()) {
        std::uint64_t total = 0;
        std::pair<net::NodeId, net::NodeId> best_edge{0, 0};
        std::uint64_t best_calls = 0;
        for (const auto& [edge, ctr] : row.edges) {
            const std::uint64_t calls = ctr.calls->value();
            total += calls;
            if (calls > best_calls) {
                best_calls = calls;
                best_edge = edge;
            }
        }
        if (total == 0 || total < min_calls_) continue;
        double dominance = static_cast<double>(best_calls) / static_cast<double>(total);
        if (dominance < min_dominance_) continue;
        // Remote traffic only exists when caller != callee node, but keep
        // the guard for robustness.
        if (best_edge.first == best_edge.second) continue;

        out.push_back(Recommendation{cls, best_edge.second, best_edge.first, total,
                                     dominance});
    }
    std::sort(out.begin(), out.end(), [](const Recommendation& a, const Recommendation& b) {
        return a.remote_calls > b.remote_calls;
    });
    return out;
}

std::size_t PolicyAdvisor::apply(const std::vector<Recommendation>& recs) {
    std::size_t changed = 0;
    for (const Recommendation& r : recs) {
        system_->policy().set_instance_home(r.cls, r.recommended_home);
        ++changed;
    }
    if (changed) system_->reset_stats();
    return changed;
}

}  // namespace rafda::runtime
