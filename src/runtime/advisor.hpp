// PolicyAdvisor — the "deciding" half of the paper's long-term goal ("a
// complete system for deciding and capturing distribution policy", Sec 4).
//
// The System records which node issues remote calls against each class's
// proxies (System::traffic).  The advisor turns that observation into
// placement recommendations: if node n makes the overwhelming share of
// remote calls to instances of A, A's instances (and future placements)
// belong on n.  Recommendations can be inspected, or applied — which
// updates the DistributionPolicy for future make() calls.  Moving existing
// objects remains the caller's choice (migrate_instance/migrate_closure),
// since only the application knows which live objects matter.
#pragma once

#include <string>
#include <vector>

#include "runtime/system.hpp"

namespace rafda::runtime {

struct Recommendation {
    std::string cls;
    net::NodeId objects_on;        // where the called objects live today
    net::NodeId recommended_home;  // the dominant caller
    std::uint64_t remote_calls;    // observed remote calls to this class
    double dominance;              // share of calls on the dominant edge

    bool operator==(const Recommendation&) const = default;
};

class PolicyAdvisor {
public:
    /// `min_calls`: ignore classes with fewer observed remote calls.
    /// `min_dominance`: only recommend when one node makes at least this
    /// share of the traffic (avoids ping-ponging on balanced load).
    explicit PolicyAdvisor(System& system, std::uint64_t min_calls = 16,
                           double min_dominance = 0.6);

    /// Produces recommendations for classes whose instance placement
    /// differs from the dominant caller.  Sorted by remote call volume,
    /// heaviest first.
    std::vector<Recommendation> advise() const;

    /// Applies `recs` to the policy (instance homes) and clears the
    /// traffic counters so the next window starts fresh.  Returns the
    /// number of policy entries changed.
    std::size_t apply(const std::vector<Recommendation>& recs);

private:
    System* system_;
    std::uint64_t min_calls_;
    double min_dominance_;
};

}  // namespace rafda::runtime
