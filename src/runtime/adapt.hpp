// AdaptationEngine — the closed loop between observation and placement
// (DESIGN.md §19; ROADMAP item 1).
//
// The RAFDA follow-on papers make the middleware *adaptive*: placement is
// not a config-time decision but a control loop over runtime measurement.
// This engine is that loop.  A periodic controller tick — scheduled by the
// WorkloadDriver as an ordinary EventHeap event, so it is deterministic
// from the seed — samples windowed deltas of the per-(class, src, dst)
// traffic matrix, the per-method latency histograms and the per-link byte
// counters, then for every observed class either:
//
//   * replicates — the window is read-mostly (read/write ratio >=
//     `replicate_ratio`, classified against the original bytecode) and
//     the home saw no unobservable local access: every remote reader gets
//     a node-local copy behind the ReplicaManager, write-invalidate
//     consistency (DESIGN.md §19);
//   * migrates — some caller node's projected score beats the home by at
//     least `migrate_threshold_bytes`: the object (singleton or tracked
//     instance) moves toward its traffic via the existing migration
//     machinery, directory updates included;
//   * defers — the chosen destination is inside a FaultPlan crash window
//     at decision time: the decision is recorded and retried at the next
//     tick instead of paying the reliable-channel stall against a dead
//     node.
//
// The score of placing a class at node n over one window is
//
//     score(n) = (window_bytes_total - window_bytes_from(n))
//              + hottest_inbound_link_bytes(n)
//
// i.e. the wire bytes the class would still cause if it lived on n, plus
// a congestion penalty for aiming the class's traffic at an already-hot
// node.  Every input is a windowed delta of deterministic counters, every
// container iterates in sorted order, and the engine never reads a PRNG —
// so two runs from one seed take identical decisions (asserted by E14).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace rafda::runtime {

class System;

/// Knobs for the controller; `System::enable_adaptation` applies them and
/// the policy grammar exposes them as
/// `adapt on [interval N] [migrate-threshold B] [replicate-ratio R]`.
struct AdaptPolicy {
    bool enabled = false;
    /// Virtual µs between controller ticks.
    std::uint64_t interval_us = 2000;
    /// Minimum projected per-window byte saving before a migration is
    /// worth its barrier.
    std::uint64_t migrate_threshold_bytes = 256;
    /// Window read share (reads / (reads + writes)) at or above which a
    /// class is replicated to its readers instead of migrated.
    double replicate_ratio = 0.9;
    /// Windows with fewer observed calls than this are noise: no decision.
    std::uint64_t min_window_calls = 8;
};

/// One controller decision, kept for `rafdac adapt` and the benches.
struct AdaptDecision {
    /// Explicit values: the journal's Adapt events encode the action in
    /// `a` with 3/4 reserved for invalidate/refresh, so Recover is 5.
    enum class Action : std::uint8_t {
        Migrate = 0,
        Replicate = 1,
        Defer = 2,
        /// Home node was inside a crash window: migration-by-recovery
        /// rebuilt its durable image on the chosen destination instead of
        /// deferring (DESIGN.md §20; requires `durable on`).
        Recover = 5,
    };

    std::uint64_t seq = 0;   // decision order, 1-based
    std::uint64_t t_us = 0;  // the tick's time (the heartbeat event's)
    std::string cls;
    Action action = Action::Migrate;
    net::NodeId from = 0;
    net::NodeId to = 0;
    std::uint64_t window_calls = 0;
    std::uint64_t window_bytes = 0;
    /// score(from) - score(to) at decision time.
    std::uint64_t projected_saved_bytes = 0;
    /// Window-over-window change in the class's wire bytes, backfilled at
    /// the next tick (negative = traffic grew anyway).
    std::int64_t realized_saved_bytes = 0;
    bool realized_known = false;
};

/// "migrate" / "replicate" / "defer" / "recover".
const char* adapt_action_name(AdaptDecision::Action a);

class AdaptationEngine {
public:
    AdaptationEngine(System& system, AdaptPolicy policy);

    const AdaptPolicy& policy() const noexcept { return policy_; }

    /// One controller tick, deciding at virtual time `now_us`: samples the
    /// windows since the last tick and acts on them.  Every call is a
    /// tick; the caller owns the cadence (the WorkloadDriver's heartbeat
    /// event, one per `interval_us`) and passes the clock it decides at.
    void tick(std::uint64_t now_us);

    /// Closes the observation loop without acting: backfills realized
    /// savings for decisions still pending.  The driver calls this once
    /// after the workload drains so the last window's decisions report
    /// their outcome.
    void finalize();

    std::uint64_t ticks_run() const noexcept { return ticks_; }
    const std::vector<AdaptDecision>& decisions() const noexcept {
        return decisions_;
    }

    /// Registers an instance for the controller (singletons are found
    /// without registration).  The entry stays current across the engine's
    /// own migrations and across moves made outside it (migrate_instance,
    /// migrate_closure), whose proxy chains the next tick follows.
    void track_instance(const std::string& cls, net::NodeId node,
                        std::uint64_t oid);

    /// Drops every windowed-delta baseline: System::reset_stats() calls
    /// this as it zeroes the counters the windows are deltas of, so the
    /// next window counts from zero.
    void rebase();

private:
    struct Edge {
        std::uint64_t calls = 0;
        std::uint64_t bytes = 0;
    };
    using EdgeMap = std::map<std::pair<net::NodeId, net::NodeId>, Edge>;

    /// Per-class window: traffic deltas plus the read/write split from the
    /// per-method latency-histogram count deltas.
    struct ClassWindow {
        EdgeMap edges;
        std::uint64_t calls = 0;
        std::uint64_t bytes = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t local_discovers = 0;
    };

    void sample_windows(std::map<std::string, ClassWindow>& out,
                        std::map<std::pair<net::NodeId, net::NodeId>,
                                 std::uint64_t>& link_bytes);
    void backfill_realized(const std::map<std::string, ClassWindow>& windows);
    /// Resolves the class's current primary: tracked instance first
    /// (followed through any proxy chain a migration outside the engine
    /// left behind), then the instantiated singleton.  Returns false when
    /// the class has no movable object.
    bool primary_of(const std::string& cls, net::NodeId& node,
                    std::uint64_t& oid, bool& is_singleton);
    void decide_class(const std::string& cls, const ClassWindow& w,
                      const std::map<std::pair<net::NodeId, net::NodeId>,
                                     std::uint64_t>& link_bytes,
                      std::uint64_t now_us);
    AdaptDecision& record(AdaptDecision d);

    System* system_;
    AdaptPolicy policy_;
    std::uint64_t ticks_ = 0;
    std::vector<AdaptDecision> decisions_;
    std::vector<std::size_t> pending_;  // indices awaiting realized backfill

    /// Previous cumulative readings (the windowed-delta baselines), keyed
    /// by the traffic-table handle read and by directed link.
    std::unordered_map<const void*, std::uint64_t> prev_;
    std::map<std::pair<net::NodeId, net::NodeId>, std::uint64_t> prev_link_bytes_;

    /// Registry handles (resolved once at construction).
    obs::Counter* decisions_ctr_ = nullptr;
    obs::Counter* migrations_ctr_ = nullptr;
    obs::Counter* replications_ctr_ = nullptr;
    obs::Counter* bytes_saved_ctr_ = nullptr;

    /// Classes whose state failed to ship to a replica or in a migration
    /// (e.g. it holds an array): both ship the same state, so they are
    /// never placed again.
    std::set<std::string> unshippable_;
    /// Explicitly tracked instances: cls -> (node, oid).
    std::map<std::string, std::pair<net::NodeId, std::uint64_t>> tracked_;
};

}  // namespace rafda::runtime
