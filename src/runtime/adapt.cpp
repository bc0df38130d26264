#include "runtime/adapt.hpp"

#include <algorithm>
#include <tuple>

#include "net/faults.hpp"
#include "runtime/system.hpp"
#include "support/log.hpp"

namespace rafda::runtime {

namespace {

/// Windowed delta of a cumulative reading; rebases `prev` to `now`.
/// System::reset_stats() rebases every baseline, so `now < prev` only
/// follows a registry reset behind the engine's back — the whole reading
/// is then the window.
std::uint64_t take_delta(std::uint64_t& prev, std::uint64_t now) {
    const std::uint64_t d = now >= prev ? now - prev : now;
    prev = now;
    return d;
}

}  // namespace

const char* adapt_action_name(AdaptDecision::Action a) {
    switch (a) {
        case AdaptDecision::Action::Migrate: return "migrate";
        case AdaptDecision::Action::Replicate: return "replicate";
        case AdaptDecision::Action::Defer: return "defer";
        case AdaptDecision::Action::Recover: return "recover";
    }
    return "?";
}

AdaptationEngine::AdaptationEngine(System& system, AdaptPolicy policy)
    : system_(&system), policy_(policy) {
    obs::Registry& reg = system_->metrics();
    decisions_ctr_ = &reg.counter("adapt.decisions");
    migrations_ctr_ = &reg.counter("adapt.migrations");
    replications_ctr_ = &reg.counter("adapt.replications");
    bytes_saved_ctr_ = &reg.counter("adapt.bytes_saved_est");
}

void AdaptationEngine::track_instance(const std::string& cls, net::NodeId node,
                                      std::uint64_t oid) {
    tracked_[cls] = {node, oid};
}

void AdaptationEngine::rebase() {
    prev_.clear();
    prev_link_bytes_.clear();
}

void AdaptationEngine::sample_windows(
    std::map<std::string, ClassWindow>& out,
    std::map<std::pair<net::NodeId, net::NodeId>, std::uint64_t>& link_bytes) {
    for (const auto& [cls, row] : system_->traffic()) {
        // Traffic matrix: per-edge calls/bytes deltas.  A class gets a
        // window once any of its edges carried traffic.
        ClassWindow w;
        bool seen = false;
        for (const auto& [edge, ctr] : row.edges) {
            seen = seen || ctr.calls->value() || ctr.bytes->value();
            Edge e;
            e.calls = take_delta(prev_[ctr.calls], ctr.calls->value());
            e.bytes = take_delta(prev_[ctr.bytes], ctr.bytes->value());
            if (e.calls == 0 && e.bytes == 0) continue;
            w.edges[edge] = e;
            w.calls += e.calls;
            w.bytes += e.bytes;
        }
        // Per-method latency histograms: windowed call counts split into
        // reads and writes by the original-bytecode classifier.  `make`/
        // `discover` are control-plane operations, not class methods.
        for (const auto& [method, h] : row.latency) {
            const std::uint64_t delta = take_delta(prev_[h], h->count());
            if (delta == 0 || method == "make" || method == "discover") continue;
            (system_->replicas().method_is_readonly(cls, method) ? w.reads : w.writes) +=
                delta;
        }
        // Local singleton discovers: access the middleware cannot intercept.
        if (row.local_discovers)
            w.local_discovers =
                take_delta(prev_[row.local_discovers], row.local_discovers->value());
        if (seen) out.emplace(cls, std::move(w));
    }

    // Per-link byte deltas for the congestion term.
    system_->network().visit_links([&](net::NodeId src, net::NodeId dst,
                                       const net::LinkStats& s) {
        const std::uint64_t delta = take_delta(prev_link_bytes_[{src, dst}], s.bytes);
        if (delta) link_bytes[{src, dst}] = delta;
    });
}

void AdaptationEngine::backfill_realized(
    const std::map<std::string, ClassWindow>& windows) {
    for (std::size_t i : pending_) {
        AdaptDecision& d = decisions_[i];
        const auto it = windows.find(d.cls);
        const std::uint64_t now_bytes = it == windows.end() ? 0 : it->second.bytes;
        d.realized_saved_bytes = static_cast<std::int64_t>(d.window_bytes) -
                                 static_cast<std::int64_t>(now_bytes);
        d.realized_known = true;
    }
    pending_.clear();
}

bool AdaptationEngine::primary_of(const std::string& cls, net::NodeId& node,
                                  std::uint64_t& oid, bool& is_singleton) {
    const auto it = tracked_.find(cls);
    if (it != tracked_.end()) {
        it->second = system_->resolve_terminal(it->second.first, it->second.second);
        std::tie(node, oid) = it->second;
        is_singleton = false;
        return true;
    }
    const auto [n, o] = system_->find_singleton(cls);
    if (n < 0) return false;
    node = n;
    oid = o;
    is_singleton = true;
    return true;
}

AdaptDecision& AdaptationEngine::record(AdaptDecision d) {
    d.seq = decisions_.size() + 1;
    decisions_.push_back(std::move(d));
    AdaptDecision& r = decisions_.back();
    decisions_ctr_->add();
    system_->journal().record(obs::JournalEvent::Kind::Adapt, r.t_us, r.from, r.to,
                              static_cast<std::uint64_t>(r.action),
                              r.projected_saved_bytes, r.cls);
    return r;
}

void AdaptationEngine::decide_class(
    const std::string& cls, const ClassWindow& w,
    const std::map<std::pair<net::NodeId, net::NodeId>, std::uint64_t>& link_bytes,
    std::uint64_t now_us) {
    if (w.calls < policy_.min_window_calls || unshippable_.count(cls)) return;

    net::NodeId home = 0;
    std::uint64_t oid = 0;
    bool is_singleton = false;
    if (!primary_of(cls, home, oid, is_singleton)) return;

    // ---- replication tier ----
    // A read-mostly window replicates to its readers instead of migrating;
    // the home must show no local discovers (raw local references are the
    // one access the dispatch seam cannot see — DESIGN.md §19's contract).
    const std::uint64_t classified = w.reads + w.writes;
    const double read_share =
        classified ? static_cast<double>(w.reads) / static_cast<double>(classified)
                   : 0.0;
    if (classified >= policy_.min_window_calls &&
        read_share >= policy_.replicate_ratio && w.local_discovers == 0) {
        for (const auto& [edge, e] : w.edges) {
            const auto [src, dst] = edge;
            if (dst != home || src == home) continue;
            if (system_->replicas().find(home, oid, src)) continue;
            try {
                system_->create_replica(home, oid, cls, src);
            } catch (const std::exception& ex) {
                log_info("adapt", "class ", cls, " is not replicable: ",
                         ex.what());
                unshippable_.insert(cls);
                return;
            }
            replications_ctr_->add();
            AdaptDecision d;
            d.t_us = now_us;
            d.cls = cls;
            d.action = AdaptDecision::Action::Replicate;
            d.from = home;
            d.to = src;
            d.window_calls = w.calls;
            d.window_bytes = w.bytes;
            d.projected_saved_bytes = e.bytes;
            pending_.push_back(decisions_.size());
            record(std::move(d));
        }
        // A read-mostly class stays put: its readers are (now) served
        // locally, so migrating it toward any single one is pointless.
        return;
    }

    // ---- migration tier ----
    std::map<net::NodeId, std::uint64_t> from_src;
    for (const auto& [edge, e] : w.edges) from_src[edge.first] += e.bytes;

    auto inbound_hot = [&](net::NodeId n) {
        std::uint64_t hot = 0;
        for (const auto& [edge, b] : link_bytes)
            if (edge.second == n) hot = std::max(hot, b);
        return hot;
    };
    auto score = [&](net::NodeId n) {
        const auto it = from_src.find(n);
        const std::uint64_t absorbed = it == from_src.end() ? 0 : it->second;
        return static_cast<double>(w.bytes - absorbed) +
               static_cast<double>(inbound_hot(n));
    };

    const double home_score = score(home);
    net::NodeId best = home;
    double best_score = home_score;
    for (const auto& [src, _] : from_src) {
        if (src == home) continue;
        const double s = score(src);
        if (s < best_score) {
            best_score = s;
            best = src;
        }
    }
    if (best == home) return;
    const double saving = home_score - best_score;
    if (saving < static_cast<double>(policy_.migrate_threshold_bytes)) return;

    AdaptDecision d;
    d.t_us = now_us;
    d.cls = cls;
    d.from = home;
    d.to = best;
    d.window_calls = w.calls;
    d.window_bytes = w.bytes;
    d.projected_saved_bytes = static_cast<std::uint64_t>(saving);

    // Home inside a crash window: a live migration cannot run (the state
    // to copy is on a dead node), but its WAL + snapshot can — with
    // durability on, migration-by-recovery rebuilds the class on `best`
    // from the durable image (DESIGN.md §20), a defer-free path around the
    // crash.  The whole branch is gated on durability so legacy adaptive
    // runs never even evaluate the home's fault state.
    if (system_->durability_enabled() &&
        system_->network().fault_plan().node_down(home, now_us)) {
        if (system_->node(home).durable() && !system_->node(home).wal()->empty() &&
            !system_->network().fault_plan().node_down(best, now_us)) {
            system_->recover_node_onto(home, best);
            // The whole image may already have been relocated by an earlier
            // decision this crash; either way relocation_of says where this
            // class's instance now lives.
            const System::Relocation* rel = system_->relocation_of(home);
            const net::NodeId where = rel ? rel->target : best;
            if (!is_singleton && rel) {
                const auto it = rel->remap.find(oid);
                if (it != rel->remap.end()) tracked_[cls] = {where, it->second};
            }
            migrations_ctr_->add();
            bytes_saved_ctr_->add(d.projected_saved_bytes);
            d.action = AdaptDecision::Action::Recover;
            d.to = where;
            pending_.push_back(decisions_.size());
            record(std::move(d));
            log_info("adapt", "recovered ", cls, " from crashed node ", home,
                     " onto ", where);
        } else {
            d.action = AdaptDecision::Action::Defer;
            record(std::move(d));
        }
        return;
    }

    // Destination inside a crash window: defer rather than stall the
    // reliable control channel against a dead node; the skew is still
    // there at the next tick, which retries.
    if (system_->network().fault_plan().node_down(best, now_us)) {
        d.action = AdaptDecision::Action::Defer;
        record(std::move(d));
        return;
    }

    try {
        if (is_singleton) {
            system_->migrate_singleton(cls, best);
        } else {
            const std::uint64_t new_oid = system_->migrate_instance(home, oid, best);
            tracked_[cls] = {best, new_oid};
        }
    } catch (const std::exception& ex) {
        // The state did not ship, so nothing moved; a later tick would
        // fail the same way.
        log_info("adapt", "class ", cls, " is not migratable: ", ex.what());
        unshippable_.insert(cls);
        return;
    }
    migrations_ctr_->add();
    bytes_saved_ctr_->add(d.projected_saved_bytes);
    d.action = AdaptDecision::Action::Migrate;
    pending_.push_back(decisions_.size());
    const AdaptDecision& rec = record(std::move(d));
    log_info("adapt", "migrated ", cls, " ", home, " -> ", best,
             " (projected window saving ", rec.projected_saved_bytes, " bytes)");
}

void AdaptationEngine::tick(std::uint64_t now_us) {
    ++ticks_;

    std::map<std::string, ClassWindow> windows;
    std::map<std::pair<net::NodeId, net::NodeId>, std::uint64_t> link_bytes;
    sample_windows(windows, link_bytes);
    backfill_realized(windows);
    for (const auto& [cls, w] : windows)
        decide_class(cls, w, link_bytes, now_us);
}

void AdaptationEngine::finalize() {
    std::map<std::string, ClassWindow> windows;
    std::map<std::pair<net::NodeId, net::NodeId>, std::uint64_t> link_bytes;
    sample_windows(windows, link_bytes);
    backfill_realized(windows);
}

}  // namespace rafda::runtime
