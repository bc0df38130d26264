// Locator — the one place that decides where an object lives.
//
// The factory seams ask it the paper's two placement questions (Sec 1):
// make() asks where a new instance goes, discover() where a class's
// static singleton lives.  It owns every placement fact, once: the
// DistributionPolicy holds instance and singleton homes, the
// ShardedDirectory holds relocation hops and prices lookups (DESIGN.md
// §18), and the relocation table says where each crashed node's image
// went (§20).  Its write methods are the only way a home changes.  Each
// Node keeps its own singleton registry; the Locator names the node.
#pragma once

#include <map>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "runtime/directory.hpp"
#include "runtime/policy.hpp"
#include "vm/value.hpp"

namespace rafda::runtime {

class System;

/// Outcome of the last migration-by-recovery for a crashed node.
struct Relocation {
    net::NodeId target = -1;
    /// Old oid on the crashed node -> new oid on `target`.
    std::map<vm::ObjId, vm::ObjId> remap;
};

class Locator {
public:
    explicit Locator(System& system) : system_(system) {}

    DistributionPolicy& policy() noexcept { return policy_; }
    ShardedDirectory& directory() noexcept { return directory_; }
    /// Rings the directory over the first `policy.shards` nodes (0 = all)
    /// and registers the directory.* metrics.
    void enable_directory(DirectoryPolicy policy);

    /// The protocol a control operation speaks: `requested`, or the
    /// policy's default when empty.
    std::string protocol(const std::string& requested = {}) const {
        return requested.empty() ? policy_.default_protocol() : requested;
    }

    // ---- placement questions ----

    /// make(): where an instance of `cls` created on `asker` lives.
    Placement instance_home(const std::string& cls, net::NodeId asker) const {
        return policy_.instance_placement(cls, asker);
    }
    /// discover(): where `cls`'s singleton lives.  With the directory on,
    /// a hit in `asker`'s cache that the policy still gives is free; a
    /// miss costs a control round trip to the owning shard (unless `asker`
    /// owns it) and its lookup CPU.
    Placement singleton_home(const std::string& cls, net::NodeId asker);
    /// The node whose registry holds `cls`'s singleton, read at no
    /// modelled cost (inspection and control operations).
    net::NodeId singleton_node(const std::string& cls) const {
        return policy_.singleton_placement(cls, -1).node;
    }
    /// System::directory_resolve: the terminal location recorded for
    /// (node, oid), after a round trip to its shard unless `asker` owns it.
    std::pair<net::NodeId, vm::ObjId> resolve(net::NodeId asker, net::NodeId node,
                                              vm::ObjId oid);
    /// The node holding (node, oid)'s directory entry — a write-invalidate's
    /// first hop — or `node` itself with the directory off.
    net::NodeId entry_owner(net::NodeId node, vm::ObjId oid) const {
        return directory_.enabled() ? directory_.object_owner(node, oid) : node;
    }
    /// Non-null while `crashed`'s image is relocated and the node has not
    /// restarted since.
    const Relocation* relocation_of(net::NodeId crashed) const {
        const auto it = relocations_.find(crashed);
        return it == relocations_.end() ? nullptr : &it->second;
    }

    // ---- the only writers of homes ----

    void singleton_moved(const std::string& cls, net::NodeId to, const std::string& proto) {
        policy_.set_singleton_home(cls, to, proto);
    }
    /// The object formerly at (from, oid) now lives at (to, new_oid).
    void object_moved(net::NodeId from, vm::ObjId oid, net::NodeId to, vm::ObjId new_oid) {
        if (directory_.enabled()) directory_.put_object(from, oid, to, new_oid);
    }
    void node_relocated(net::NodeId crashed, Relocation r) {
        relocations_[crashed] = std::move(r);
    }
    /// `node` restarted and replayed its Relocate records: it forwards for
    /// itself again, so its relocation entry has served.
    void node_restarted(net::NodeId node) { relocations_.erase(node); }
    /// Ends a control operation's writes, at the barrier it already
    /// imposes: sheds every per-node cache and counts one directory
    /// update.  No-op with the directory off.
    void publish();

private:
    /// One lookup round trip asker -> owner -> asker plus the shard's
    /// lookup CPU.  The control channel is modelled reliable (like
    /// migration): loss costs time, never the outcome.
    void control_trip(net::NodeId asker, net::NodeId owner);

    System& system_;
    DistributionPolicy policy_;
    ShardedDirectory directory_;
    obs::Counter* lookups_ = nullptr;
    obs::Counter* remote_ = nullptr;
    obs::Counter* cache_hits_ = nullptr;
    obs::Counter* updates_ = nullptr;
    obs::Gauge* entries_ = nullptr;
    std::map<net::NodeId, Relocation> relocations_;
};

}  // namespace rafda::runtime
