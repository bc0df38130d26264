// ShardedDirectory — consistent-hash-placed relocation tables and the
// cost model of placement lookups (DESIGN.md §18).
//
// Without it, every "where does X live?" question is answered by the
// host-side policy map: a free, central oracle — the simulation analogue
// of one registry node mediating every import_ref/discover, which is
// exactly the serialization point a million-client deployment cannot
// afford.  With the directory enabled, resolution becomes a modelled
// distributed operation: keys hash onto a ring of virtual points owned by
// the shard nodes, and a resolution from a non-owner costs a control
// round-trip on the simulated network (charged in virtual time, occupying
// real links).  A singleton's home is the policy's fact; the directory
// only says which shard answers for it and caches the answer per node.
// An object's relocation hops are the directory's own fact: migration
// updates the owning shard's table, so lookups after `migrate_instance`
// resolve directly to the new home instead of chasing proxy chains.
//
// Shard ownership is a pure function of (key, ring): a node crashing and
// restarting under a FaultPlan never moves entries (the tables are
// modelled as durable control-plane state, replicated like the policy
// itself), so ownership is stable across restarts — asserted by tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "runtime/policy.hpp"

namespace rafda::runtime {

/// Virtual ring points per shard node; more points = smoother key spread,
/// same determinism.
inline constexpr std::uint32_t kDirectoryVnodes = 64;
/// Size of one control message (query or answer) in wire bytes.
inline constexpr std::uint64_t kDirectoryLookupBytes = 48;
/// CPU charged on the owning shard node per served lookup — the
/// serialization a *single*-shard directory exhibits and sharding spreads.
inline constexpr std::uint64_t kDirectoryLookupCpuUs = 2;

/// Knobs for the directory; `System::enable_directory` applies them.
struct DirectoryPolicy {
    /// Shard owners: the first `shards` node ids (0 = every node owns a
    /// shard).
    std::uint32_t shards = 0;
};

class ShardedDirectory {
public:
    /// Builds the consistent-hash ring over shard owners 0 .. shards-1
    /// (deterministic: ring points depend only on node ids and
    /// kDirectoryVnodes).  0 shards disables the directory.
    void configure(std::size_t shards);

    bool enabled() const noexcept { return !ring_.empty(); }

    /// The shard node owning `key` on the ring (first point clockwise of
    /// the key's hash).  Pure in (key, ring): stable across node crashes
    /// and restarts.
    net::NodeId owner(const std::string& key) const;

    /// The shard a lookup must be routed to: the one answering for `cls`'s
    /// singleton / holding (node, oid)'s relocation entry.
    net::NodeId singleton_owner(const std::string& cls) const {
        return owner("S/" + cls);
    }
    net::NodeId object_owner(net::NodeId node, std::uint64_t oid) const;

    // ---- relocation tables (authoritative control-plane state) ----

    /// Records that the object formerly at (node, oid) now lives at
    /// (to, new_oid) — one migration hop in the relocation map.
    void put_object(net::NodeId node, std::uint64_t oid, net::NodeId to,
                    std::uint64_t new_oid);
    /// Follows recorded relocation hops from (node, oid) to the terminal
    /// location.  Identity when the object never moved.
    std::pair<net::NodeId, std::uint64_t> chase_object(net::NodeId node,
                                                       std::uint64_t oid) const;

    /// Relocation entries over every shard (the directory.entries gauge).
    std::size_t total_entries() const noexcept { return relocations_.size(); }

    // ---- per-node resolution caches (soft state) ----

    /// Cached singleton resolution for (asker, cls); nullptr on miss.
    const Placement* cached_singleton(net::NodeId asker, const std::string& cls) const;
    void cache_singleton(net::NodeId asker, const std::string& cls, const Placement& p);
    /// Drops every per-node cache — migration is a stop-the-world barrier,
    /// so invalidation is global and exact.
    void invalidate_caches();

private:
    /// Sorted ring points: (hash, shard node).
    std::vector<std::pair<std::uint64_t, net::NodeId>> ring_;
    /// Every shard's relocation entries: (node, oid) key -> where it moved.
    /// Which shard holds an entry is a pure function of its key
    /// (object_owner), so one map holds all the shards' tables.
    std::map<std::string, std::pair<net::NodeId, std::uint64_t>> relocations_;
    /// Per-node singleton caches: asker -> cls -> placement.
    std::map<net::NodeId, std::map<std::string, Placement>> caches_;
};

}  // namespace rafda::runtime
