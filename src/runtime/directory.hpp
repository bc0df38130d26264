// ShardedDirectory — consistent-hash-placed lookup tables for exported
// objects and singletons (DESIGN.md §18).
//
// Without it, every "where does X live?" question is answered by the
// host-side policy map: a free, central oracle — the simulation analogue
// of one registry node mediating every import_ref/discover, which is
// exactly the serialization point a million-client deployment cannot
// afford.  With the directory enabled, resolution becomes a modelled
// distributed operation: keys hash onto a ring of virtual points owned by
// the shard nodes, the owning shard's export table answers, and a
// resolution from a non-owner costs a control round-trip on the simulated
// network (charged in virtual time, occupying real links).  Migration
// updates the owning shard's table, so lookups after `migrate_instance`
// resolve directly to the new home instead of chasing proxy chains.
//
// Shard ownership is a pure function of (key, ring): a node crashing and
// restarting under a FaultPlan never moves entries (the tables are
// modelled as durable control-plane state, replicated like the policy
// itself), so ownership is stable across restarts — asserted by tests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"

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

/// Where an entry lives: a node plus, for singletons, the protocol the
/// asker should speak to it.
struct DirLocation {
    net::NodeId node = 0;
    std::uint64_t oid = 0;       // object entries only
    std::string protocol;        // singleton entries only
};

class ShardedDirectory {
public:
    /// Builds the consistent-hash ring over `owners` (deterministic: ring
    /// points depend only on node ids and kDirectoryVnodes).  Empty
    /// `owners` disables the directory.
    void configure(std::vector<net::NodeId> owners);

    bool enabled() const noexcept { return !ring_.empty(); }
    const std::vector<net::NodeId>& owners() const noexcept { return owners_; }

    /// The shard node owning `key` on the ring (first point clockwise of
    /// the key's hash).  Pure in (key, ring): stable across node crashes
    /// and restarts.
    net::NodeId owner(const std::string& key) const;

    /// Stable 64-bit key hash (FNV-1a); exposed for tests.
    static std::uint64_t hash_key(const std::string& key) noexcept;

    /// Owner of the singleton entry for `cls` / the object entry for
    /// (node, oid) — the shard a lookup must be routed to.
    net::NodeId singleton_owner(const std::string& cls) const {
        return owner("S/" + cls);
    }
    net::NodeId object_owner(net::NodeId node, std::uint64_t oid) const {
        return owner("O/" + std::to_string(node) + "/" + std::to_string(oid));
    }

    // ---- shard tables (authoritative control-plane state) ----

    /// Records/overwrites the singleton home for `cls` in its owning
    /// shard's table.
    void put_singleton(const std::string& cls, net::NodeId home,
                       const std::string& protocol);
    /// Looks up a singleton entry; nullptr when never recorded.
    const DirLocation* find_singleton(const std::string& cls) const;

    /// Records that the object formerly at (node, oid) now lives at
    /// (to, new_oid) — one migration hop in the relocation map.
    void put_object(net::NodeId node, std::uint64_t oid, net::NodeId to,
                    std::uint64_t new_oid);
    /// Follows recorded relocation hops from (node, oid) to the terminal
    /// location.  Identity when the object never moved.
    std::pair<net::NodeId, std::uint64_t> chase_object(net::NodeId node,
                                                       std::uint64_t oid) const;

    /// Entries held by each shard owner, in owner order (for gauges and
    /// the shard-balance story).
    void visit_shards(
        const std::function<void(net::NodeId, std::size_t)>& fn) const;
    std::size_t total_entries() const noexcept;

    // ---- per-node resolution caches (soft state) ----

    /// Cached singleton resolution for (asker, cls); nullptr on miss.
    const DirLocation* cached_singleton(net::NodeId asker,
                                        const std::string& cls) const;
    void cache_singleton(net::NodeId asker, const std::string& cls,
                         const DirLocation& loc);
    /// Drops every per-node cache — migration is a stop-the-world barrier,
    /// so invalidation is global and exact.
    void invalidate_caches();

private:
    std::map<std::string, DirLocation>& table_for(const std::string& key);

    std::vector<net::NodeId> owners_;
    /// Sorted ring points: (hash, shard node).
    std::vector<std::pair<std::uint64_t, net::NodeId>> ring_;
    /// Per-shard-owner export tables: key -> location.
    std::map<net::NodeId, std::map<std::string, DirLocation>> tables_;
    /// Per-node caches: (asker, key) -> location.
    std::map<net::NodeId, std::map<std::string, DirLocation>> caches_;
};

}  // namespace rafda::runtime
