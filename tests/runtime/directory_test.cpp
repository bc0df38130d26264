// ShardedDirectory — consistent-hash ownership, shard routing, migration
// updates and restart stability (DESIGN.md §18).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "net/faults.hpp"
#include "runtime/directory.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using vm::Value;

// ---- unit level: the ring and the shard tables ----

ShardedDirectory make_directory(std::size_t shards) {
    ShardedDirectory dir;
    dir.configure(shards);
    return dir;
}

TEST(ShardedDirectory, RingOwnershipIsDeterministic) {
    ShardedDirectory a = make_directory(8);
    ShardedDirectory b = make_directory(8);
    ASSERT_TRUE(a.enabled());
    std::set<net::NodeId> seen;
    for (int k = 0; k < 256; ++k) {
        const std::string key = "S/Class" + std::to_string(k);
        // Ownership is a pure function of (key, ring): two independently
        // configured rings agree, and repeated asks agree.
        EXPECT_EQ(a.owner(key), b.owner(key)) << key;
        EXPECT_EQ(a.owner(key), a.owner(key)) << key;
        seen.insert(a.owner(key));
    }
    // ...and the hash actually spreads keys over the shards instead of
    // funnelling everything through one registry node.
    EXPECT_GT(seen.size(), 4u);
}

TEST(ShardedDirectory, DisabledWithoutOwners) {
    ShardedDirectory dir;
    EXPECT_FALSE(dir.enabled());
    dir.configure({});
    EXPECT_FALSE(dir.enabled());
}

TEST(ShardedDirectory, ChaseObjectFollowsRelocationHops) {
    ShardedDirectory dir = make_directory(4);
    // Never-moved objects resolve to themselves.
    EXPECT_EQ(dir.chase_object(0, 5), (std::pair<net::NodeId, std::uint64_t>{0, 5}));
    // A two-hop relocation chain resolves to the terminal location from
    // any recorded link.
    dir.put_object(0, 5, 1, 9);
    dir.put_object(1, 9, 2, 11);
    EXPECT_EQ(dir.chase_object(0, 5), (std::pair<net::NodeId, std::uint64_t>{2, 11}));
    EXPECT_EQ(dir.chase_object(1, 9), (std::pair<net::NodeId, std::uint64_t>{2, 11}));
    EXPECT_EQ(dir.total_entries(), 2u);
}

TEST(ShardedDirectory, SingletonEntriesLiveInTheirOwningShard) {
    // A singleton's home is the policy's fact; the directory names the
    // shard that answers for it: the ring's owner of the singleton key,
    // one of the four owners, the same on an independently configured
    // ring.
    ShardedDirectory dir = make_directory(4);
    const net::NodeId owner = dir.singleton_owner("Registry");
    EXPECT_EQ(owner, dir.owner("S/Registry"));
    EXPECT_EQ(owner, make_directory(4).singleton_owner("Registry"));
    EXPECT_GE(owner, 0);
    EXPECT_LT(owner, 4);
    // Caching an answer stores no entry: the tables hold relocations only.
    dir.cache_singleton(2, "Registry", Placement{3, "SOAP"});
    EXPECT_EQ(dir.total_entries(), 0u);
}

TEST(ShardedDirectory, CachesInvalidateGlobally) {
    ShardedDirectory dir = make_directory(2);
    EXPECT_EQ(dir.cached_singleton(5, "Registry"), nullptr);
    dir.cache_singleton(5, "Registry", Placement{1, "RMI"});
    ASSERT_NE(dir.cached_singleton(5, "Registry"), nullptr);
    EXPECT_EQ(*dir.cached_singleton(5, "Registry"), (Placement{1, "RMI"}));
    EXPECT_EQ(dir.cached_singleton(6, "Registry"), nullptr);  // per-node
    dir.invalidate_caches();
    EXPECT_EQ(dir.cached_singleton(5, "Registry"), nullptr);
}

// ---- system level: routed lookups, migration, restarts ----

constexpr const char* kApp = R"(
class Service {
  field calls I
  ctor ()V {
    return
  }
  method work (J)J {
    load 0
    load 0
    getfield Service.calls I
    const 1
    add
    putfield Service.calls I
    load 1
    returnvalue
  }
}
class Registry {
  static field count I
  static method bump ()I {
    getstatic Registry.count I
    const 1
    add
    dup
    putstatic Registry.count I
    returnvalue
  }
}
)";

model::ClassPool make_pool() {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);
    return pool;
}

struct DirectorySystemFixture : ::testing::Test {
    model::ClassPool pool = make_pool();
    std::unique_ptr<System> system;

    void build(int nodes, std::uint32_t shards) {
        system = std::make_unique<System>(pool);
        for (int k = 0; k < nodes; ++k) system->add_node();
        DirectoryPolicy policy;
        policy.shards = shards;
        system->enable_directory(policy);
    }
};

TEST_F(DirectorySystemFixture, LookupAfterMigrateResolvesToTheNewHome) {
    build(4, 2);
    Value svc = system->construct(0, "Service", "()V");
    const vm::ObjId oid = svc.as_ref();

    // Before any migration, resolution is the identity.
    EXPECT_EQ(system->directory_resolve(1, 0, oid),
              (std::pair<net::NodeId, vm::ObjId>{0, oid}));

    const vm::ObjId on2 = system->migrate_instance(0, oid, 2, "RMI");
    // A lookup routed through the owning shard lands on the new home
    // directly — no proxy-chain walk on the data path.
    EXPECT_EQ(system->directory_resolve(1, 0, oid),
              (std::pair<net::NodeId, vm::ObjId>{2, on2}));

    // Chained migration: the chase follows every recorded hop.
    const vm::ObjId on3 = system->migrate_instance(2, on2, 3, "RMI");
    EXPECT_EQ(system->directory_resolve(1, 0, oid),
              (std::pair<net::NodeId, vm::ObjId>{3, on3}));
    EXPECT_GE(system->metrics().counter("directory.lookups").value(), 3u);
}

TEST_F(DirectorySystemFixture, RemoteLookupsCostControlTraffic) {
    build(4, 1);  // single shard: node 0 owns every key
    Value svc = system->construct(0, "Service", "()V");
    system->migrate_instance(0, svc.as_ref(), 2, "RMI");
    const net::LinkStats before = system->network().total_stats();

    // Node 3 is not the owner, so its lookup is a modelled round-trip:
    // bytes move, the asker's clock advances.
    const std::uint64_t clock_before = system->node(3).clock_us();
    system->directory_resolve(3, 0, svc.as_ref());
    EXPECT_GT(system->network().total_stats().bytes, before.bytes);
    EXPECT_GT(system->node(3).clock_us(), clock_before);
    EXPECT_GE(system->metrics().counter("directory.remote").value(), 1u);

    // The owner answers from its own table without a network trip.
    const net::LinkStats mid = system->network().total_stats();
    system->directory_resolve(0, 0, svc.as_ref());
    EXPECT_EQ(system->network().total_stats().bytes, mid.bytes);
}

TEST_F(DirectorySystemFixture, SingletonDiscoveryGoesThroughTheDirectory) {
    build(3, 3);
    // First remote bump discovers Registry through its owning shard; the
    // second hits the asker's cache.
    EXPECT_EQ(system->call_static(1, "Registry", "bump", "()I").as_int(), 1);
    EXPECT_EQ(system->call_static(1, "Registry", "bump", "()I").as_int(), 2);
    EXPECT_GE(system->metrics().counter("directory.lookups").value(), 1u);
    EXPECT_GE(system->metrics().counter("directory.cache_hits").value(), 1u);

    // Migration rewrites the shard entry and invalidates every cache, so
    // the next bump resolves to the new home (and still sees the durable
    // singleton state).
    system->migrate_singleton("Registry", 2, "RMI");
    EXPECT_GE(system->metrics().counter("directory.updates").value(), 1u);
    EXPECT_EQ(system->call_static(1, "Registry", "bump", "()I").as_int(), 3);
}

TEST_F(DirectorySystemFixture, OwnershipIsStableAcrossNodeRestart) {
    build(4, 2);
    Value svc = system->construct(0, "Service", "()V");
    const vm::ObjId oid = svc.as_ref();
    const vm::ObjId on2 = system->migrate_instance(0, oid, 2, "RMI");

    const net::NodeId owner_before =
        system->directory().object_owner(0, oid);

    // Crash the owning shard node under the fault plan, run traffic past
    // the window so it restarts, and ask again: shard tables are durable
    // control-plane state, and ownership is a pure function of the ring —
    // a restart moves nothing.
    const std::uint64_t now = system->network().now_us();
    net::FaultWindow crash;
    crash.kind = net::FaultKind::NodeCrash;
    crash.node = owner_before;
    crash.from_us = now;
    crash.until_us = now + 500;
    system->network().fault_plan().add(crash);

    // Advance virtual time beyond the crash window with traffic that does
    // not touch the crashed node.
    net::NodeId a = 1, b = 3;
    if (a == owner_before) a = 0;
    if (b == owner_before) b = 0;
    system->policy().set_instance_home("Service", b, "RMI");
    while (system->network().now_us() < crash.until_us)
        system->construct(a, "Service", "()V");
    ASSERT_GE(system->network().fault_plan().restarts_before(
                  owner_before, system->network().now_us()),
              1u);

    EXPECT_EQ(system->directory().object_owner(0, oid), owner_before);
    EXPECT_EQ(system->directory_resolve(1, 0, oid),
              (std::pair<net::NodeId, vm::ObjId>{2, on2}));
}

/// Registry's bumps from nodes 1, 1 and 2 on three nodes, the home
/// rewritten to node 2 through the policy (no migration) after the first,
/// and then where find_singleton says the singleton lives.
std::vector<std::int64_t> rewrite_home_midway(const model::ClassPool& pool, bool directory) {
    System system(pool);
    for (int k = 0; k < 3; ++k) system.add_node();
    if (directory) system.enable_directory();
    std::vector<std::int64_t> out;
    out.push_back(system.call_static(1, "Registry", "bump", "()I").as_int());
    system.policy().set_singleton_home("Registry", 2);
    out.push_back(system.call_static(1, "Registry", "bump", "()I").as_int());
    out.push_back(system.call_static(2, "Registry", "bump", "()I").as_int());
    out.push_back(system.find_singleton("Registry").first);
    return out;
}

TEST(DirectoryRewrite, AHomeRewrittenThroughThePolicyReachesCachedAskers) {
    // Node 1's cached answer names the old home; the policy no longer
    // gives it, so node 1 looks the home up again and both its bump and
    // node 2's reach the new singleton on node 2, as without a directory.
    const model::ClassPool pool = make_pool();
    const std::vector<std::int64_t> off = rewrite_home_midway(pool, false);
    EXPECT_EQ(off, (std::vector<std::int64_t>{1, 1, 2, 2}));
    EXPECT_EQ(rewrite_home_midway(pool, true), off);
}

// ---- migration-by-recovery composed with the directory ----

/// What one recover-onto run answers, compared across directory settings:
/// the directory prices lookups, it never changes an answer.
struct RecoveryOutcome {
    std::vector<std::int64_t> results;
    std::pair<net::NodeId, vm::ObjId> singleton{-1, 0};
    net::NodeId relocated_to = -1;
    std::map<vm::ObjId, vm::ObjId> remap;
    bool operator==(const RecoveryOutcome&) const = default;
};

/// Four durable nodes; the Registry singleton and a Service live on node
/// 1.  Nodes 2 and 3 bump, node 1 crashes for good, its image is
/// recovered onto node 0, then both bump again and node 0 calls the
/// Service through its (repointed) proxy.  `shards` < 0 leaves the
/// directory off.
RecoveryOutcome recover_onto(const model::ClassPool& pool, int shards) {
    SystemOptions options;
    options.durability.enabled = true;
    System system(pool, options);
    for (int k = 0; k < 4; ++k) system.add_node();
    if (shards >= 0) {
        DirectoryPolicy policy;
        policy.shards = static_cast<std::uint32_t>(shards);
        system.enable_directory(policy);
    }
    system.policy().set_singleton_home("Registry", 1, "RMI");
    system.policy().set_instance_home("Service", 1, "RMI");

    RecoveryOutcome out;
    const auto bump = [&](net::NodeId n) {
        out.results.push_back(system.call_static(n, "Registry", "bump", "()I").as_int());
    };
    const Value svc = system.construct(0, "Service", "()V");
    const auto [svc_node, svc_oid] = system.node(0).proxy_target(svc.as_ref());
    EXPECT_EQ(svc_node, 1);
    bump(2);
    bump(3);

    std::uint64_t now = 0;
    for (std::size_t k = 0; k < system.node_count(); ++k)
        now = std::max(now, system.node(static_cast<net::NodeId>(k)).clock_us());
    net::FaultWindow crash;
    crash.kind = net::FaultKind::NodeCrash;
    crash.node = 1;
    crash.from_us = now;
    crash.until_us = ~0ULL;
    system.network().fault_plan().add(crash);
    EXPECT_GT(system.recover_node_onto(1, 0), 0u);

    bump(2);
    bump(3);
    out.results.push_back(system.node(0)
                              .interp()
                              .call_virtual(svc, "work", "(J)J", {Value::of_long(7)})
                              .as_long());
    out.singleton = system.find_singleton("Registry");
    if (const System::Relocation* rel = system.relocation_of(1)) {
        out.relocated_to = rel->target;
        out.remap = rel->remap;
    }
    if (shards >= 0) {
        // A non-owner asks its shard where the recovered object lives:
        // the relocation entry answers with its new home directly.
        const net::NodeId owner = system.directory().object_owner(svc_node, svc_oid);
        const net::NodeId asker = owner == 2 ? 3 : 2;
        EXPECT_EQ(system.directory_resolve(asker, svc_node, svc_oid),
                  (std::pair<net::NodeId, vm::ObjId>{0, out.remap.at(svc_oid)}));
    }
    return out;
}

TEST(DirectoryRecovery, RecoverOntoAgreesWithTheDirectoryOffAndOn) {
    const model::ClassPool pool = make_pool();
    const RecoveryOutcome off = recover_onto(pool, -1);
    EXPECT_EQ(off.results, (std::vector<std::int64_t>{1, 2, 3, 4, 7}));
    EXPECT_EQ(off.singleton.first, 0);
    EXPECT_EQ(off.relocated_to, 0);
    EXPECT_FALSE(off.remap.empty());
    EXPECT_EQ(recover_onto(pool, 1), off);
    EXPECT_EQ(recover_onto(pool, 4), off);
}

}  // namespace
}  // namespace rafda::runtime
