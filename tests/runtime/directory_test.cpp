// ShardedDirectory — consistent-hash ownership, shard routing, migration
// updates and restart stability (DESIGN.md §18).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

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

ShardedDirectory make_directory(std::uint32_t owners) {
    std::vector<net::NodeId> ids;
    for (std::uint32_t k = 0; k < owners; ++k)
        ids.push_back(static_cast<net::NodeId>(k));
    ShardedDirectory dir;
    dir.configure(ids);
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
    ShardedDirectory dir = make_directory(4);
    dir.put_singleton("Registry", 3, "RMI");
    const DirLocation* loc = dir.find_singleton("Registry");
    ASSERT_NE(loc, nullptr);
    EXPECT_EQ(loc->node, 3);
    EXPECT_EQ(loc->protocol, "RMI");
    // Overwrite on migration: the same shard's entry is replaced.
    dir.put_singleton("Registry", 1, "SOAP");
    loc = dir.find_singleton("Registry");
    ASSERT_NE(loc, nullptr);
    EXPECT_EQ(loc->node, 1);
    EXPECT_EQ(loc->protocol, "SOAP");
    EXPECT_EQ(dir.find_singleton("Nope"), nullptr);
    // Entry counts land on the owner the ring picked for the key.
    std::size_t total = 0;
    dir.visit_shards([&](net::NodeId, std::size_t n) { total += n; });
    EXPECT_EQ(total, 1u);
}

TEST(ShardedDirectory, CachesInvalidateGlobally) {
    ShardedDirectory dir = make_directory(2);
    EXPECT_EQ(dir.cached_singleton(5, "Registry"), nullptr);
    DirLocation loc;
    loc.node = 1;
    loc.protocol = "RMI";
    dir.cache_singleton(5, "Registry", loc);
    ASSERT_NE(dir.cached_singleton(5, "Registry"), nullptr);
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

}  // namespace
}  // namespace rafda::runtime
