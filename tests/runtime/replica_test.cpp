// Read-mostly replication (DESIGN.md §19), end to end.
//
// The invariants under test, in rough order of importance:
//   - the bytecode classifier is conservative: only provably read-only
//     methods (against the ORIGINAL class) qualify, accessors classify by
//     prefix against the original field table, everything unknown is a
//     write;
//   - a read-mostly window replicates the singleton to its readers, after
//     which reads are served node-locally and the wire quiets down — with
//     every read still returning the right value;
//   - write-invalidate coherence: a write through the dispatch seam
//     invalidates every copy first, and the next read refreshes from the
//     primary before answering;
//   - migration is a replica barrier: the moved primary's copies are
//     forgotten, not served stale;
//   - a raw local reference escaping the dispatch seam on the home node
//     (local discover) conservatively invalidates — the one access the
//     middleware cannot see must not leave replicas lying about state;
//   - a class whose state cannot ship (it holds an array) is vetoed once:
//     the engine neither retries the replica nor migrates it instead, and
//     a failed migration leaves the instance and its placement in place.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"
#include "support/log.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using vm::Value;

constexpr const char* kApp = R"(
class Table {
  static field a I
  static field b I
  static method seed (II)V {
    load 0
    putstatic Table.a I
    load 1
    putstatic Table.b I
    return
  }
  static method lookup ()I {
    getstatic Table.a I
    getstatic Table.b I
    add
    returnvalue
  }
  static method update (I)V {
    load 0
    putstatic Table.a I
    return
  }
  static method churn ()I {
    getstatic Table.a I
    const 1
    add
    dup
    putstatic Table.a I
    returnvalue
  }
}
class Rec {
  field v I
  ctor ()V {
    return
  }
}
)";

std::unique_ptr<System> make_system(model::ClassPool& pool,
                                    bool adapt = false,
                                    AdaptPolicy policy = {}) {
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);
    SystemOptions options;
    options.network_seed = 23;
    options.default_link = net::LinkParams{20, 0.0, 0.0};
    auto system = std::make_unique<System>(pool, options);
    system->add_node();  // 0: singleton home, no local callers
    system->add_node();  // 1: reader
    system->add_node();  // 2: reader
    system->policy().set_singleton_home("Table", 0, "RMI");
    if (adapt) system->enable_adaptation(policy);
    return system;
}

AdaptPolicy replicate_policy() {
    AdaptPolicy p;
    p.interval_us = 600;
    p.min_window_calls = 4;
    p.replicate_ratio = 0.85;
    return p;
}

TEST(ReplicaClassifier, ReadOnlyIsProvedAgainstOriginalBytecode) {
    model::ClassPool pool;
    auto system = make_system(pool);
    const ReplicaManager& replicas = system->replicas();

    // Explicit bodies: a pure field read qualifies, any putstatic doesn't.
    EXPECT_TRUE(replicas.method_is_readonly("Table", "lookup"));
    EXPECT_FALSE(replicas.method_is_readonly("Table", "seed"));
    EXPECT_FALSE(replicas.method_is_readonly("Table", "update"));
    EXPECT_FALSE(replicas.method_is_readonly("Table", "churn"));

    // Generated accessors classify by prefix against the original field
    // table; the singleton getter and unknown names are writes.
    EXPECT_TRUE(replicas.method_is_readonly("Rec", "get_v"));
    EXPECT_FALSE(replicas.method_is_readonly("Rec", "set_v"));
    EXPECT_FALSE(replicas.method_is_readonly("Rec", "get_me"));
    EXPECT_FALSE(replicas.method_is_readonly("Rec", "frobnicate"));
    EXPECT_FALSE(replicas.method_is_readonly("NoSuchClass", "get_v"));
}

struct ReplicaOutcome {
    std::uint64_t wire_bytes = 0;
    std::uint64_t makespan_us = 0;
    std::uint64_t digest = 0;
    std::uint64_t replications = 0;
    std::uint64_t replica_reads = 0;
    std::vector<std::int32_t> results;
};

ReplicaOutcome run_readers(bool adapt, int calls_each = 20) {
    model::ClassPool pool;
    auto system = make_system(pool, adapt, replicate_policy());
    system->call_static(1, "Table", "seed", "(II)V",
                        {Value::of_int(3), Value::of_int(4)});

    ReplicaOutcome out;
    WorkloadDriver driver(*system);
    auto reader = [&out](System& sys, net::NodeId node) {
        out.results.push_back(
            sys.call_static(node, "Table", "lookup", "()I").as_int());
    };
    driver.add_client(1, static_cast<std::size_t>(calls_each), reader);
    driver.add_client(2, static_cast<std::size_t>(calls_each), reader);
    WorkloadDriver::Report report = driver.run();

    out.wire_bytes = system->network().total_stats().bytes;
    out.makespan_us = report.makespan_us;
    out.digest = report.event_order_digest;
    if (adapt) {
        out.replications = system->metrics().counter("adapt.replications").value();
        out.replica_reads = system->metrics().counter("adapt.replica_reads").value();
    }
    return out;
}

TEST(Replica, ReadMostlyWindowReplicatesToReaders) {
    ReplicaOutcome base = run_readers(false);
    ReplicaOutcome rep = run_readers(true);

    // Both readers got a copy, later reads were served node-locally, and
    // every read — before and after the switch — returned the truth.
    EXPECT_GE(rep.replications, 2u);
    EXPECT_GT(rep.replica_reads, 0u);
    ASSERT_EQ(rep.results.size(), base.results.size());
    for (std::int32_t v : rep.results) EXPECT_EQ(v, 7);

    // The payoff the engine exists for: fewer bytes end to end, no later
    // finish (replica-state transfers included).
    EXPECT_LT(rep.wire_bytes, base.wire_bytes);
    EXPECT_LE(rep.makespan_us, base.makespan_us);
}

TEST(Replica, ReplicationIsDeterministicFromTheSeed) {
    ReplicaOutcome a = run_readers(true);
    ReplicaOutcome b = run_readers(true);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_EQ(a.makespan_us, b.makespan_us);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.replications, b.replications);
    EXPECT_EQ(a.replica_reads, b.replica_reads);
    EXPECT_EQ(a.results, b.results);
}

TEST(Replica, WriteInvalidatesEveryCopyAndReadsRefresh) {
    model::ClassPool pool;
    auto system = make_system(pool, true, replicate_policy());
    system->call_static(1, "Table", "seed", "(II)V",
                        {Value::of_int(3), Value::of_int(4)});

    WorkloadDriver driver(*system);
    auto reader = [](System& sys, net::NodeId node) {
        sys.call_static(node, "Table", "lookup", "()I");
    };
    driver.add_client(1, 20, reader);
    driver.add_client(2, 20, reader);
    driver.run();
    ASSERT_GE(system->metrics().counter("adapt.replications").value(), 2u);

    // A remote write through the dispatch seam: every copy flips stale
    // before the write lands on the primary.
    system->call_static(1, "Table", "update", "(I)V", {Value::of_int(10)});
    EXPECT_GE(system->metrics().counter("adapt.invalidations").value(), 2u);

    // The next read on each reader refreshes from the primary first.
    EXPECT_EQ(system->call_static(2, "Table", "lookup", "()I").as_int(), 14);
    EXPECT_EQ(system->call_static(1, "Table", "lookup", "()I").as_int(), 14);
    EXPECT_GE(system->metrics().counter("adapt.replica_refreshes").value(), 2u);
}

TEST(Replica, MigrationDropsTheMovedPrimarysCopies) {
    model::ClassPool pool;
    auto system = make_system(pool);
    system->call_static(1, "Table", "seed", "(II)V",
                        {Value::of_int(3), Value::of_int(4)});
    const auto [home, oid] = system->find_singleton("Table");
    ASSERT_EQ(home, 0);

    system->create_replica(0, oid, "Table", 1);
    ASSERT_TRUE(system->replicas().has_replicas(0, oid));
    EXPECT_EQ(system->call_static(1, "Table", "lookup", "()I").as_int(), 7);

    // The barrier: the primary moved, its copies' provenance is gone.
    system->migrate_singleton("Table", 2);
    EXPECT_FALSE(system->replicas().has_replicas(0, oid));
    EXPECT_EQ(system->call_static(1, "Table", "lookup", "()I").as_int(), 7);
}

TEST(Replica, LocalDiscoverOnTheHomeInvalidatesConservatively) {
    model::ClassPool pool;
    auto system = make_system(pool);
    system->call_static(1, "Table", "seed", "(II)V",
                        {Value::of_int(3), Value::of_int(4)});
    const auto [home, oid] = system->find_singleton("Table");
    ASSERT_EQ(home, 0);
    system->create_replica(0, oid, "Table", 1);
    EXPECT_EQ(system->call_static(1, "Table", "lookup", "()I").as_int(), 7);

    // A raw local reference escapes the seam on the home node and writes
    // through it.  The middleware cannot intercept the write itself — the
    // discover is the signal, and it must be enough.
    system->call_static(0, "Table", "update", "(I)V", {Value::of_int(9)});
    EXPECT_GE(system->metrics().counter("adapt.invalidations").value(), 1u);

    // The reader's next lookup refreshes and sees the local write.
    EXPECT_EQ(system->call_static(1, "Table", "lookup", "()I").as_int(), 13);
    EXPECT_GE(system->metrics().counter("adapt.replica_refreshes").value(), 1u);
}

/// Redirects std::clog into a string for the scope of a test.
class ClogCapture {
public:
    ClogCapture() : old_(std::clog.rdbuf(buffer_.rdbuf())) {}
    ~ClogCapture() { std::clog.rdbuf(old_); }
    std::string str() const { return buffer_.str(); }

private:
    std::ostringstream buffer_;
    std::streambuf* old_;
};

TEST(Replica, LogLinesCarryTheFurthestNodeClock) {
    model::ClassPool pool;
    auto system = make_system(pool);
    system->call_static(1, "Table", "seed", "(II)V",
                        {Value::of_int(3), Value::of_int(4)});
    const auto [home, oid] = system->find_singleton("Table");
    ASSERT_EQ(home, 0);
    // A bystander runs ahead; replication is no barrier, so it stays the
    // furthest clock while only the reader reconciles.
    system->node(2).advance_clock(50'000);

    set_log_level(LogLevel::Info);
    std::string line;
    {
        ClogCapture capture;
        system->create_replica(0, oid, "Table", 1);
        line = capture.str();
    }
    set_log_level(LogLevel::Off);

    std::uint64_t furthest = 0;
    for (net::NodeId n = 0; n < 3; ++n)
        furthest = std::max(furthest, system->node(n).clock_us());
    EXPECT_EQ(furthest, system->node(2).clock_us());
    EXPECT_LT(system->node(1).clock_us(), furthest);
    EXPECT_EQ(line, "[INFO ] [t=" + std::to_string(furthest) +
                        "us] [runtime] replicated Table (0," + std::to_string(oid) +
                        ") -> node 1\n");
}

/// Read-mostly like Table, but its state holds an array, which
/// Node::export_value refuses to ship: create_replica throws for it.
constexpr const char* kArrayApp = R"(
class Ring {
  static field slots [I
  static method seed (I)V {
    const 4
    newarray I
    putstatic Ring.slots [I
    getstatic Ring.slots [I
    const 0
    load 0
    astore
    return
  }
  static method lookup ()I {
    getstatic Ring.slots [I
    const 0
    aload
    returnvalue
  }
}
)";

struct VetoOutcome {
    std::vector<std::int32_t> results;
    std::uint64_t replications = 0;
    std::size_t decisions = 0;
    std::uint64_t faults = 0;
    std::pair<net::NodeId, vm::ObjId> home_before{-1, 0};
    std::pair<net::NodeId, vm::ObjId> home_after{-1, 0};
    std::string log;
};

/// Ring's singleton on node 0, seeded from node 1.  Readers on nodes 1
/// and 2 make 20 `lookup` calls each; with `writes`, node 1 instead makes
/// 30 `seed` calls, a write-heavy window the engine would migrate.
VetoOutcome run_ring(bool adapt, bool writes) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kArrayApp);
    model::verify_pool(pool);
    SystemOptions options;
    options.network_seed = 23;
    options.default_link = net::LinkParams{20, 0.0, 0.0};
    System system(pool, options);
    for (int n = 0; n < 3; ++n) system.add_node();
    system.policy().set_singleton_home("Ring", 0, "RMI");
    if (adapt) system.enable_adaptation(replicate_policy());
    system.call_static(1, "Ring", "seed", "(I)V", {Value::of_int(7)});

    VetoOutcome out;
    out.home_before = system.find_singleton("Ring");
    WorkloadDriver driver(system);
    if (writes) {
        driver.add_client(1, 30, [](System& sys, net::NodeId node) {
            sys.call_static(node, "Ring", "seed", "(I)V", {Value::of_int(9)});
        });
    } else {
        auto reader = [&out](System& sys, net::NodeId node) {
            out.results.push_back(sys.call_static(node, "Ring", "lookup", "()I").as_int());
        };
        driver.add_client(1, 20, reader);
        driver.add_client(2, 20, reader);
    }
    set_log_level(LogLevel::Info);
    {
        ClogCapture capture;
        out.faults = driver.run().faults;
        out.log = capture.str();
    }
    set_log_level(LogLevel::Off);
    out.home_after = system.find_singleton("Ring");
    if (writes) out.results.push_back(system.call_static(2, "Ring", "lookup", "()I").as_int());
    out.replications = system.metrics().counter("adapt.replications").value();
    if (adapt) out.decisions = system.adaptation()->decisions().size();
    return out;
}

TEST(Replica, UnshippableStateVetoesReplicationOnce) {
    const VetoOutcome off = run_ring(false, false);
    const VetoOutcome on = run_ring(true, false);

    // The engine tried once and logged the veto.  Later ticks neither
    // retry nor migrate the class instead: a migration would ship the
    // same state.
    const std::string veto = "class Ring is not replicable";
    const std::size_t first = on.log.find(veto);
    ASSERT_NE(first, std::string::npos) << on.log;
    EXPECT_EQ(on.log.find(veto, first + 1), std::string::npos) << on.log;
    EXPECT_EQ(on.decisions, 0u);
    EXPECT_EQ(on.replications, 0u);

    // Every reader still got the truth, exactly as with the engine off.
    EXPECT_EQ(on.results, off.results);
    EXPECT_EQ(on.results, std::vector<std::int32_t>(40, 7));
}

TEST(Replica, UnshippableStateVetoesMigrationOnce) {
    // A write-heavy window skips the replication tier, so the first time
    // the engine meets Ring's array is in a migration to node 1.  That
    // migration must fail before anything moves: the run completes, the
    // singleton stays on node 0 where its instance is, and the class is
    // vetoed with one log line instead of failing at every tick.
    const VetoOutcome on = run_ring(true, true);
    EXPECT_EQ(on.faults, 0u);
    EXPECT_EQ(on.home_before.first, 0);
    EXPECT_EQ(on.home_after, on.home_before);
    const std::string veto = "class Ring is not migratable";
    const std::size_t first = on.log.find(veto);
    ASSERT_NE(first, std::string::npos) << on.log;
    EXPECT_EQ(on.log.find(veto, first + 1), std::string::npos) << on.log;
    EXPECT_EQ(on.decisions, 0u);
    // The last write is what a reader elsewhere sees.
    EXPECT_EQ(on.results, std::vector<std::int32_t>{9});
}

}  // namespace
}  // namespace rafda::runtime
