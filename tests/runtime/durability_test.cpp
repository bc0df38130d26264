// Durable nodes end to end (DESIGN.md §20).  The invariants under test:
//
//   - an in-place restart replays the WAL: the recovered node resumes
//     with its pre-crash heap *and* reply cache, so a duplicate request
//     dedup-hits instead of re-executing (exactly-once survives the
//     crash it used to die on — contrast CrashFailsFastAndRestart-
//     LosesReplyCache in reliable_rpc_test.cpp);
//   - inline caches warmed in one incarnation never validate in the
//     next: a hot call path across crash/restart stays correct;
//   - migration-by-recovery rebuilds a crashed node's objects on a
//     *different* live node with identical per-call results, is
//     idempotent per crash, and chains through the crashed node's own
//     eventual restart;
//   - the adaptation engine uses it as a defer-free path around crash
//     windows (Action::Recover), with exactly-once preserved;
//   - durable off is provably inert: no wal.* counters even exist.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"
#include "support/error.hpp"
#include "transform/naming.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using vm::Value;

constexpr const char* kApp = R"(
class Service {
  field calls I
  ctor ()V {
    return
  }
  method work (I)I {
    load 0
    load 0
    getfield Service.calls I
    const 1
    add
    putfield Service.calls I
    load 1
    const 2
    mul
    returnvalue
  }
  method calls ()I {
    load 0
    getfield Service.calls I
    returnvalue
  }
}
class Counter {
  static field total I
  static method bump (I)I {
    getstatic Counter.total I
    load 0
    add
    dup
    putstatic Counter.total I
    returnvalue
  }
  static method total ()I {
    getstatic Counter.total I
    returnvalue
  }
}
)";

struct DurableFixture : ::testing::Test {
    model::ClassPool original;
    std::unique_ptr<System> system;

    void SetUp() override { make_system(/*durable=*/true); }

    void make_system(bool durable) {
        original = model::ClassPool();
        vm::install_prelude(original);
        model::assemble_into(original, kApp);
        model::verify_pool(original);
        SystemOptions options;
        options.durability.enabled = durable;
        system = std::make_unique<System>(original, options);
        system->add_node();  // 0: client
        system->add_node();  // 1: server (crashes)
        system->add_node();  // 2: recovery target
        system->policy().set_instance_home("Service", 1, "RMI");
        system->policy().set_singleton_home("Counter", 1, "RMI");
    }

    std::uint64_t counter(const std::string& name) {
        return system->metrics().counter(name).value();
    }

    void crash_window(net::NodeId node, std::uint64_t from, std::uint64_t until) {
        net::FaultWindow w;
        w.kind = net::FaultKind::NodeCrash;
        w.node = node;
        w.from_us = from;
        w.until_us = until;
        system->network().fault_plan().add(w);
    }

    net::CallReply send_create(std::uint64_t request_id) {
        net::CallRequest req;
        req.kind = net::RequestKind::Create;
        req.cls = "Service";
        req.request_id = request_id;
        req.src_node = 0;
        RpcPath& path = system->rpc_path();
        return path.rpc(0, 1, path.protocol("RMI"), req);
    }
};

TEST_F(DurableFixture, RestartReplaysHeapAndReplyCache) {
    system->rpc_path().reliability().dedup = true;

    Value svc = system->construct(0, "Service", "()V");
    EXPECT_EQ(system->node(0)
                  .interp()
                  .call_virtual(svc, "work", "(I)I", {Value::of_int(21)})
                  .as_int(),
              42);
    send_create(900);
    send_create(900);  // cache answers
    EXPECT_EQ(counter("rpc.dedup_hits"), 1u);
    const std::size_t heap_before = system->node(1).interp().heap().size();

    // Crash and restart the server.  The first request to arrive after
    // the window replays the WAL before being handled.
    const std::uint64_t t0 = system->node(0).clock_us();
    crash_window(1, t0, t0 + 100);
    system->node(0).advance_clock(200);
    send_create(900);

    // Soft-state behaviour was: cache gone, re-execute, heap grows.
    // Durable behaviour: the recovered cache answers the duplicate.
    EXPECT_EQ(counter("rpc.dedup_hits"), 2u);
    EXPECT_EQ(system->node(1).interp().heap().size(), heap_before);
    EXPECT_EQ(system->node(1).wal()->stats().recoveries, 1u);
    EXPECT_GT(counter("wal.replayed_records"), 0u);
    EXPECT_EQ(counter("wal.recoveries"), 1u);

    // Instance state replayed too: the pre-crash work() call is still
    // counted, and the object remains live and callable.
    EXPECT_EQ(system->node(0).interp().call_virtual(svc, "calls", "()I").as_int(),
              1);
    EXPECT_EQ(system->node(0)
                  .interp()
                  .call_virtual(svc, "work", "(I)I", {Value::of_int(5)})
                  .as_int(),
              10);
}

TEST_F(DurableFixture, InlineCachesNeverLeakAcrossIncarnations) {
    // Satellite regression: PR 2's inline caches memoize dispatch/field
    // lookups per call site.  A restart rebuilds the interpreter's tables
    // at new addresses; a site warmed pre-crash must re-validate, not
    // reuse its stale pointers.  The incarnation counter folds into
    // cache_gen() so every pre-crash site misses once and re-warms.
    auto bump = [&](int by) {
        return system
            ->call_static(0, "Counter", "bump", "(I)I", {Value::of_int(by)})
            .as_int();
    };
    int total = 0;
    for (int k = 0; k < 8; ++k) total = bump(1);  // hot: sites warm on node 1
    EXPECT_EQ(total, 8);

    const std::uint64_t t0 = system->node(0).clock_us();
    crash_window(1, t0, t0 + 100);
    system->node(0).advance_clock(200);

    // Recovered static state + fresh caches: the count continues exactly.
    EXPECT_EQ(bump(1), 9);
    EXPECT_EQ(bump(1), 10);
    EXPECT_EQ(system->call_static(0, "Counter", "total", "()I").as_int(), 10);
    EXPECT_EQ(system->node(1).wal()->stats().recoveries, 1u);
}

TEST_F(DurableFixture, MigrationByRecoveryMatchesUncrashedResults) {
    // Baseline: the same call sequence against a server that never
    // crashes.
    std::vector<std::int32_t> baseline;
    {
        Value svc = system->construct(0, "Service", "()V");
        for (int k = 1; k <= 3; ++k)
            baseline.push_back(system->node(0)
                                   .interp()
                                   .call_virtual(svc, "work", "(I)I",
                                                 {Value::of_int(k)})
                                   .as_int());
        baseline.push_back(
            system->node(0).interp().call_virtual(svc, "calls", "()I").as_int());
    }

    make_system(/*durable=*/true);
    Value svc = system->construct(0, "Service", "()V");
    std::vector<std::int32_t> observed;
    for (int k = 1; k <= 2; ++k)
        observed.push_back(
            system->node(0)
                .interp()
                .call_virtual(svc, "work", "(I)I", {Value::of_int(k)})
                .as_int());

    // The server dies for good (as far as this run is concerned); its
    // image is rebuilt on node 2 from the WAL.
    crash_window(1, system->node(0).clock_us(), ~0ULL);
    const std::size_t restored = system->recover_node_onto(1, 2);
    EXPECT_GT(restored, 0u);
    ASSERT_NE(system->relocation_of(1), nullptr);
    EXPECT_EQ(system->relocation_of(1)->target, 2);
    EXPECT_EQ(counter("wal.relocated_objects"), restored);

    // Idempotent per crash: a second sweep re-materializes nothing.
    EXPECT_EQ(system->recover_node_onto(1, 2), 0u);

    // The client's proxy was repointed; the remaining calls land on node
    // 2 and continue the instance state exactly where the crash cut it.
    observed.push_back(system->node(0)
                           .interp()
                           .call_virtual(svc, "work", "(I)I", {Value::of_int(3)})
                           .as_int());
    observed.push_back(
        system->node(0).interp().call_virtual(svc, "calls", "()I").as_int());
    EXPECT_EQ(observed, baseline);
}

TEST_F(DurableFixture, RelocationChainsThroughTheCrashedNodesRestart) {
    system->rpc_path().reliability().dedup = true;
    Value svc = system->construct(0, "Service", "()V");
    system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(1)});

    const std::uint64_t t0 = system->node(0).clock_us();
    crash_window(1, t0, t0 + 1'000);
    ASSERT_GT(system->recover_node_onto(1, 2), 0u);
    ASSERT_NE(system->relocation_of(1), nullptr);

    // When node 1 itself restarts, replaying its WAL applies the Relocate
    // records: its copies become proxies to node 2, it is a live
    // forwarder again, and the relocation bookkeeping clears.
    system->node(0).advance_clock(2'000);
    send_create(77);  // any arrival triggers the restart replay
    EXPECT_EQ(system->relocation_of(1), nullptr);
    EXPECT_EQ(system->node(1).wal()->stats().recoveries, 1u);

    // The object stays singular: calls through the original proxy reach
    // the one relocated instance, wherever the route enters.
    EXPECT_EQ(system->node(0).interp().call_virtual(svc, "calls", "()I").as_int(),
              1);
    EXPECT_EQ(system->node(0)
                  .interp()
                  .call_virtual(svc, "work", "(I)I", {Value::of_int(4)})
                  .as_int(),
              8);
    EXPECT_EQ(system->node(0).interp().call_virtual(svc, "calls", "()I").as_int(),
              2);
}

TEST_F(DurableFixture, DurableOffRegistersNothing) {
    make_system(/*durable=*/false);
    EXPECT_FALSE(system->durability_enabled());
    for (net::NodeId n = 0; n < 3; ++n)
        EXPECT_FALSE(system->node(n).durable());

    Value svc = system->construct(0, "Service", "()V");
    system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(1)});

    bool wal_counters = false;
    system->metrics().visit_counters([&](const std::string& name, std::uint64_t) {
        if (name.rfind("wal.", 0) == 0) wal_counters = true;
    });
    EXPECT_FALSE(wal_counters);
}

TEST_F(DurableFixture, RestartWithDedupCapacityZeroCachesNothing) {
    // Regression: replaying Reply records after the capacity dropped to 0
    // ran cache_reply's eviction loop on an empty queue (front/pop_front
    // on an empty deque).  Replay must cache nothing instead.
    system->rpc_path().reliability().dedup = true;
    send_create(900);
    send_create(901);
    const std::size_t heap_before = system->node(1).interp().heap().size();

    system->rpc_path().reliability().dedup_capacity = 0;
    const std::uint64_t t0 = system->node(0).clock_us();
    crash_window(1, t0, t0 + 100);
    system->node(0).advance_clock(200);
    send_create(900);  // triggers the restart replay; capacity 0 = no dedup
    EXPECT_EQ(system->node(1).wal()->stats().recoveries, 1u);
    EXPECT_EQ(counter("rpc.dedup_hits"), 0u);
    EXPECT_GT(system->node(1).interp().heap().size(), heap_before);

    // With the capacity back, the restart's empty cache shows: 901
    // re-executes once, then dedups as usual.
    system->rpc_path().reliability().dedup_capacity = 1024;
    send_create(901);
    EXPECT_EQ(counter("rpc.dedup_hits"), 0u);
    send_create(901);
    EXPECT_EQ(counter("rpc.dedup_hits"), 1u);
}

/// (request id, reply) pairs a stream decodes to, in stream order.
std::vector<std::pair<std::uint64_t, net::CallReply>> decode_replies(const Bytes& stream) {
    WalImage img;
    EXPECT_TRUE(Wal::replay(stream, img).clean);
    return img.replies;
}

TEST_F(DurableFixture, CheckpointTrimsTheReplyStreamAndIsRebuiltByRestart) {
    // A checkpoint copies no cached reply: it writes heap state only and
    // drops the reply-stream records the FIFO cache has evicted, leaving
    // exactly the cache.  The oracle is a FIFO of the same capacity fed
    // the untrimmed stream.
    constexpr std::size_t kCapacity = 48;
    system->rpc_path().reliability().dedup = true;
    system->rpc_path().reliability().dedup_capacity = kCapacity;  // FIFO eviction churns
    Value svc = system->construct(0, "Service", "()V");
    for (int k = 0; k < 120; ++k) {
        system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(k)});
        send_create(5000 + static_cast<std::uint64_t>(k / 2));  // every other one dedups
    }
    EXPECT_EQ(counter("rpc.dedup_hits"), 60u);

    Node& server = system->node(1);
    std::vector<std::pair<std::uint64_t, net::CallReply>> fifo;
    for (const auto& entry : decode_replies(server.wal()->replies())) {
        const auto same_id = [&](const auto& e) { return e.first == entry.first; };
        if (std::any_of(fifo.begin(), fifo.end(), same_id)) continue;
        if (fifo.size() == kCapacity) fifo.erase(fifo.begin());
        fifo.push_back(entry);
    }
    ASSERT_EQ(fifo.size(), kCapacity);
    const Bytes untrimmed = server.wal()->replies();

    server.take_snapshot();
    EXPECT_TRUE(decode_replies(server.wal()->snapshot()).empty());
    EXPECT_EQ(decode_replies(server.wal()->replies()), fifo);
    const Bytes& stream = server.wal()->replies();
    EXPECT_TRUE(std::equal(stream.rbegin(), stream.rend(), untrimmed.rbegin()));

    // Crash and restart in place with no calls in between: replay rebuilds
    // the same cache, so the next checkpoint writes the same snapshot and
    // trims nothing.
    const Bytes checkpoint = server.wal()->snapshot();
    const Bytes replies = server.wal()->replies();
    server.apply_restarts(1);
    ASSERT_EQ(server.wal()->stats().recoveries, 1u);
    server.take_snapshot();
    EXPECT_EQ(server.wal()->snapshot(), checkpoint);
    EXPECT_EQ(server.wal()->replies(), replies);

    // The rebuilt cache answers every Create it holds without executing it.
    std::uint64_t hits = counter("rpc.dedup_hits");
    for (const auto& [id, reply] : fifo) {
        if (id < 5000 || id >= 5060) continue;  // a work() call
        EXPECT_EQ(send_create(id).result.ref_oid, reply.result.ref_oid) << id;
        EXPECT_EQ(counter("rpc.dedup_hits"), ++hits) << id;
    }
}

TEST_F(DurableFixture, ReexecutedEvictedIdReplaysIntoTheSameCache) {
    // Request 1 is evicted, then executed and cached again: its second
    // Reply record follows the eviction, so a restart's replay evicts the
    // first copy the same way and keeps the second reply.
    system->rpc_path().reliability().dedup = true;
    system->rpc_path().reliability().dedup_capacity = 2;
    send_create(1);
    send_create(2);
    send_create(3);                               // evicts 1
    const net::CallReply again = send_create(1);  // re-executes; evicts 2
    EXPECT_EQ(counter("rpc.dedup_hits"), 0u);
    Node& server = system->node(1);
    const auto stream = decode_replies(server.wal()->replies());
    ASSERT_EQ(stream.size(), 4u);
    EXPECT_EQ(stream.back().first, 1u);

    server.take_snapshot();
    const auto trimmed = decode_replies(server.wal()->replies());
    ASSERT_EQ(trimmed.size(), 2u);
    EXPECT_EQ(trimmed[0].first, 3u);
    EXPECT_EQ(trimmed[1].first, 1u);

    server.apply_restarts(1);
    ASSERT_EQ(server.wal()->stats().recoveries, 1u);
    EXPECT_EQ(send_create(1).result.ref_oid, again.result.ref_oid);
    EXPECT_FALSE(send_create(3).is_fault);
    EXPECT_EQ(counter("rpc.dedup_hits"), 2u);
    send_create(2);  // evicted before the restart: executes again
    EXPECT_EQ(counter("rpc.dedup_hits"), 2u);
}

TEST_F(DurableFixture, DurabilitySwitchedOnLaterEncodesTheCachedReplies) {
    // Replies cached while the node was volatile enter the reply stream
    // when durability comes on: durable at once, before any checkpoint.
    make_system(/*durable=*/false);
    system->rpc_path().reliability().dedup = true;
    for (std::uint64_t id = 700; id < 710; ++id) send_create(id);
    system->enable_durability(DurabilityPolicy{});

    Node& server = system->node(1);
    EXPECT_TRUE(server.wal()->snapshot().empty());
    EXPECT_TRUE(server.wal()->log().empty());
    const auto stream = decode_replies(server.wal()->replies());
    ASSERT_EQ(stream.size(), 10u);
    for (std::uint64_t k = 0; k < 10; ++k) EXPECT_EQ(stream[k].first, 700 + k);
    EXPECT_EQ(server.wal()->stats().records, 10u);
    EXPECT_EQ(counter("wal.records"), 10u);
    EXPECT_EQ(counter("wal.bytes"), server.wal()->replies().size());
}

TEST_F(DurableFixture, ReEnablingDurabilityRetimesExistingNodesSnapshots) {
    // A second enable_durability changes the snapshot interval of the
    // nodes that already have a WAL, not only of nodes added later: every
    // node checks the System's one policy.
    Value svc = system->construct(0, "Service", "()V");
    Node& server = system->node(1);
    const std::uint64_t t0 = server.clock_us();
    DurabilityPolicy often;
    often.snapshot_interval_us = 500;
    system->enable_durability(often);
    for (int k = 0; k < 40; ++k)
        system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(k)});
    const std::uint64_t elapsed = server.clock_us() - t0;
    // The construction-time interval (10,000 us) would have taken none.
    ASSERT_LT(elapsed, 10'000u);
    EXPECT_GE(server.wal()->stats().snapshots, elapsed / 1'000);
    EXPECT_GT(server.wal()->stats().snapshots, 0u);
}

TEST_F(DurableFixture, RecoveryRejectsARecordNamingAnUnallocatedObject) {
    // A CRC-valid log whose FieldPut names an object the image never
    // allocated: both readers of a durable image reject it while decoding,
    // before the node they would restore onto is touched.
    Wal& log = *system->node(1).wal();
    ASSERT_TRUE(log.empty());
    log.append_alloc(0, transform::naming::o_local("Service"));
    log.append_field_put(0, 7, 0, Value::of_int(1));
    crash_window(1, 0, ~0ULL);

    const std::size_t target_heap = system->node(2).interp().heap().size();
    EXPECT_THROW(system->recover_node_onto(1, 2), CodecError);
    EXPECT_EQ(system->node(2).interp().heap().size(), target_heap);
    EXPECT_EQ(system->relocation_of(1), nullptr);

    const std::size_t own_heap = system->node(1).interp().heap().size();
    EXPECT_THROW(system->node(1).apply_restarts(1), CodecError);
    EXPECT_EQ(system->node(1).interp().heap().size(), own_heap);
}

// ---- one decoder, two restores: restart and migration-by-recovery --------

constexpr const char* kImageApp = R"(
class Peer {
  field n I
  ctor ()V {
    return
  }
}
class Service {
  field calls I
  field peer LService;
  field other LPeer;
  field buf [I
  ctor ()V {
    return
  }
  method work (I)I {
    load 0
    load 0
    getfield Service.calls I
    load 1
    add
    putfield Service.calls I
    load 1
    returnvalue
  }
  method link (LService;)V {
    load 0
    load 1
    putfield Service.peer LService;
    return
  }
  method attach (LPeer;)V {
    load 0
    load 1
    putfield Service.other LPeer;
    return
  }
  method fill (I)V {
    load 0
    load 1
    newarray I
    putfield Service.buf [I
    load 0
    getfield Service.buf [I
    const 0
    load 1
    astore
    return
  }
}
class Counter {
  static field total I
  static method bump (I)I {
    getstatic Counter.total I
    load 0
    add
    dup
    putstatic Counter.total I
    returnvalue
  }
}
special class Tally {
  static field hits I
  static method hit ()I {
    getstatic Tally.hits I
    const 1
    add
    dup
    putstatic Tally.hits I
    returnvalue
  }
}
)";

/// A three-node system whose durable node 1 holds every kind of state a
/// WAL records: objects with reference fields, an array, statics, an
/// initialised class, a slot transmuted into a proxy by a migration, a
/// singleton, an imported proxy and cached replies.  Node 1 never
/// snapshots, so its whole history is in the log.
struct ImageSystem {
    model::ClassPool original;
    std::unique_ptr<System> system;

    ImageSystem() {
        vm::install_prelude(original);
        model::assemble_into(original, kImageApp);
        model::verify_pool(original);
        SystemOptions options;
        options.durability.enabled = true;
        options.durability.snapshot_interval_us = 0;
        system = std::make_unique<System>(original, options);
        for (int k = 0; k < 3; ++k) system->add_node();
        system->policy().set_instance_home("Service", 1, "RMI");
        system->policy().set_singleton_home("Counter", 1, "RMI");
        system->rpc_path().reliability().dedup = true;

        vm::Interpreter& client = system->node(0).interp();
        const Value a = system->construct(0, "Service", "()V");
        const Value b = system->construct(0, "Service", "()V");
        const Value moved = system->construct(0, "Service", "()V");
        const Value peer = system->construct(0, "Peer", "()V");  // lives on node 0
        client.call_virtual(a, "work", "(I)I", {Value::of_int(5)});
        client.call_virtual(a, "link", "(LService_O_Int;)V", {b});
        client.call_virtual(a, "attach", "(LPeer_O_Int;)V", {peer});
        client.call_virtual(b, "fill", "(I)V", {Value::of_int(3)});
        system->call_static(0, "Counter", "bump", "(I)I", {Value::of_int(4)});
        system->node(1).interp().call_static("Tally", "hit", "()I");
        const vm::ObjId moved_oid = system->node(0).proxy_target(moved.as_ref()).second;
        system->migrate_instance(1, moved_oid, 2, "RMI");
        client.call_virtual(b, "work", "(I)I", {Value::of_int(2)});
    }

    /// Node `n`'s live state as a checkpoint decodes it, leaving its WAL
    /// exactly as it was.
    WalImage live(net::NodeId n) {
        Wal& wal = *system->node(n).wal();
        const Wal before = wal;
        system->node(n).take_snapshot();
        WalImage img;
        EXPECT_TRUE(Wal::replay(wal.snapshot(), img).clean);
        EXPECT_TRUE(Wal::replay(wal.replies(), img).clean);
        wal = before;
        return img;
    }
};

void expect_same_objects(const std::vector<WalImage::Object>& want,
                         const std::vector<WalImage::Object>& got, vm::ObjId base) {
    ASSERT_EQ(got.size(), base + want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const WalImage::Object& w = want[i];
        const WalImage::Object& g = got[base + i];
        SCOPED_TRACE("object " + std::to_string(i + 1) + " (" + w.cls + ")");
        EXPECT_EQ(g.is_array, w.is_array);
        EXPECT_EQ(g.cls, w.cls);
        EXPECT_EQ(g.length, w.length);
        ASSERT_EQ(g.fields.size(), w.fields.size());
        for (const auto& [slot, v] : w.fields)
            EXPECT_EQ(g.fields.at(slot), v.is_ref() ? Value::of_ref(base + v.as_ref()) : v)
                << "slot " << slot;
    }
}

TEST(RestoreEquivalence, RestartReproducesTheWholeImage) {
    ImageSystem s;
    const WalImage before = s.live(1);
    ASSERT_FALSE(s.system->node(1).wal()->log().empty());
    ASSERT_TRUE(s.system->node(1).wal()->snapshot().empty());
    // The image holds every kind of state the restore must reproduce.
    const auto has = [&](auto pred) {
        return std::any_of(before.objects.begin(), before.objects.end(), pred);
    };
    EXPECT_TRUE(has([](const WalImage::Object& o) { return o.is_array; }));
    EXPECT_TRUE(has([](const WalImage::Object& o) {
        return transform::naming::parse_proxy(o.cls) &&
               o.fields.at(0) == Value::of_int(2);  // the migrated slot
    }));
    EXPECT_TRUE(has([](const WalImage::Object& o) {
        return transform::naming::parse_proxy(o.cls) &&
               o.fields.at(0) == Value::of_int(0);  // the imported Peer
    }));
    EXPECT_FALSE(before.statics.empty());
    EXPECT_TRUE(before.initialized.count("Tally"));
    EXPECT_TRUE(before.singletons.count("Counter"));
    EXPECT_FALSE(before.imports.empty());
    EXPECT_GE(before.replies.size(), 8u);

    s.system->node(1).apply_restarts(1);
    ASSERT_EQ(s.system->node(1).wal()->stats().recoveries, 1u);
    const WalImage after = s.live(1);
    expect_same_objects(before.objects, after.objects, 0);
    EXPECT_EQ(after.statics, before.statics);
    EXPECT_EQ(after.initialized, before.initialized);
    EXPECT_EQ(after.singletons, before.singletons);
    EXPECT_EQ(after.imports, before.imports);
    EXPECT_EQ(after.replies, before.replies);  // same entries, same FIFO order
}

TEST(RestoreEquivalence, RecoveryOntoAnotherNodeShiftsEveryObjectByTheBase) {
    for (const bool empty_target : {true, false}) {
        SCOPED_TRACE(empty_target ? "empty target" : "target holding one object");
        ImageSystem s;
        // Node 2 already holds the migrated object; a fresh node 3 starts
        // empty, and one Peer makes it non-empty.
        Node& target = s.system->add_node();
        if (!empty_target) s.system->construct(target.id(), "Peer", "()V");
        const vm::ObjId base = target.interp().heap().size();
        EXPECT_EQ(base, empty_target ? 0u : 1u);

        const WalImage crashed = s.live(1);
        net::FaultWindow crash;
        crash.kind = net::FaultKind::NodeCrash;
        crash.node = 1;
        crash.until_us = ~0ULL;
        s.system->network().fault_plan().add(crash);
        EXPECT_EQ(s.system->recover_node_onto(1, target.id()), crashed.objects.size());
        expect_same_objects(crashed.objects, s.live(target.id()).objects, base);
        for (vm::ObjId old = 1; old <= crashed.objects.size(); ++old)
            EXPECT_EQ(s.system->relocation_of(1)->remap.at(old), base + old);
    }
}

// ---- restarts: one per crash window, whoever sees it first ------------

struct RestartTrace {
    std::vector<std::uint64_t> starts;           // each task's event time
    std::vector<std::uint64_t> recoveries_at;    // wal.recoveries at its start
    std::vector<std::uint64_t> recoveries_after; // ... and at its end
    std::uint64_t recoveries = 0;
    std::uint64_t faults = 0;
    std::int32_t calls = 0;  // the Service's own count after the run
};

/// Node 1 makes 16 work() calls to a Service homed on `target` over
/// 300 µs links.  Node 0 is durable like every node and holds the Counter
/// singleton; `crash`, when set, is a NodeCrash window for it.
RestartTrace run_restart_trace(net::NodeId target, const net::FaultWindow* crash) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);
    SystemOptions options;
    options.default_link = net::LinkParams{300, 0.0, 0.0};
    options.durability.enabled = true;
    System system(pool, options);
    for (int k = 0; k < 3; ++k) system.add_node();
    system.policy().set_singleton_home("Counter", 0, "RMI");
    system.policy().set_instance_home("Service", target, "RMI");
    system.call_static(0, "Counter", "bump", "(I)I", {vm::Value::of_int(1)});
    Value svc = system.construct(1, "Service", "()V");
    if (crash) system.network().fault_plan().add(*crash);

    RestartTrace t;
    obs::Counter& recoveries = system.metrics().counter("wal.recoveries");
    WorkloadDriver driver(system);
    driver.add_client(1, 16, [&t, &recoveries, svc](System& sys, net::NodeId node) {
        t.starts.push_back(sys.node(node).clock_us());
        t.recoveries_at.push_back(recoveries.value());
        sys.node(node).interp().call_virtual(svc, "work", "(I)I", {vm::Value::of_int(1)});
        t.recoveries_after.push_back(recoveries.value());
    });
    t.faults = driver.run().faults;
    t.recoveries = recoveries.value();
    t.calls = system.node(1).interp().call_virtual(svc, "calls", "()I").as_int();
    return t;
}

net::FaultWindow node_crash(net::NodeId node, std::uint64_t from, std::uint64_t until) {
    net::FaultWindow w;
    w.kind = net::FaultKind::NodeCrash;
    w.node = node;
    w.from_us = from;
    w.until_us = until;
    return w;
}

TEST(DurableRestart, EachCrashWindowRestartsItsNodeOnce) {
    // Sweep first: node 0 is idle, so only the driver's sweep after each
    // event sees its window end.  It restarts the node after the first
    // event whose time reaches the window's end, never before, and once.
    const RestartTrace idle = run_restart_trace(2, nullptr);
    ASSERT_EQ(idle.starts.size(), 16u);
    net::FaultWindow w = node_crash(0, idle.starts[4] + 1, idle.starts[8]);
    const RestartTrace swept = run_restart_trace(2, &w);
    EXPECT_EQ(swept.starts, idle.starts);
    bool passed = false;
    for (std::size_t i = 0; i < swept.starts.size(); ++i) {
        EXPECT_EQ(swept.recoveries_at[i], passed ? 1u : 0u) << "task " << i;
        passed = passed || swept.starts[i] >= w.until_us;
    }
    EXPECT_TRUE(passed);
    EXPECT_EQ(swept.recoveries, 1u);
    EXPECT_EQ(swept.faults, 0u);

    // Arrival first: node 0 crashes and restarts while task 8's request
    // is on the 300 µs link, so the request's arrival restarts node 0
    // (from its WAL) while the event time is still before the window's
    // end.  The sweep then finds nothing new: one restart, and every call
    // counted once.
    const RestartTrace served = run_restart_trace(0, nullptr);
    ASSERT_EQ(served.starts.size(), 16u);
    const std::uint64_t s = served.starts[8];
    w = node_crash(0, s + 50, s + 250);
    const RestartTrace arrived = run_restart_trace(0, &w);
    ASSERT_EQ(arrived.starts.size(), 16u);
    EXPECT_EQ(arrived.starts[8], s);
    EXPECT_EQ(arrived.recoveries_at[8], 0u);
    EXPECT_EQ(arrived.recoveries_after[8], 1u);
    EXPECT_EQ(arrived.recoveries, 1u);
    EXPECT_EQ(arrived.faults, 0u);
    EXPECT_EQ(arrived.calls, 16);
}

// ---- the adaptation engine rides migration-by-recovery ----------------

struct EngineOutcome {
    std::uint64_t faults = 0;
    std::uint64_t recovers = 0;
    std::uint64_t in_window_recovers = 0;
    std::int32_t executions = 0;
    net::NodeId home = -1;
    net::NodeId recover_to = -1;
};

EngineOutcome run_engine_workload(bool durable) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);

    SystemOptions options;
    options.network_seed = 11;
    options.default_link = net::LinkParams{20, 0.0, 0.0};
    options.reliability.attempts = 16;
    options.reliability.backoff_base_us = 200;
    options.reliability.backoff_multiplier = 2.0;
    options.reliability.backoff_cap_us = 2'000;
    options.reliability.dedup = true;
    options.durability.enabled = durable;

    System system(pool, options);
    system.add_node();  // 0: singleton home — crashes mid-run
    system.add_node();  // 1: the dominant Counter caller, Service home
    system.add_node();  // 2: Service caller — its live 2<->1 traffic keeps
                        //    virtual time moving through the crash window
    system.policy().set_singleton_home("Counter", 0, "RMI");
    system.policy().set_instance_home("Service", 1, "RMI");

    AdaptPolicy eager;
    eager.interval_us = 600;
    eager.migrate_threshold_bytes = 64;
    eager.min_window_calls = 4;
    system.enable_adaptation(eager);

    // Warm-up before the crash: the Service proxy exists on node 2 and
    // node 1 is the dominant (sole) Counter caller — the source the engine
    // will pick as the recovery target.  This runs outside the driver so
    // the crash window can be anchored to the *measured* virtual time
    // afterwards; setup RPC costs never skew the window placement.  The
    // anchor is node 2's clock: node 2 is the driver's only client, so the
    // run (and its first heartbeat, one interval in) starts from it.
    Value svc = system.construct(2, "Service", "()V");
    for (int k = 0; k < 8; ++k)
        system.call_static(1, "Counter", "bump", "(I)I", {vm::Value::of_int(1)});
    const std::uint64_t t_start = system.node(2).clock_us();

    // The crash opens after the warm-up and closes before the Service
    // client's traffic runs out: no dispatched call ever straddles the
    // window, so the client's small steps (and the controller heartbeats
    // interleaved with them on the same virtual timeline) carry virtual
    // time *through* the window instead of one stalled retry loop
    // dragging it across in a single dispatch.  The first heartbeat fires
    // at t_start + interval, inside the window by construction.
    const std::uint64_t crash_from = t_start + 100;
    const std::uint64_t crash_until = t_start + 1'400;
    net::FaultWindow w;
    w.kind = net::FaultKind::NodeCrash;
    w.node = 0;
    w.from_us = crash_from;
    w.until_us = crash_until;
    system.network().fault_plan().add(w);

    WorkloadDriver driver(system);
    // Node 2: 40 Service calls span the whole window, then 12 more bumps
    // land after the in-window recovery has moved Counter off node 0 —
    // exactly-once across the relocation means all 20 bumps count once.
    std::vector<WorkloadDriver::Task> tasks;
    for (int i = 0; i < 40; ++i)
        tasks.push_back([svc](System& sys, net::NodeId node) {
            sys.node(node).interp().call_virtual(svc, "work", "(I)I",
                                                 {vm::Value::of_int(1)});
        });
    for (int i = 0; i < 12; ++i)
        tasks.push_back([](System& sys, net::NodeId node) {
            sys.call_static(node, "Counter", "bump", "(I)I",
                            {vm::Value::of_int(1)});
        });
    driver.add_client(2, tasks);
    WorkloadDriver::Report report = driver.run();

    EngineOutcome out;
    out.faults = report.faults;
    out.home = system.find_singleton("Counter").first;
    out.executions = system.call_static(1, "Counter", "total", "()I").as_int();
    for (const AdaptDecision& d : system.adaptation()->decisions()) {
        if (d.action != AdaptDecision::Action::Recover) continue;
        ++out.recovers;
        out.recover_to = d.to;
        if (d.t_us >= crash_from && d.t_us < crash_until)
            ++out.in_window_recovers;
    }
    return out;
}

TEST(DurableAdapt, EngineRecoversAroundTheCrashWindowExactlyOnce) {
    // Soft state never produces a Recover decision — there is no durable
    // image to rebuild from, so the crashed home's skew is handled by the
    // legacy paths alone.
    EngineOutcome soft = run_engine_workload(/*durable=*/false);
    EXPECT_EQ(soft.recovers, 0u);

    // Durable: a tick inside the crash window rebuilds the Counter
    // singleton on its dominant caller's node from the crashed home's WAL
    // — no defer, no waiting for the window to close — and the run
    // completes exactly-once: every bump counted, none double-counted.
    EngineOutcome durable = run_engine_workload(/*durable=*/true);
    EXPECT_GE(durable.recovers, 1u);
    EXPECT_GE(durable.in_window_recovers, 1u);
    EXPECT_EQ(durable.faults, 0u);
    // The recovery target is the dominant caller's node; the engine is
    // free to keep adapting afterwards, but the crashed node is never the
    // home again.
    EXPECT_EQ(durable.recover_to, 1);
    EXPECT_NE(durable.home, 0);
    EXPECT_EQ(durable.executions, 20);
}

}  // namespace
}  // namespace rafda::runtime
