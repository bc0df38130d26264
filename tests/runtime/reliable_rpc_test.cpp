// Reliable RPC (DESIGN.md §15): deterministic retry/backoff, per-call
// deadlines in virtual time, exactly-once upgrade via request-id dedup,
// circuit breakers, and scheduled node crashes.  The §12 caveat — at-most
// once is not exactly-once — is closed here end-to-end: a Create whose
// reply is lost must not leak an instance when the reply cache answers the
// retry, and a lost request must re-execute exactly once.
#include <gtest/gtest.h>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"
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
)";

struct ReliableFixture : ::testing::Test {
    model::ClassPool original;
    std::unique_ptr<System> system;

    void SetUp() override {
        vm::install_prelude(original);
        model::assemble_into(original, kApp);
        model::verify_pool(original);
        system = std::make_unique<System>(original);
        system->add_node();
        system->add_node();
        system->policy().set_instance_home("Service", 1, "RMI");
    }

    std::uint64_t counter(const std::string& name) {
        return system->metrics().counter(name).value();
    }

    /// Drop-everything window on the directed link, in absolute virtual time.
    void drop_window(net::NodeId src, net::NodeId dst, std::uint64_t from,
                     std::uint64_t until, double p = 1.0) {
        net::FaultWindow w;
        w.kind = net::FaultKind::DropRate;
        w.src = src;
        w.dst = dst;
        w.from_us = from;
        w.until_us = until;
        w.drop_probability = p;
        system->network().fault_plan().add(w);
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

TEST_F(ReliableFixture, RetryRecoversFromRequestLossAndExecutesOnce) {
    Value svc = system->construct(0, "Service", "()V");
    RetryPolicy& rp = system->rpc_path().reliability();
    rp.attempts = 5;
    rp.backoff_base_us = 200;

    // One window that eats exactly the first attempt's request: the retry
    // departs after reconcile (+latency) plus backoff, past the window.
    const std::uint64_t t0 = system->node(0).clock_us();
    drop_window(0, 1, t0, t0 + 150);

    Value out = system->node(0).interp().call_virtual(svc, "work", "(I)I",
                                                      {Value::of_int(21)});
    EXPECT_EQ(out.as_int(), 42);
    // The lost request never executed, so the retry re-executes exactly once.
    EXPECT_EQ(system->node(0).interp().call_virtual(svc, "calls", "()I").as_int(), 1);
    EXPECT_EQ(counter("rpc.retries"), 1u);
    EXPECT_EQ(counter("rpc.retries_reply_loss"), 0u);
    EXPECT_EQ(counter("rpc.dedup_hits"), 0u);
}

TEST_F(ReliableFixture, DedupClosesTheCreateReplyLossLeak) {
    // DESIGN.md §12: a Create whose *reply* is lost has already allocated
    // on the remote node; a naive retry would allocate again.  With dedup
    // on, the reply cache answers the retry and the heap gains exactly one
    // instance.
    RetryPolicy& rp = system->rpc_path().reliability();
    rp.attempts = 5;
    rp.backoff_base_us = 1000;
    rp.dedup = true;

    const std::size_t heap_before = system->node(1).interp().heap().size();
    const std::uint64_t t0 = system->node(0).clock_us();
    drop_window(1, 0, t0, t0 + 400);  // first reply lost, retried reply clears

    Value svc = system->construct(0, "Service", "()V");
    EXPECT_EQ(system->node(1).interp().heap().size(), heap_before + 1);
    EXPECT_EQ(counter("rpc.retries"), 1u);
    EXPECT_EQ(counter("rpc.retries_reply_loss"), 1u);
    EXPECT_EQ(counter("rpc.dedup_hits"), 1u);

    // The instance is live and usable (not a half-created orphan).
    EXPECT_EQ(system->node(0)
                  .interp()
                  .call_virtual(svc, "work", "(I)I", {Value::of_int(2)})
                  .as_int(),
              4);
}

TEST_F(ReliableFixture, IdempotencyKeySuppressesReExecution) {
    // The same request id sent twice executes once when dedup is on; with
    // dedup off the second send re-executes — the §12 leak made visible.
    system->rpc_path().reliability().dedup = true;
    const std::size_t heap_before = system->node(1).interp().heap().size();
    send_create(500);
    EXPECT_EQ(system->node(1).interp().heap().size(), heap_before + 1);
    send_create(500);  // simulated duplicate of the same logical call
    EXPECT_EQ(system->node(1).interp().heap().size(), heap_before + 1);
    EXPECT_EQ(counter("rpc.dedup_hits"), 1u);

    system->rpc_path().reliability().dedup = false;
    send_create(501);
    send_create(501);
    EXPECT_EQ(system->node(1).interp().heap().size(), heap_before + 3);  // leaked
    EXPECT_EQ(counter("rpc.dedup_hits"), 1u);
}

TEST_F(ReliableFixture, ReplyCacheIsBoundedFifo) {
    RetryPolicy& rp = system->rpc_path().reliability();
    rp.dedup = true;
    rp.dedup_capacity = 2;
    send_create(1);
    send_create(2);
    send_create(3);  // evicts request 1, oldest first
    const std::size_t heap = system->node(1).interp().heap().size();
    send_create(3);  // still cached
    EXPECT_EQ(counter("rpc.dedup_hits"), 1u);
    EXPECT_EQ(system->node(1).interp().heap().size(), heap);
    send_create(1);  // evicted: re-executes — the price of a bounded cache
    EXPECT_EQ(counter("rpc.dedup_hits"), 1u);
    EXPECT_EQ(system->node(1).interp().heap().size(), heap + 1);
}

TEST_F(ReliableFixture, ReplyLossWithoutDedupSurfacesImmediately) {
    // Retrying a reply-loss without dedup would re-execute, so the policy
    // surfaces it even with attempts to spare.
    system->rpc_path().reliability().attempts = 5;
    system->network().set_link(1, 0, net::LinkParams{100, 0.0, 1.0});
    try {
        send_create(7);
        FAIL() << "expected Dropped";
    } catch (const System::Dropped& d) {
        EXPECT_TRUE(d.executed_remotely);
        EXPECT_FALSE(d.fast_fail);
    }
    EXPECT_EQ(counter("rpc.retries"), 0u);
}

TEST_F(ReliableFixture, DeadlineExceededInVirtualTime) {
    Value svc = system->construct(0, "Service", "()V");
    RetryPolicy& rp = system->rpc_path().reliability();
    rp.attempts = 10;
    rp.backoff_base_us = 200;
    rp.deadline_us = 350;
    system->network().set_link(0, 1, net::LinkParams{100, 0.0, 1.0});
    try {
        system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(1)});
        FAIL() << "expected GuestException(RemoteFault)";
    } catch (const vm::GuestException& e) {
        EXPECT_EQ(e.class_name(), kRemoteFaultClass);
        EXPECT_NE(e.message().find("deadline exceeded"), std::string::npos)
            << e.message();
    }
    EXPECT_EQ(counter("rpc.timeouts"), 1u);
    EXPECT_LT(counter("rpc.retries"), 9u);  // gave up on the deadline, not the cap
}

TEST_F(ReliableFixture, ServerRefusesExpiredRequestWithoutExecuting) {
    system->rpc_path().reliability().dedup = true;
    const std::size_t heap_before = system->node(1).interp().heap().size();
    net::CallRequest req;
    req.kind = net::RequestKind::Create;
    req.cls = "Service";
    req.request_id = 600;
    req.src_node = 0;
    // Expires mid-flight: the link latency alone overshoots it.
    req.deadline_us = system->node(0).clock_us() + 50;
    RpcPath& path = system->rpc_path();
    net::CallReply reply = path.rpc(0, 1, path.protocol("RMI"), req);
    EXPECT_TRUE(reply.is_fault);
    EXPECT_EQ(reply.fault_class, kRemoteFaultClass);
    EXPECT_NE(reply.fault_msg.find("deadline expired"), std::string::npos);
    EXPECT_EQ(system->node(1).interp().heap().size(), heap_before);
    EXPECT_EQ(counter("rpc.timeouts"), 1u);

    // Expiry refusals are not cached: a later duplicate is judged afresh,
    // not answered with the stale refusal.
    net::CallRequest again;
    again.kind = net::RequestKind::Create;
    again.cls = "Service";
    again.request_id = 600;
    again.src_node = 0;
    net::CallReply second = path.rpc(0, 1, path.protocol("RMI"), again);
    EXPECT_FALSE(second.is_fault);
    EXPECT_EQ(counter("rpc.dedup_hits"), 0u);
}

TEST_F(ReliableFixture, BreakerOpensFailsFastAndRecovers) {
    RetryPolicy& rp = system->rpc_path().reliability();
    rp.breaker_threshold = 2;
    rp.breaker_cooldown_us = 5000;
    system->network().set_link(0, 1, net::LinkParams{100, 0.0, 1.0});

    EXPECT_THROW(send_create(1), System::Dropped);
    EXPECT_THROW(send_create(2), System::Dropped);

    auto breaker_state = [&] {
        CircuitBreaker::State s = CircuitBreaker::State::Closed;
        system->rpc_path().visit_breakers([&](net::NodeId dst, const std::string& proto,
                                   const CircuitBreaker& b) {
            if (dst == 1 && proto == "RMI") s = b.state;
        });
        return s;
    };
    EXPECT_EQ(breaker_state(), CircuitBreaker::State::Open);
    const obs::Snapshot open_snap = system->metrics().snapshot();
    ASSERT_NE(open_snap.find("rpc.breaker.1.RMI.state"), nullptr);
    EXPECT_EQ(open_snap.find("rpc.breaker.1.RMI.state")->gauge, 1);

    // While open: fail fast, no wire traffic, rejection counted.
    const std::uint64_t drops_before = counter("rpc.proto.RMI.drops");
    try {
        send_create(3);
        FAIL() << "expected fast-fail Dropped";
    } catch (const System::Dropped& d) {
        EXPECT_TRUE(d.fast_fail);
        EXPECT_NE(d.what.find("breaker open"), std::string::npos);
    }
    EXPECT_EQ(counter("rpc.breaker_open"), 1u);
    EXPECT_EQ(counter("rpc.proto.RMI.drops"), drops_before);

    // After the cooldown a half-open probe goes through and closes it.
    system->node(0).advance_clock(6000);
    system->network().set_link(0, 1, net::LinkParams{100, 0.0, 0.0});
    EXPECT_FALSE(send_create(4).is_fault);
    EXPECT_EQ(breaker_state(), CircuitBreaker::State::Closed);
    EXPECT_EQ(system->metrics().snapshot().find("rpc.breaker.1.RMI.state")->gauge, 0);
}

TEST_F(ReliableFixture, OpenBreakerStillReadsOpenAfterResetStats) {
    // Breaker state is semantic, not accounting: zeroing the registry
    // must not make an open breaker read closed.
    RetryPolicy& rp = system->rpc_path().reliability();
    rp.breaker_threshold = 1;
    system->network().set_link(0, 1, net::LinkParams{100, 0.0, 1.0});
    EXPECT_THROW(send_create(1), System::Dropped);
    ASSERT_EQ(system->metrics().snapshot().find("rpc.breaker.1.RMI.state")->gauge, 1);

    system->reset_stats();
    const obs::Snapshot snap = system->metrics().snapshot();
    const obs::Sample* state = snap.find("rpc.breaker.1.RMI.state");
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->gauge, 1);
}

TEST_F(ReliableFixture, HalfOpenProbeFailureReopens) {
    RetryPolicy& rp = system->rpc_path().reliability();
    rp.breaker_threshold = 1;
    rp.breaker_cooldown_us = 1000;
    system->network().set_link(0, 1, net::LinkParams{100, 0.0, 1.0});
    EXPECT_THROW(send_create(1), System::Dropped);  // opens at threshold 1
    system->node(0).advance_clock(2000);            // cooldown elapses
    EXPECT_THROW(send_create(2), System::Dropped);  // probe fails on the wire
    CircuitBreaker::State s = CircuitBreaker::State::Closed;
    system->rpc_path().visit_breakers(
        [&](net::NodeId, const std::string&, const CircuitBreaker& b) { s = b.state; });
    EXPECT_EQ(s, CircuitBreaker::State::Open);  // re-opened, not half-open
}

TEST_F(ReliableFixture, RetryBudgetCapsTotalRetries) {
    RetryPolicy& rp = system->rpc_path().reliability();
    rp.attempts = 5;
    rp.backoff_base_us = 200;
    rp.retry_budget = 1;
    system->network().set_link(0, 1, net::LinkParams{100, 0.0, 1.0});
    EXPECT_THROW(send_create(1), System::Dropped);
    EXPECT_EQ(counter("rpc.retries"), 1u);  // one retry, then the budget is gone
    EXPECT_THROW(send_create(2), System::Dropped);
    EXPECT_EQ(counter("rpc.retries"), 1u);  // exhausted budget means no retries
}

TEST_F(ReliableFixture, CrashFailsFastAndRestartLosesReplyCache) {
    system->rpc_path().reliability().dedup = true;
    const std::size_t heap_before = system->node(1).interp().heap().size();
    send_create(900);
    send_create(900);  // cache answers
    EXPECT_EQ(system->node(1).interp().heap().size(), heap_before + 1);
    EXPECT_EQ(counter("rpc.dedup_hits"), 1u);

    // Crash covering the caller's clock: connection-refused, no latency.
    const std::uint64_t t0 = system->node(0).clock_us();
    crash_window(1, t0, t0 + 100);
    try {
        send_create(901);
        FAIL() << "expected fast-fail Dropped";
    } catch (const System::Dropped& d) {
        EXPECT_TRUE(d.fast_fail);
        EXPECT_FALSE(d.executed_remotely);
        EXPECT_NE(d.what.find("down"), std::string::npos);
    }

    // After the restart the reply cache — soft state — is gone: the same
    // request id re-executes.  The heap survives (modelled durable).
    system->node(0).advance_clock(200);
    send_create(900);
    EXPECT_EQ(system->node(1).interp().heap().size(), heap_before + 2);
    EXPECT_EQ(counter("rpc.dedup_hits"), 1u);  // no new hit: it re-executed
}

TEST_F(ReliableFixture, RequestArrivingAtCrashedNodeDies) {
    // Window opens after the send but before the arrival: the caller's
    // fast-path check passes, the request dies at the destination, and the
    // loss is a plain (non-fast) request loss.
    const std::size_t heap_before = system->node(1).interp().heap().size();
    const std::uint64_t t0 = system->node(0).clock_us();
    crash_window(1, t0 + 50, t0 + 5000);
    try {
        send_create(1);
        FAIL() << "expected Dropped";
    } catch (const System::Dropped& d) {
        EXPECT_FALSE(d.fast_fail);
        EXPECT_FALSE(d.executed_remotely);
        EXPECT_NE(d.what.find("crashed"), std::string::npos);
    }
    EXPECT_EQ(system->node(1).interp().heap().size(), heap_before);
}

// ---- acceptance scenario: lossy workload, with and without reliability ----

struct WorkloadResult {
    WorkloadDriver::Report report;
    std::uint64_t retries = 0;
    std::uint64_t reply_loss_retries = 0;
    std::uint64_t dedup_hits = 0;
    std::int64_t calls1 = -1;  // Service.work executions per client's instance
    std::int64_t calls2 = -1;
};

/// Two clients (nodes 1, 2) drive 40 work() calls each against the server
/// (node 0) under ~8% loss on every client<->server link plus a 20 ms
/// partition of client 1's request path.
WorkloadResult run_lossy_workload(bool reliable) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);
    SystemOptions options;
    options.network_seed = 7;
    if (reliable) {
        options.reliability.attempts = 12;
        options.reliability.backoff_base_us = 200;
        options.reliability.backoff_multiplier = 2.0;
        options.reliability.backoff_cap_us = 30'000;
        options.reliability.jitter_us = 50;
        options.reliability.dedup = true;
    }
    System system(pool, options);
    system.add_node();  // 0: server
    system.add_node();  // 1: client
    system.add_node();  // 2: client
    system.policy().set_instance_home("Service", 0, "RMI");

    Value svc1 = system.construct(1, "Service", "()V");
    Value svc2 = system.construct(2, "Service", "()V");

    // Faults start only after the fault-free setup traffic.
    const std::uint64_t t0 =
        std::max(system.node(1).clock_us(), system.node(2).clock_us());
    auto add = [&](net::FaultWindow w) { system.network().fault_plan().add(w); };
    const std::pair<net::NodeId, net::NodeId> lossy_links[] = {
        {1, 0}, {0, 1}, {2, 0}, {0, 2}};
    for (auto [src, dst] : lossy_links) {
        net::FaultWindow w;
        w.kind = net::FaultKind::DropRate;
        w.src = src;
        w.dst = dst;
        w.from_us = t0;
        w.until_us = ~0ULL;
        w.drop_probability = 0.08;
        add(w);
    }
    net::FaultWindow partition;
    partition.kind = net::FaultKind::LinkDown;
    partition.src = 1;
    partition.dst = 0;
    partition.from_us = t0 + 10'000;
    partition.until_us = t0 + 30'000;
    add(partition);

    WorkloadDriver driver(system);
    auto task = [](Value svc) {
        return [svc](System& sys, net::NodeId node) {
            sys.node(node).interp().call_virtual(svc, "work", "(I)I",
                                                 {Value::of_int(1)});
        };
    };
    driver.add_client(1, 40, task(svc1));
    driver.add_client(2, 40, task(svc2));

    WorkloadResult r;
    r.report = driver.run();
    r.retries = system.metrics().counter("rpc.retries").value();
    r.reply_loss_retries = system.metrics().counter("rpc.retries_reply_loss").value();
    r.dedup_hits = system.metrics().counter("rpc.dedup_hits").value();
    if (reliable) {
        r.calls1 =
            system.node(1).interp().call_virtual(svc1, "calls", "()I").as_int();
        r.calls2 =
            system.node(2).interp().call_virtual(svc2, "calls", "()I").as_int();
    }
    return r;
}

TEST(ReliableWorkload, RetriesAbsorbLossAndPartitionWithZeroDuplicates) {
    WorkloadResult r = run_lossy_workload(/*reliable=*/true);
    EXPECT_EQ(r.report.tasks_run, 80u);
    // Every injected fault recovered; none surfaced.
    EXPECT_EQ(r.report.faults, 0u);
    EXPECT_GT(r.report.recovered, 0u);
    EXPECT_GT(r.retries, 0u);
    // Exactly-once: each instance executed its 40 calls — no duplicates
    // from reply-loss retries, no holes from surfaced faults.
    EXPECT_EQ(r.calls1, 40);
    EXPECT_EQ(r.calls2, 40);
    // Every reply-loss retry was answered from the reply cache.
    EXPECT_EQ(r.dedup_hits, r.reply_loss_retries);
    EXPECT_GT(r.dedup_hits, 0u);
}

TEST(ReliableWorkload, SameScheduleWithoutRetriesSurfacesFaults) {
    WorkloadResult r = run_lossy_workload(/*reliable=*/false);
    EXPECT_EQ(r.report.tasks_run, 80u);
    EXPECT_GT(r.report.faults, 0u);
    EXPECT_EQ(r.report.recovered, 0u);
    EXPECT_EQ(r.retries, 0u);
}

TEST(ReliableWorkload, BothRunsAreBitReproducible) {
    for (bool reliable : {true, false}) {
        WorkloadResult a = run_lossy_workload(reliable);
        WorkloadResult b = run_lossy_workload(reliable);
        EXPECT_EQ(a.report.makespan_us, b.report.makespan_us);
        EXPECT_EQ(a.report.faults, b.report.faults);
        EXPECT_EQ(a.report.recovered, b.report.recovered);
        EXPECT_EQ(a.retries, b.retries);
        EXPECT_EQ(a.dedup_hits, b.dedup_hits);
        EXPECT_EQ(a.calls1, b.calls1);
        EXPECT_EQ(a.calls2, b.calls2);
    }
}

}  // namespace
}  // namespace rafda::runtime
