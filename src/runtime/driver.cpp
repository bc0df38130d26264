#include "runtime/driver.hpp"

#include <algorithm>

#include "runtime/sched.hpp"
#include "runtime/system.hpp"
#include "support/log.hpp"
#include "vm/interp.hpp"

namespace rafda::runtime {

void WorkloadDriver::add_client(net::NodeId node, std::vector<Task> tasks) {
    const std::uint64_t count = tasks.size();
    add_group(Group{{node}, 1, count, std::move(tasks)});
}

void WorkloadDriver::add_client(net::NodeId node, std::size_t count, Task task) {
    add_group(Group{{node}, 1, count, {std::move(task)}});
}

void WorkloadDriver::add_fleet(std::vector<net::NodeId> nodes,
                               std::uint64_t clients, std::uint32_t tasks_each,
                               Task task) {
    add_group(Group{std::move(nodes), clients, tasks_each, {std::move(task)}});
}

void WorkloadDriver::add_group(Group group) {
    if (group.nodes.empty() || group.clients == 0 || group.tasks_each == 0) return;
    groups_.push_back(std::move(group));
}

WorkloadDriver::Report WorkloadDriver::run() {
    Report report;
    const std::vector<Group> groups = std::move(groups_);
    groups_.clear();
    if (groups.empty()) return report;

    // The run's extent folds the clocks of this run's client nodes only:
    // a group's clients occupy its first min(clients, nodes) nodes.
    auto each_client_clock = [&](auto&& fn) {
        for (const Group& g : groups)
            for (std::size_t i = 0; i < std::min<std::uint64_t>(g.clients, g.nodes.size()); ++i)
                fn(system_->node(g.nodes[i]).clock_us());
    };
    report.start_us = UINT64_MAX;
    each_client_clock([&](std::uint64_t t) { report.start_us = std::min(report.start_us, t); });

    // Tasks that needed retries but still completed are "recovered":
    // detected by diffing the system-wide rpc.retries counter around each
    // invocation (dispatch is sequential, so the delta belongs to this
    // task alone).
    obs::Counter& retries = system_->metrics().counter("rpc.retries");

    // Windows bucket each task by its completion time: window k covers
    // (k·w, (k+1)·w] of virtual time, clipped to the run, so every task
    // counts in the window that holds the clock its latency sample ends at.
    // Its rpc_totals() delta goes with it.  Slots are created on demand;
    // the bounds are filled in once the run's end is known.
    const std::uint64_t first_window = window_us_ ? report.start_us / window_us_ : 0;
    auto window_of = [&](std::uint64_t t) -> Window& {
        const std::uint64_t k =
            t > report.start_us ? (t - 1) / window_us_ : first_window;
        const std::size_t i = static_cast<std::size_t>(k - first_window);
        if (i >= report.windows.size()) report.windows.resize(i + 1);
        return report.windows[i];
    };

    std::vector<std::uint64_t> latencies;

    // The scheduler.  A pending client's whole footprint is its Event; the
    // step below is its continuation ("run the next burst"), so nothing
    // per-client survives between dispatches except the remaining-count
    // riding in the event itself.  The order digest folds each event's
    // kind, so the two kind numbers are fixed: the step is 0, the
    // heartbeat 1.
    EventHeap heap;
    constexpr std::uint32_t kStep = 0;
    constexpr std::uint32_t kAdaptTick = 1;

    // Continuation: one burst of up to pipeline_depth_ tasks for one
    // client.  `a` packs (group, client); `b` carries the client's
    // remaining task count, so the event IS the client state.  A burst of
    // more than one is pipelined: reply waits are deferred and the drain
    // closes the burst before the next event dispatches, so the event
    // order — and with it determinism — is untouched.  A guest exception
    // is absorbed as a fault.
    auto step = [&](const Event& e) {
        const Group& g = groups[static_cast<std::size_t>(e.a >> 32)];
        const net::NodeId nid = g.nodes[(e.a & 0xffffffffULL) % g.nodes.size()];
        const std::uint64_t next = g.tasks_each - e.b;  // the client's next task
        const std::size_t burst = static_cast<std::size_t>(
            std::min<std::uint64_t>(pipeline_depth_, e.b));
        Node& node = system_->node(nid);
        if (burst > 1) node.set_pipeline(true);
        const std::uint64_t t0 = node.clock_us();
        System::RpcTotals before;
        // One task's latency sample ends at `done`, its completion time.
        auto complete = [&](std::uint64_t done) {
            latencies.push_back(done - t0);
            if (!window_us_) return;
            const auto [calls, bytes] = system_->rpc_totals();
            Window& w = window_of(done);
            ++w.tasks;
            // A reset_stats() mid-task rewinds the cumulative counters;
            // clamp the delta instead of underflowing.
            w.rpc_calls += calls >= before.calls ? calls - before.calls : calls;
            w.wire_bytes += bytes >= before.bytes ? bytes - before.bytes : bytes;
        };
        for (std::size_t b = 0; b < burst; ++b) {
            const std::uint64_t retries_before = retries.value();
            if (window_us_) before = system_->rpc_totals();
            try {
                g.tasks[(next + b) % g.tasks.size()](*system_, nid);
                if (retries.value() != retries_before) ++report.recovered;
            } catch (const vm::GuestException& ex) {
                ++report.faults;
                log_debug("driver", "client on node ", nid, " raised ",
                          ex.class_name(), ": ", ex.message());
            }
            // The last burst member completes after the drain, so its
            // sample covers the whole burst's reply horizon.
            if (b + 1 < burst) complete(node.clock_us());
        }
        if (burst > 1) node.set_pipeline(false);
        complete(node.clock_us());
        report.tasks_run += burst;
        if (const std::uint64_t remaining = e.b - burst)
            heap.post(node.clock_us(), nid, kStep, e.a, remaining);
    };

    // Controller heartbeat for the adaptation engine (DESIGN.md §19): an
    // ordinary heap event, one per interval, so adaptation decisions sit
    // at deterministic points of the same popped stream as client work.
    // Every heartbeat is a tick at its own event time.  Never posted while
    // adaptation is off — the event stream, digest and wire schedule stay
    // byte-identical.
    AdaptationEngine* engine = system_->adaptation();
    const std::uint64_t adapt_interval = engine ? engine->policy().interval_us : 0;
    // Stop rule: the heartbeat re-posts while any client step is
    // pending.  The heap holds only steps and this one heartbeat, which is
    // popped while it runs, so a non-empty heap means exactly that; once
    // the last step has run the controller goes quiet.
    auto heartbeat = [&](const Event& e) {
        engine->tick(e.at_us);
        if (!heap.empty()) heap.post(e.at_us + adapt_interval, e.node, kAdaptTick);
    };

    // Seed the heap at each client's clock, groups in registration order
    // and clients in index order (equal clocks tie-break in post order).
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const Group& g = groups[gi];
        for (std::uint64_t ci = 0; ci < g.clients; ++ci) {
            const net::NodeId nid = g.nodes[ci % g.nodes.size()];
            heap.post(system_->node(nid).clock_us(), nid, kStep,
                      (static_cast<std::uint64_t>(gi) << 32) | ci, g.tasks_each);
        }
    }

    // The first heartbeat comes one interval into the run: the controller
    // needs a window of observation before it can score anything.
    if (adapt_interval) heap.post(report.start_us + adapt_interval, 0, kAdaptTick);

    // The order digest witnesses the network's own transfer stream: each
    // completion folds (src, dst) and (at_us, delivered) as it is
    // sequenced, between the pops of the client steps that caused it.
    // Nothing is posted, so the heap never holds more than one event per
    // live client plus the heartbeat.  The sink refers to this frame's
    // heap, so it is removed on every exit, exceptional ones included.
    struct SinkReset {
        net::SimNetwork& net;
        ~SinkReset() { net.set_completion_sink(nullptr); }
    } sink_reset{system_->network()};
    system_->network().set_completion_sink(
        [&heap](net::NodeId src, net::NodeId dst, std::uint64_t at_us,
                bool delivered) {
            heap.fold((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                       << 32) |
                      static_cast<std::uint32_t>(dst));
            heap.fold((at_us << 1) | (delivered ? 1 : 0));
        });

    // Dispatch loop.  With durability on, the restart sweep after each
    // event lets idle crashed nodes recover once the popped event's time
    // passes their window's end, instead of waiting for the next request
    // to land on them (DESIGN.md §20).
    const bool durable = system_->durability_enabled();
    while (!heap.empty()) {
        const Event e = heap.pop();
        if (e.kind == kStep) step(e);
        else heartbeat(e);
        if (durable) system_->observe_restarts(heap.last_popped_at());
    }
    // Close the observation loop: backfill realized savings for decisions
    // from the final window (observe-only; the makespan is already set).
    if (engine) engine->finalize();

    if (!latencies.empty()) {
        std::sort(latencies.begin(), latencies.end());
        auto rank = [&](double q) {
            return latencies[static_cast<std::size_t>(
                q * static_cast<double>(latencies.size() - 1))];
        };
        report.latency_p50_us = rank(0.50);
        report.latency_p95_us = rank(0.95);
        report.latency_p99_us = rank(0.99);
    }

    report.end_us = report.start_us;
    each_client_clock([&](std::uint64_t t) { report.end_us = std::max(report.end_us, t); });
    report.makespan_us = report.end_us - report.start_us;
    if (window_us_) {
        // Every window from the run's start to its end is listed, empty
        // ones included; the first and last are clipped to the run.
        window_of(report.end_us);
        for (std::size_t i = 0; i < report.windows.size(); ++i) {
            const std::uint64_t k = first_window + i;
            report.windows[i].start_us = std::max(k * window_us_, report.start_us);
            report.windows[i].end_us = std::min((k + 1) * window_us_, report.end_us);
        }
    }
    report.events_dispatched = heap.dispatched();
    report.peak_pending_events = heap.peak_pending();
    report.event_order_digest = heap.order_digest();
    return report;
}

}  // namespace rafda::runtime
