#include "runtime/driver.hpp"

#include <algorithm>

#include "runtime/sched.hpp"
#include "runtime/system.hpp"
#include "support/log.hpp"
#include "vm/interp.hpp"

namespace rafda::runtime {

void WorkloadDriver::add_client(net::NodeId node, std::vector<Task> tasks) {
    for (Client& c : clients_) {
        if (c.node != node) continue;
        c.tasks.insert(c.tasks.end(), std::make_move_iterator(tasks.begin()),
                       std::make_move_iterator(tasks.end()));
        return;
    }
    clients_.push_back(Client{node, std::move(tasks), 0, 0, 0});
}

void WorkloadDriver::add_client(net::NodeId node, std::size_t count, Task task) {
    std::vector<Task> tasks;
    tasks.reserve(count);
    for (std::size_t k = 0; k < count; ++k) tasks.push_back(task);
    add_client(node, std::move(tasks));
}

void WorkloadDriver::add_fleet(std::vector<net::NodeId> nodes,
                               std::uint64_t clients, std::uint32_t tasks_each,
                               Task task) {
    if (nodes.empty() || clients == 0 || tasks_each == 0) return;
    Fleet f;
    f.nodes = std::move(nodes);
    f.clients = clients;
    f.tasks_each = tasks_each;
    f.task = std::move(task);
    fleets_.push_back(std::move(f));
}

WorkloadDriver::Report WorkloadDriver::run() {
    Report report;
    if (clients_.empty() && fleets_.empty()) return report;

    report.clients.reserve(clients_.size());
    for (Client& c : clients_) {
        ClientReport cr;
        cr.node = c.node;
        cr.start_us = system_->node(c.node).clock_us();
        report.clients.push_back(cr);
    }
    bool have_start = false;
    auto fold_start = [&](std::uint64_t t) {
        if (!have_start || t < report.start_us) report.start_us = t;
        have_start = true;
    };
    for (const ClientReport& cr : report.clients) fold_start(cr.start_us);
    for (const Fleet& f : fleets_)
        for (net::NodeId n : f.nodes) fold_start(system_->node(n).clock_us());

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
    std::uint64_t fleet_tasks = 0;
    std::uint64_t fleet_faults = 0;
    std::uint64_t fleet_recovered = 0;

    // The scheduler.  A pending client's whole footprint is its Event; the
    // handlers below are its continuations ("run the next burst"), so
    // nothing per-client survives between dispatches except queue cursors
    // (explicit clients) or the remaining-count riding in the event itself
    // (fleet clients).  Handler registration order is fixed, so event
    // kinds — and with them the order digest — are stable across runs.
    EventHeap heap;

    // One burst of `burst` tasks on node `nid`, task(b) being the b-th;
    // both step handlers below run their client through it.  A burst of
    // more than one is pipelined: reply waits are deferred and the drain
    // closes the burst before the next event dispatches, so the event
    // order — and with it determinism — is untouched.  A guest exception
    // is absorbed as a fault.  Returns the node's clock after the burst.
    auto run_burst = [&](net::NodeId nid, std::size_t burst, auto&& task,
                         std::uint64_t& faults, std::uint64_t& recovered) {
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
                task(b)(*system_, nid);
                if (retries.value() != retries_before) ++recovered;
            } catch (const vm::GuestException& ex) {
                ++faults;
                log_debug("driver", "client on node ", nid, " raised ",
                          ex.class_name(), ": ", ex.message());
            }
            // The last burst member completes after the drain, so its
            // sample covers the whole burst's reply horizon.
            if (b + 1 < burst) complete(node.clock_us());
        }
        if (burst > 1) node.set_pipeline(false);
        complete(node.clock_us());
        return node.clock_us();
    };

    // Continuation: one burst for an explicitly added client.
    const std::uint32_t kClientStep = heap.register_handler([&](const Event& e) {
        Client& c = clients_[static_cast<std::size_t>(e.a)];
        const std::size_t burst =
            std::min(pipeline_depth_, c.tasks.size() - c.next);
        const std::uint64_t clock = run_burst(
            c.node, burst, [&](std::size_t b) -> Task& { return c.tasks[c.next + b]; },
            c.faults, c.recovered);
        c.next += burst;
        if (c.next < c.tasks.size()) heap.post(clock, c.node, e.kind, e.a);
    });

    // Continuation: one burst for a fleet client.  `a` packs (fleet,
    // client); `b` carries the remaining task count, so the event IS the
    // client state.
    const std::uint32_t kFleetStep = heap.register_handler([&](const Event& e) {
        Fleet& f = fleets_[static_cast<std::size_t>(e.a >> 32)];
        const std::uint64_t ci = e.a & 0xffffffffULL;
        const net::NodeId nid = f.nodes[ci % f.nodes.size()];
        const std::size_t burst = static_cast<std::size_t>(
            std::min<std::uint64_t>(pipeline_depth_, e.b));
        const std::uint64_t clock = run_burst(
            nid, burst, [&](std::size_t) -> Task& { return f.task; }, fleet_faults,
            fleet_recovered);
        fleet_tasks += burst;
        if (const std::uint64_t remaining = e.b - burst)
            heap.post(clock, nid, e.kind, e.a, remaining);
    });

    // Controller heartbeat for the adaptation engine (DESIGN.md §19): an
    // ordinary heap event, one per interval, so adaptation decisions sit
    // at deterministic points of the same popped stream as client work.
    // Every heartbeat is a tick at its own event time.  Never posted while
    // adaptation is off — the event stream, digest and wire schedule stay
    // byte-identical.
    AdaptationEngine* engine = system_->adaptation();
    const std::uint64_t adapt_interval = engine ? engine->policy().interval_us : 0;
    // Stop rule: the heartbeat re-posts while any client or fleet step is
    // pending.  The heap holds only steps and this one heartbeat, which is
    // popped while its handler runs, so a non-empty heap means exactly
    // that; once the last step has run the controller goes quiet.
    const std::uint32_t kAdaptTick = heap.register_handler([&](const Event& e) {
        engine->tick(e.at_us);
        if (!heap.empty()) heap.post(e.at_us + adapt_interval, e.node, e.kind);
    });

    // Seed the heap at each client's clock: explicit clients in
    // registration order, then fleet clients in index order (equal clocks
    // tie-break in post order).
    for (std::size_t i = 0; i < clients_.size(); ++i) {
        if (clients_[i].tasks.empty()) continue;
        heap.post(system_->node(clients_[i].node).clock_us(), clients_[i].node,
                  kClientStep, i);
    }
    for (std::size_t fi = 0; fi < fleets_.size(); ++fi) {
        Fleet& f = fleets_[fi];
        for (std::uint64_t ci = 0; ci < f.clients; ++ci) {
            const net::NodeId nid = f.nodes[ci % f.nodes.size()];
            heap.post(system_->node(nid).clock_us(), nid, kFleetStep,
                      (static_cast<std::uint64_t>(fi) << 32) | ci, f.tasks_each);
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
        heap.dispatch(heap.pop());
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
    for (std::size_t i = 0; i < clients_.size(); ++i) {
        Client& c = clients_[i];
        ClientReport& cr = report.clients[i];
        cr.end_us = system_->node(c.node).clock_us();
        cr.tasks = c.next;
        cr.faults = c.faults;
        cr.recovered = c.recovered;
        report.tasks_run += c.next;
        report.faults += c.faults;
        report.recovered += c.recovered;
        report.end_us = std::max(report.end_us, cr.end_us);
        // Consumed queues reset so a subsequent add_client + run() starts
        // a fresh window for this client.
        c.tasks.clear();
        c.next = 0;
        c.faults = 0;
        c.recovered = 0;
    }
    for (const Fleet& f : fleets_) {
        report.fleet_clients += f.clients;
        for (net::NodeId n : f.nodes)
            report.end_us = std::max(report.end_us, system_->node(n).clock_us());
    }
    fleets_.clear();
    report.tasks_run += fleet_tasks;
    report.faults += fleet_faults;
    report.recovered += fleet_recovered;
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
