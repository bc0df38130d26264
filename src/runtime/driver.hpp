// WorkloadDriver — a concurrent multi-client workload generator on the
// event-heap scheduler (DESIGN.md §18).
//
// The RAFDA follow-up papers frame the runtime as a *server* mediating
// many concurrent clients; this driver makes that workload expressible in
// the simulator.  Each client is a node with its own interpreter and heap,
// so a top-level guest invocation runs to completion as ordinary nested
// C++ (no coroutines needed) — concurrency exists purely in *virtual
// time*: per-node clocks advance independently, and contention appears
// exactly where the event-sequenced model says it must — on shared links
// (channel occupancy queues contending transfers) and on the server
// node's clock (requests arriving while it is busy wait their turn).
//
// There is one kind of client.  Every add_client/add_fleet call
// registers one group: `clients` clients spread over its nodes, each
// running `tasks_each` tasks from the group's task list.  run() consumes
// the groups registered since the last run, so a run's extent and report
// cover exactly the clients it ran.
//
// Scheduling is a single EventHeap: every pending client is one POD event
// (its continuation is "run the next burst", event kind 0), so 10⁵–10⁶
// clients cost O(bytes per pending event), not O(queues × stack).  The
// event key is the client node's clock, so the next client to run is
// always the one earliest in virtual time (equal clocks run in post
// order) — the event-driven order of a discrete-event simulator.
// SimNetwork transfer completions fold into the heap's order digest as
// they are sequenced, so the digest witnesses network and client work on
// one timeline while the heap holds only client steps (and the adaptation
// heartbeat, event kind 1).  The popped event's time is the simulation
// clock for the driver and the controller: heartbeats tick the
// AdaptationEngine at it and the durable restart sweep reads it, while
// each node's own clock stamps the node's work.
//
// The dispatch order is a pure function of the workload and the network
// seed — runs are bit-for-bit reproducible, and the heap's order digest
// makes that checkable in one comparison.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.hpp"

namespace rafda::runtime {

class System;

class WorkloadDriver {
public:
    /// One top-level guest invocation issued by `node` (e.g. a proxy call
    /// through its interpreter).  Guest exceptions escaping the task (a
    /// RemoteFault from an injected drop, say) are absorbed and counted —
    /// one client's fault must not kill the whole workload.
    using Task = std::function<void(System&, net::NodeId)>;

    /// Virtual-time order is the only dispatch order; this one-value enum
    /// and set_fairness() remain for existing callers and do nothing.
    enum class Fairness { VirtualClock };

    explicit WorkloadDriver(System& system) : system_(&system) {}

    /// One client on `node` running `tasks` in order.  Every call
    /// registers a new client: two calls for one node are two clients
    /// whose steps interleave on that node's clock.
    void add_client(net::NodeId node, std::vector<Task> tasks);
    /// One client on `node` running `task` `count` times.
    void add_client(net::NodeId node, std::size_t count, Task task);

    /// Bulk registration for scale runs: `clients` clients spread
    /// round-robin across `nodes` (client k lives on nodes[k %
    /// nodes.size()]), each running `tasks_each` repetitions of one shared
    /// task.  A client's entire pending state is its event in the heap,
    /// so a million of them cost megabytes, not gigabytes.
    void add_fleet(std::vector<net::NodeId> nodes, std::uint64_t clients,
                   std::uint32_t tasks_each, Task task);

    /// One observation window (see set_window_us): the tasks that
    /// completed in (start_us, end_us] of virtual time — the first window
    /// also holds a task completing at start_us — and the system-wide RPC
    /// counter deltas those tasks caused, for bench time series.
    struct Window {
        std::uint64_t start_us = 0;
        std::uint64_t end_us = 0;
        std::uint64_t tasks = 0;       // tasks completed in the window
        std::uint64_t rpc_calls = 0;   // Invoke+Create+Discover they sent
        std::uint64_t wire_bytes = 0;  // request + reply bytes they moved
    };

    struct Report {
        std::uint64_t start_us = 0;     // min clock of this run's clients at entry
        std::uint64_t end_us = 0;       // max clock of this run's clients at drain
        std::uint64_t makespan_us = 0;  // end_us - start_us
        std::uint64_t tasks_run = 0;
        /// Injected faults split by outcome: `recovered` tasks hit at
        /// least one transport failure but the retry policy absorbed it;
        /// `faults` tasks surfaced a guest exception to the client.
        std::uint64_t faults = 0;
        std::uint64_t recovered = 0;
        /// Exact per-task virtual-latency quantiles over every task's
        /// client-clock delta: the sorted latency at index floor(q·(n−1)),
        /// lower-neighbour rather than nearest-rank; 0 when no task ran.
        std::uint64_t latency_p50_us = 0;
        std::uint64_t latency_p95_us = 0;
        std::uint64_t latency_p99_us = 0;
        /// Windows, oldest first, from start_us to end_us with empty ones
        /// listed; none unless set_window_us(>0).
        std::vector<Window> windows;
        /// Scheduler accounting for the run.
        std::uint64_t events_dispatched = 0;
        std::uint64_t peak_pending_events = 0;  // bounded-memory witness
        std::uint64_t event_order_digest = 0;   // FNV-1a over the pop stream
    };

    /// Enables time-windowed deltas: window k covers (k·w, (k+1)·w] of
    /// absolute virtual time, clipped to [Report::start_us, end_us].  Each
    /// task counts in the window holding its completion time (the client
    /// clock its latency sample ends at), together with the RPC calls and
    /// bytes it caused.  0 (the default) disables windowing.
    void set_window_us(std::uint64_t w) { window_us_ = w; }

    /// Client pipelining (DESIGN.md §17): each step a client issues up
    /// to `depth` consecutive invocations in node pipeline mode — reply
    /// waits are deferred to the end of the burst, so successive requests
    /// stream onto the link while it is still busy (the workload shape
    /// per-link batching coalesces).  1 (the default) is the legacy
    /// call-and-wait behaviour.  Host execution order is unchanged, so
    /// per-call results are identical; only virtual-time joins move.
    /// Task latencies are measured per burst (each task in a burst
    /// reports the burst-so-far delta from the burst's start clock).
    void set_pipeline_depth(std::size_t depth) {
        pipeline_depth_ = depth ? depth : 1;
    }

    void set_fairness(Fairness) {}

    /// Runs every client registered since the last run to exhaustion
    /// through the event heap.  Can be called again after registering
    /// more clients; clocks carry over (virtual time never rewinds).
    Report run();

private:
    /// One add_client/add_fleet call: client c lives on nodes[c %
    /// nodes.size()] and runs tasks[k % tasks.size()] as its task k, for k
    /// in [0, tasks_each).
    struct Group {
        std::vector<net::NodeId> nodes;
        std::uint64_t clients = 0;
        std::uint64_t tasks_each = 0;
        std::vector<Task> tasks;
    };
    void add_group(Group group);

    System* system_;
    std::vector<Group> groups_;
    std::uint64_t window_us_ = 0;
    std::size_t pipeline_depth_ = 1;
};

}  // namespace rafda::runtime
