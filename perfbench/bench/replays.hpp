// Layer replays: each inner layer's public functions timed in isolation,
// fed with the shapes the workload generated (payload mix, link set,
// scheduler depth, journal and WAL record mix, input program).  A shape
// the workload never generated falls back to the one call of rpc_small:
// Service.work(J)J over RMI on one 100 µs link.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "model/classpool.hpp"
#include "net/network.hpp"
#include "obs/journal.hpp"
#include "runtime/wal.hpp"

namespace perfbench {

/// One logical call as the workload issued it.
struct CallShape {
    std::string protocol = "RMI";
    bool echo = false;   // echo(S)S with `payload`, else work(J)J with `x`
    std::int64_t x = 1;
    std::string payload;
    /// Caller and callee nodes: the request crosses client -> server, the
    /// reply the reverse link.
    rafda::net::NodeId client = 0;
    rafda::net::NodeId server = 1;
};

struct LayerShapes {
    std::vector<CallShape> calls;
    /// Parameters of every directed link the workload configured; links
    /// absent here use the defaults.
    std::map<std::pair<rafda::net::NodeId, rafda::net::NodeId>, rafda::net::LinkParams>
        link_params;
    /// Peak pending events of the workload's scheduler.
    std::size_t heap_depth = 0;
    std::vector<rafda::obs::JournalEvent> journal;
    std::size_t journal_capacity = rafda::obs::Journal::kDefaultCapacity;
    /// WAL records as re-append closures, in log order.
    std::vector<std::function<void(rafda::runtime::Wal&)>> wal;
    /// The program the workload transforms.
    const rafda::model::ClassPool* input = nullptr;
};

/// Collects every record of a WAL stream as a closure that re-appends it.
void collect_wal_records(const rafda::Bytes& stream,
                         std::vector<std::function<void(rafda::runtime::Wal&)>>& out);

/// Times every replayed layer and writes codec.*, net.transfer_at_ns,
/// sched.post_pop_ns, vm.local_call_ns, journal.record_ns, wal.append_ns,
/// transform.analyze_ms, transform.generate_ms and model.verify_ms into
/// `out`.  When `out` holds rpc.call_ns it also derives rpc.self_ns_est:
/// the span minus the replayed codec, transfer and dispatch costs of the
/// same call mix.  `budget_s` bounds the time spent per replay.
void replay_layers(LayerShapes shapes, MetricMap& out, double budget_s);

}  // namespace perfbench
