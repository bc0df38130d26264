// rafdac — the RAFDA command-line transformer.
//
//   rafdac analyze   app.rir              transformability report (Sec 2.4)
//   rafdac transform app.rir out.rirb     transform, save binary artefact
//   rafdac print     app.rir[b]           disassemble (RIR or RIRB input)
//   rafdac run       app.rir[b] Main      run locally (transforms .rir
//                                         input first; .rirb input is
//                                         assumed already transformed)
//   rafdac deploy    app.rir policy.cfg Main [nodes]
//                                         run distributed under a policy
//                                         configuration file
//   rafdac stats     app.rir policy.cfg Main [nodes] [--json]
//                                         deploy, run, then dump the full
//                                         metrics registry (table or JSON)
//   rafdac trace     app.rir policy.cfg Main [nodes] [--json]
//                                         deploy, run with span tracing on,
//                                         then print the RPC span trees
//   rafdac trace     ... --chrome out.json
//                                         additionally write the spans +
//                                         journal events as Chrome
//                                         trace-event JSON (loadable in
//                                         Perfetto / chrome://tracing)
//   rafdac journal   app.rir policy.cfg Main [nodes] [--json]
//                                         deploy, run with the flight
//                                         recorder on, then print the
//                                         event journal (table or JSON)
//   rafdac net       app.rir policy.cfg Main [nodes] [--json]
//                                         deploy, run, then print the
//                                         per-link occupancy table (busy
//                                         time, utilization) and per-node
//                                         virtual clocks
//   rafdac faults    app.rir policy.cfg Main [nodes] [--json]
//                                         deploy, run, then print the
//                                         active fault plan, the circuit
//                                         breaker states and the rpc
//                                         reliability counters
//   rafdac adapt     app.rir policy.cfg Main [nodes] [--json]
//                                         deploy, run under the adaptation
//                                         engine (DESIGN.md §19), then
//                                         print its decision log —
//                                         migrations, replications,
//                                         deferrals, projected vs realized
//                                         savings — and the adapt counters
//   rafdac wal       app.rir policy.cfg Main [nodes] [--json]
//                                         deploy, run, then print the
//                                         per-node durability report
//                                         (DESIGN.md §20): WAL/snapshot
//                                         sizes, recoveries, relocations
//
// stats/trace print the application's own output on stderr so stdout
// stays machine-readable.
//
// Exit status: 0 on success, 1 on usage errors, 2 on processing errors.
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "model/assembler.hpp"
#include "model/binio.hpp"
#include "model/printer.hpp"
#include "model/verifier.hpp"
#include "obs/chrome.hpp"
#include "obs/export.hpp"
#include "runtime/driver.hpp"
#include "runtime/policy_config.hpp"
#include "runtime/system.hpp"
#include "support/strings.hpp"
#include "transform/local_binder.hpp"
#include "transform/pipeline.hpp"
#include "vm/prelude.hpp"

namespace {

using namespace rafda;

/// The optional [nodes] operand: one whole positive decimal token.
int parse_nodes(const std::string& tok) {
    const std::optional<int> v = parse_whole<int>(tok);
    if (!v || *v <= 0) throw Error("bad node count '" + tok + "' (want a positive integer)");
    return *v;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("cannot open " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void write_file(const std::string& path, const Bytes& data) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw Error("cannot write " + path);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
}

/// Loads a pool from .rir (assembled + prelude) or .rirb (binary) and
/// verifies it: every command, the pipeline included, needs verified input.
model::ClassPool load_input(const std::string& path, bool* was_binary = nullptr) {
    const bool binary = ends_with(path, ".rirb");
    if (was_binary) *was_binary = binary;
    model::ClassPool pool;
    if (binary) {
        std::string raw = read_file(path);
        pool = model::load_pool(Bytes(raw.begin(), raw.end()));
    } else {
        vm::install_prelude(pool);
        model::assemble_into(pool, read_file(path));
    }
    model::verify_pool(pool);
    return pool;
}

int cmd_analyze(const std::string& input) {
    model::ClassPool pool = load_input(input);
    transform::Analysis analysis = transform::analyze(pool);
    std::cout << "classes/interfaces: " << analysis.total() << "\n"
              << "transformable:      " << analysis.transformable_classes().size() << "\n"
              << "non-transformable:  " << analysis.non_transformable_count() << " ("
              << static_cast<int>(100.0 * analysis.non_transformable_fraction() + 0.5)
              << "%)\n";
    for (const std::string& cls : analysis.non_transformable_classes()) {
        const transform::ClassStatus& st = analysis.status_of(cls);
        std::cout << "  " << cls << ": " << transform::reason_name(st.reason);
        if (!st.blamed_on.empty()) std::cout << " (via " << st.blamed_on << ")";
        std::cout << "\n";
    }
    return 0;
}

int cmd_transform(const std::string& input, const std::string& output) {
    model::ClassPool pool = load_input(input);
    transform::PipelineResult result = transform::run_pipeline(pool);
    Bytes artefact = model::save_pool(result.pool);
    write_file(output, artefact);
    std::cout << "substituted " << result.report.substituted_classes().size() << " of "
              << pool.size() << " classes; wrote " << result.pool.size() << " classes ("
              << artefact.size() << " bytes) to " << output << "\n";
    return 0;
}

int cmd_print(const std::string& input) {
    model::ClassPool pool = load_input(input);
    std::cout << model::print_pool(pool);
    return 0;
}

int cmd_run(const std::string& input, const std::string& main_cls) {
    bool was_binary = false;
    model::ClassPool pool = load_input(input, &was_binary);
    if (was_binary)
        throw Error(
            "running a pre-transformed .rirb directly needs the transform report; "
            "pass the original .rir instead");
    transform::PipelineResult result = transform::run_pipeline(pool);
    vm::Interpreter interp(result.pool);
    vm::bind_prelude_natives(interp);
    transform::bind_local_factories(interp, result.report);
    transform::call_transformed_static(interp, pool, result.report, main_cls, "main",
                                       "()V");
    std::cout << interp.output();
    return 0;
}

/// Shared deploy-style setup: add the nodes, apply the policy
/// configuration (every grammar, the `adapt` and `durable` directives
/// included), and bring up the adaptation engine / durability layer when
/// the config asks for them.
void configure_system(runtime::System& system, const std::string& config_path,
                      int nodes) {
    for (int k = 0; k < nodes; ++k) system.add_node();
    runtime::AdaptPolicy adaptation;
    runtime::DurabilityPolicy durability;
    runtime::apply_policy_config(read_file(config_path), system.policy(),
                                 &system.network(), &system.rpc_path().reliability(),
                                 &system.rpc_path().batching(), &adaptation, &durability);
    if (adaptation.enabled) system.enable_adaptation(adaptation);
    if (durability.enabled) system.enable_durability(durability);
}

int cmd_deploy(const std::string& input, const std::string& config_path,
               const std::string& main_cls, int nodes) {
    model::ClassPool pool = load_input(input);
    runtime::System system(pool);
    configure_system(system, config_path, nodes);
    system.call_static(0, main_cls, "main", "()V");
    std::cout << system.node(0).interp().output();
    std::cerr << "[rafdac] virtual time " << system.network().now_us() << "us";
    const obs::Snapshot snap = system.metrics().snapshot();
    std::vector<std::string> protocols = system.report().protocols();
    std::sort(protocols.begin(), protocols.end());
    for (const std::string& proto : protocols) {
        const std::string p = "rpc.proto." + proto + ".";
        const std::uint64_t requests = snap.counter_value(p + "calls") +
                                       snap.counter_value(p + "creates") +
                                       snap.counter_value(p + "discovers");
        if (requests)
            std::cerr << "; " << proto << ": " << requests << " requests, "
                      << snap.counter_value(p + "request_bytes") +
                             snap.counter_value(p + "reply_bytes")
                      << " bytes";
    }
    std::cerr << "\n";
    return 0;
}

enum class ObserveMode { Stats, Trace, Journal };

/// Shared driver for `stats`, `trace` and `journal`: deploy, run the entry
/// point, then report from the observability layer instead of the
/// application.  A non-empty `chrome_path` (trace mode) additionally
/// writes the spans + journal events as Chrome trace-event JSON.
/// Table row cap for `stats` (and link cap for `net`) unless --all: at
/// hundreds of nodes the registry holds thousands of per-link samples,
/// and the table is for eyes, not pipelines (use --json for those).
constexpr std::size_t kStatsTableRows = 200;
constexpr std::size_t kNetTableLinks = 20;

int cmd_observe(const std::string& input, const std::string& config_path,
                const std::string& main_cls, int nodes, ObserveMode mode, bool json,
                bool all, const std::string& chrome_path = {}) {
    model::ClassPool pool = load_input(input);
    runtime::System system(pool);
    configure_system(system, config_path, nodes);
    if (mode == ObserveMode::Trace) system.tracer().set_enabled(true);
    // The journal feeds both the `journal` report and the Chrome export's
    // instant events (fault edges, drops, retries on the timeline).
    if (mode == ObserveMode::Journal || !chrome_path.empty())
        system.journal().set_enabled(true);
    system.enable_method_profiling(true);
    system.call_static(0, main_cls, "main", "()V");
    std::cerr << system.node(0).interp().output();
    if (!chrome_path.empty()) {
        std::ofstream out(chrome_path, std::ios::binary);
        if (!out) throw Error("cannot write " + chrome_path);
        out << obs::chrome_trace_json(system.tracer(), system.journal()) << "\n";
        std::cerr << "[rafdac] wrote Chrome trace to " << chrome_path << "\n";
    }
    switch (mode) {
        case ObserveMode::Trace:
            std::cout << (json ? system.tracer().to_json() + "\n"
                               : system.tracer().render_tree());
            break;
        case ObserveMode::Stats:
            std::cout << (json ? obs::to_json(system.metrics().snapshot()) + "\n"
                               : obs::to_table(system.metrics().snapshot(),
                                               all ? 0 : kStatsTableRows));
            break;
        case ObserveMode::Journal: {
            const obs::Journal& j = system.journal();
            if (json) {
                std::cout << j.to_json() << "\n";
                break;
            }
            std::cout << "journal: " << j.size() << " events ("
                      << j.total_recorded() << " recorded, " << j.overwritten()
                      << " overwritten), epoch " << j.epoch_us() << "us\n"
                      << std::left << std::setw(8) << "seq" << std::setw(10)
                      << "t_us" << std::setw(10) << "kind" << std::right
                      << std::setw(6) << "node" << std::setw(6) << "peer"
                      << std::setw(12) << "a" << std::setw(12) << "b"
                      << "  detail\n";
            j.visit([&](const obs::JournalEvent& e) {
                std::cout << std::left << std::setw(8) << e.seq << std::setw(10)
                          << e.t_us << std::setw(10) << obs::journal_kind_name(e.kind)
                          << std::right << std::setw(6) << e.node << std::setw(6)
                          << e.peer << std::setw(12) << e.a << std::setw(12) << e.b
                          << "  " << e.detail << "\n";
            });
            break;
        }
    }
    return 0;
}

/// Per-link occupancy/utilization table (or JSON) plus per-node clocks —
/// the contention story of a run without spelunking the raw registry.
int cmd_net(const std::string& input, const std::string& config_path,
            const std::string& main_cls, int nodes, bool json, bool all) {
    model::ClassPool pool = load_input(input);
    runtime::System system(pool);
    configure_system(system, config_path, nodes);
    system.call_static(0, main_cls, "main", "()V");
    std::cerr << system.node(0).interp().output();

    const net::SimNetwork& network = system.network();
    const std::uint64_t horizon = std::max<std::uint64_t>(1, network.now_us());
    auto utilization_pct = [horizon](std::uint64_t busy) {
        return 100.0 * static_cast<double>(busy) / static_cast<double>(horizon);
    };
    if (json) {
        std::ostringstream os;
        os << "{\"virtual_time_us\":" << network.now_us() << ",\"links\":[";
        bool first = true;
        network.visit_links([&](net::NodeId src, net::NodeId dst,
                                const net::LinkStats& s) {
            if (!first) os << ",";
            first = false;
            os << "{\"src\":" << src << ",\"dst\":" << dst
               << ",\"messages\":" << s.messages << ",\"bytes\":" << s.bytes
               << ",\"drops\":" << s.drops << ",\"coalesced\":" << s.coalesced
               << ",\"busy_us\":" << s.busy_us
               << ",\"utilization_pct\":" << utilization_pct(s.busy_us) << "}";
        });
        os << "],\"nodes\":[";
        for (int k = 0; k < nodes; ++k)
            os << (k ? "," : "") << "{\"node\":" << k
               << ",\"clock_us\":" << system.node(static_cast<net::NodeId>(k)).clock_us()
               << "}";
        auto& reg = system.metrics();
        os << "],\"batch\":{\"frames\":" << reg.counter("rpc.batch.frames").value()
           << ",\"coalesced\":" << reg.counter("rpc.batch.coalesced").value()
           << ",\"entry_bytes\":" << reg.counter("rpc.batch.entry_bytes").value()
           << "}}";
        std::cout << os.str() << "\n";
        return 0;
    }
    std::cout << "virtual time: " << network.now_us() << "us\n"
              << std::left << std::setw(6) << "src" << std::setw(6) << "dst"
              << std::right << std::setw(10) << "messages" << std::setw(12) << "bytes"
              << std::setw(8) << "drops" << std::setw(10) << "coalesced"
              << std::setw(12) << "busy_us" << std::setw(8) << "util%" << "\n";
    // Hot links first: visit_links walks in (src, dst) order, and the
    // stable sort preserves that order among equal byte counts, so the
    // table — truncated or not — is deterministic for a given run.
    struct LinkRow {
        net::NodeId src, dst;
        net::LinkStats s;
    };
    std::vector<LinkRow> rows;
    network.visit_links([&](net::NodeId src, net::NodeId dst, const net::LinkStats& s) {
        rows.push_back(LinkRow{src, dst, s});
    });
    std::stable_sort(rows.begin(), rows.end(), [](const LinkRow& a, const LinkRow& b) {
        return a.s.bytes > b.s.bytes;
    });
    const std::size_t shown = all ? rows.size()
                                  : std::min(rows.size(), kNetTableLinks);
    for (std::size_t k = 0; k < shown; ++k) {
        const LinkRow& r = rows[k];
        std::cout << std::left << std::setw(6) << r.src << std::setw(6) << r.dst
                  << std::right << std::setw(10) << r.s.messages << std::setw(12)
                  << r.s.bytes << std::setw(8) << r.s.drops << std::setw(10)
                  << r.s.coalesced << std::setw(12) << r.s.busy_us
                  << std::setw(8) << std::fixed << std::setprecision(1)
                  << utilization_pct(r.s.busy_us) << "\n";
    }
    if (shown < rows.size())
        std::cout << "... " << rows.size() - shown
                  << " more link(s) (pass --all to list every one)\n";
    const net::LinkStats total = network.total_stats();
    std::cout << std::left << std::setw(12) << "total" << std::right << std::setw(10)
              << total.messages << std::setw(12) << total.bytes << std::setw(8)
              << total.drops << std::setw(10) << total.coalesced << std::setw(12)
              << total.busy_us << "\n";
    if (std::uint64_t frames = system.metrics().counter("rpc.batch.frames").value())
        std::cout << "batch: " << frames << " frame(s), "
                  << system.metrics().counter("rpc.batch.coalesced").value()
                  << " coalesced call(s)\n";
    const int shown_nodes =
        all ? nodes : std::min(nodes, static_cast<int>(kNetTableLinks));
    for (int k = 0; k < shown_nodes; ++k)
        std::cout << "node " << k << " clock "
                  << system.node(static_cast<net::NodeId>(k)).clock_us() << "us\n";
    if (shown_nodes < nodes)
        std::cout << "... " << nodes - shown_nodes
                  << " more node(s) (pass --all to list every one)\n";
    return 0;
}

/// Fault plan, breaker states and rpc reliability counters after a run —
/// the degradation story of a deployment at a glance.
int cmd_faults(const std::string& input, const std::string& config_path,
               const std::string& main_cls, int nodes, bool json) {
    model::ClassPool pool = load_input(input);
    runtime::System system(pool);
    configure_system(system, config_path, nodes);
    system.call_static(0, main_cls, "main", "()V");
    std::cerr << system.node(0).interp().output();

    auto counter = [&](const char* name) {
        return system.metrics().counter(name).value();
    };
    // Restart counts are evaluated at the final virtual time, so every
    // crash window that ended before the run did counts as one restart.
    const std::uint64_t horizon = system.network().now_us();
    auto restarts_of = [&](int k) {
        return system.network().fault_plan().restarts_before(
            static_cast<net::NodeId>(k), horizon);
    };
    if (json) {
        std::ostringstream os;
        os << "{\"virtual_time_us\":" << system.network().now_us()
           << ",\"fault_windows\":[";
        bool first = true;
        system.network().fault_plan().visit([&](const net::FaultWindow& w) {
            if (!first) os << ",";
            first = false;
            os << "{\"kind\":\"" << net::fault_kind_name(w.kind) << "\"";
            if (w.kind == net::FaultKind::NodeCrash)
                os << ",\"node\":" << w.node;
            else
                os << ",\"src\":" << w.src << ",\"dst\":" << w.dst;
            os << ",\"from_us\":" << w.from_us << ",\"until_us\":" << w.until_us;
            if (w.kind == net::FaultKind::LinkFlap)
                os << ",\"period_us\":" << w.period_us;
            if (w.kind == net::FaultKind::DropRate)
                os << ",\"drop_probability\":" << w.drop_probability;
            os << "}";
        });
        os << "],\"breakers\":[";
        first = true;
        system.rpc_path().visit_breakers([&](net::NodeId dst, const std::string& proto,
                                  const runtime::CircuitBreaker& b) {
            if (!first) os << ",";
            first = false;
            os << "{\"node\":" << dst << ",\"protocol\":\"" << proto
               << "\",\"state\":\"" << runtime::breaker_state_name(b.state)
               << "\",\"consecutive_failures\":" << b.consecutive_failures << "}";
        });
        os << "],\"nodes\":[";
        for (int k = 0; k < nodes; ++k)
            os << (k ? "," : "") << "{\"node\":" << k
               << ",\"restarts\":" << restarts_of(k) << "}";
        os << "],\"rpc\":{\"retries\":" << counter("rpc.retries")
           << ",\"retries_reply_loss\":" << counter("rpc.retries_reply_loss")
           << ",\"timeouts\":" << counter("rpc.timeouts")
           << ",\"dedup_hits\":" << counter("rpc.dedup_hits")
           << ",\"breaker_open\":" << counter("rpc.breaker_open") << "}}";
        std::cout << os.str() << "\n";
        return 0;
    }
    std::cout << "virtual time: " << system.network().now_us() << "us\n"
              << "fault plan (" << system.network().fault_plan().size()
              << " windows):\n";
    system.network().fault_plan().visit([&](const net::FaultWindow& w) {
        std::cout << "  " << std::left << std::setw(6) << net::fault_kind_name(w.kind);
        if (w.kind == net::FaultKind::NodeCrash)
            std::cout << "node " << w.node;
        else
            std::cout << "link " << w.src << " -> " << w.dst;
        std::cout << "  [" << w.from_us << ", " << w.until_us << ")us";
        if (w.kind == net::FaultKind::LinkFlap)
            std::cout << " period " << w.period_us << "us";
        if (w.kind == net::FaultKind::DropRate)
            std::cout << " p=" << w.drop_probability;
        std::cout << "\n";
    });
    std::cout << "breakers:\n";
    bool any_breaker = false;
    system.rpc_path().visit_breakers([&](net::NodeId dst, const std::string& proto,
                              const runtime::CircuitBreaker& b) {
        any_breaker = true;
        std::cout << "  node " << dst << " via " << proto << ": "
                  << runtime::breaker_state_name(b.state) << " ("
                  << b.consecutive_failures << " consecutive failures)\n";
    });
    if (!any_breaker) std::cout << "  (none active)\n";
    std::cout << "restarts:\n";
    bool any_restart = false;
    for (int k = 0; k < nodes; ++k) {
        if (const std::uint64_t r = restarts_of(k)) {
            any_restart = true;
            std::cout << "  node " << k << ": " << r << "\n";
        }
    }
    if (!any_restart) std::cout << "  (none)\n";
    std::cout << "rpc: retries " << counter("rpc.retries") << ", reply-loss retries "
              << counter("rpc.retries_reply_loss") << ", timeouts "
              << counter("rpc.timeouts") << ", dedup hits "
              << counter("rpc.dedup_hits") << ", breaker rejections "
              << counter("rpc.breaker_open") << "\n";
    return 0;
}

/// Per-node durability report after a run (DESIGN.md §20): log, snapshot
/// and reply-stream sizes, checkpoint and recovery counts, plus the system-wide wal.*
/// counters and any migration-by-recovery relocations.  Durability comes
/// from the config's `durable` line; a config without one reports every
/// node as soft-state.
int cmd_wal(const std::string& input, const std::string& config_path,
            const std::string& main_cls, int nodes, bool json) {
    model::ClassPool pool = load_input(input);
    runtime::System system(pool);
    configure_system(system, config_path, nodes);
    system.call_static(0, main_cls, "main", "()V");
    std::cerr << system.node(0).interp().output();

    auto counter = [&](const char* name) {
        return system.metrics().counter(name).value();
    };
    if (json) {
        std::ostringstream os;
        os << "{\"virtual_time_us\":" << system.network().now_us()
           << ",\"durable\":" << (system.durability_enabled() ? "true" : "false")
           << ",\"snapshot_interval_us\":" << system.durability().snapshot_interval_us
           << ",\"nodes\":[";
        for (int k = 0; k < nodes; ++k) {
            const runtime::Node& n = system.node(static_cast<net::NodeId>(k));
            os << (k ? "," : "") << "{\"node\":" << k << ",\"durable\":"
               << (n.durable() ? "true" : "false");
            if (n.durable()) {
                const runtime::WalStats& s = n.wal()->stats();
                os << ",\"log_bytes\":" << n.wal()->log().size()
                   << ",\"snapshot_bytes\":" << n.wal()->snapshot().size()
                   << ",\"reply_bytes\":" << n.wal()->replies().size()
                   << ",\"records\":" << s.records << ",\"snapshots\":" << s.snapshots
                   << ",\"recoveries\":" << s.recoveries
                   << ",\"replayed\":" << s.replayed;
            }
            if (const runtime::System::Relocation* rel =
                    system.relocation_of(static_cast<net::NodeId>(k)))
                os << ",\"relocated_to\":" << rel->target
                   << ",\"relocated_objects\":" << rel->remap.size();
            os << "}";
        }
        os << "],\"counters\":{\"records\":" << counter("wal.records")
           << ",\"bytes\":" << counter("wal.bytes")
           << ",\"snapshots\":" << counter("wal.snapshots")
           << ",\"recoveries\":" << counter("wal.recoveries")
           << ",\"replayed_records\":" << counter("wal.replayed_records")
           << ",\"relocated_objects\":" << counter("wal.relocated_objects") << "}}";
        std::cout << os.str() << "\n";
        return 0;
    }
    std::cout << "virtual time: " << system.network().now_us() << "us; durability "
              << (system.durability_enabled() ? "on" : "off");
    if (system.durability_enabled())
        std::cout << " (snapshot interval "
                  << system.durability().snapshot_interval_us << "us)";
    std::cout << "\n"
              << std::left << std::setw(6) << "node" << std::right << std::setw(10)
              << "log_B" << std::setw(12) << "snap_B" << std::setw(10) << "reply_B"
              << std::setw(10) << "records"
              << std::setw(10) << "snaps" << std::setw(10) << "recov"
              << std::setw(10) << "replayed" << "  relocated\n";
    for (int k = 0; k < nodes; ++k) {
        const runtime::Node& n = system.node(static_cast<net::NodeId>(k));
        std::cout << std::left << std::setw(6) << k << std::right;
        if (n.durable()) {
            const runtime::WalStats& s = n.wal()->stats();
            std::cout << std::setw(10) << n.wal()->log().size() << std::setw(12)
                      << n.wal()->snapshot().size() << std::setw(10)
                      << n.wal()->replies().size() << std::setw(10) << s.records
                      << std::setw(10) << s.snapshots << std::setw(10)
                      << s.recoveries << std::setw(10) << s.replayed;
        } else {
            std::cout << std::setw(10) << "-" << std::setw(12) << "-"
                      << std::setw(10) << "-" << std::setw(10) << "-" << std::setw(10) << "-"
                      << std::setw(10) << "-" << std::setw(10) << "-";
        }
        if (const runtime::System::Relocation* rel =
                system.relocation_of(static_cast<net::NodeId>(k)))
            std::cout << "  -> node " << rel->target << " (" << rel->remap.size()
                      << " object(s))";
        std::cout << "\n";
    }
    std::cout << "wal: " << counter("wal.records") << " record(s), "
              << counter("wal.bytes") << " byte(s), " << counter("wal.snapshots")
              << " snapshot(s), " << counter("wal.recoveries") << " recover(ies), "
              << counter("wal.replayed_records") << " replayed, "
              << counter("wal.relocated_objects") << " relocated\n";
    return 0;
}

/// The adaptation engine's decision log after a run (DESIGN.md §19):
/// what moved or replicated where, why (window traffic), and how the
/// projection compared to the realized window-over-window saving.  The
/// entry point runs under a WorkloadDriver so the controller heartbeat
/// is scheduled; a config without an `adapt` line still gets the engine
/// at defaults — the subcommand's whole point is the report.
int cmd_adapt(const std::string& input, const std::string& config_path,
              const std::string& main_cls, int nodes, bool json) {
    model::ClassPool pool = load_input(input);
    runtime::System system(pool);
    configure_system(system, config_path, nodes);
    if (!system.adaptation_enabled()) system.enable_adaptation();
    runtime::WorkloadDriver driver(system);
    driver.add_client(0, 1, [&main_cls](runtime::System& s, net::NodeId n) {
        s.call_static(n, main_cls, "main", "()V");
    });
    driver.run();
    std::cerr << system.node(0).interp().output();

    const runtime::AdaptationEngine* engine = system.adaptation();
    auto counter = [&](const char* name) {
        return system.metrics().counter(name).value();
    };
    if (json) {
        std::ostringstream os;
        os << "{\"virtual_time_us\":" << system.network().now_us()
           << ",\"ticks\":" << engine->ticks_run() << ",\"decisions\":[";
        bool first = true;
        for (const runtime::AdaptDecision& d : engine->decisions()) {
            if (!first) os << ",";
            first = false;
            os << "{\"seq\":" << d.seq << ",\"t_us\":" << d.t_us
               << ",\"class\":\"" << d.cls << "\",\"action\":\""
               << runtime::adapt_action_name(d.action) << "\",\"from\":" << d.from
               << ",\"to\":" << d.to << ",\"window_calls\":" << d.window_calls
               << ",\"window_bytes\":" << d.window_bytes
               << ",\"projected_saved_bytes\":" << d.projected_saved_bytes;
            if (d.realized_known)
                os << ",\"realized_saved_bytes\":" << d.realized_saved_bytes;
            os << "}";
        }
        os << "],\"counters\":{\"decisions\":" << counter("adapt.decisions")
           << ",\"migrations\":" << counter("adapt.migrations")
           << ",\"replications\":" << counter("adapt.replications")
           << ",\"invalidations\":" << counter("adapt.invalidations")
           << ",\"replica_reads\":" << counter("adapt.replica_reads")
           << ",\"bytes_saved_est\":" << counter("adapt.bytes_saved_est")
           << "}}";
        std::cout << os.str() << "\n";
        return 0;
    }
    std::cout << "virtual time: " << system.network().now_us() << "us; "
              << engine->ticks_run() << " controller tick(s), "
              << engine->decisions().size() << " decision(s)\n"
              << std::left << std::setw(6) << "seq" << std::setw(10) << "t_us"
              << std::setw(11) << "action" << std::setw(16) << "class"
              << std::setw(10) << "move" << std::right << std::setw(8) << "calls"
              << std::setw(12) << "projected" << std::setw(12) << "realized"
              << "\n";
    for (const runtime::AdaptDecision& d : engine->decisions()) {
        std::ostringstream move;
        move << d.from << " -> " << d.to;
        std::cout << std::left << std::setw(6) << d.seq << std::setw(10) << d.t_us
                  << std::setw(11) << runtime::adapt_action_name(d.action)
                  << std::setw(16) << d.cls << std::setw(10) << move.str()
                  << std::right << std::setw(8) << d.window_calls << std::setw(12)
                  << d.projected_saved_bytes << std::setw(12);
        if (d.realized_known)
            std::cout << d.realized_saved_bytes;
        else
            std::cout << "?";
        std::cout << "\n";
    }
    std::cout << "adapt: " << counter("adapt.migrations") << " migration(s), "
              << counter("adapt.replications") << " replication(s), "
              << counter("adapt.invalidations") << " invalidation(s), "
              << counter("adapt.replica_reads") << " replica read(s), est. "
              << counter("adapt.bytes_saved_est") << " bytes saved\n";
    return 0;
}

int usage() {
    std::cerr << "usage:\n"
              << "  rafdac analyze   <app.rir[b]>\n"
              << "  rafdac transform <app.rir> <out.rirb>\n"
              << "  rafdac print     <app.rir[b]>\n"
              << "  rafdac run       <app.rir> <MainClass>\n"
              << "  rafdac deploy    <app.rir> <policy.cfg> <MainClass> [nodes=2]\n"
              << "  rafdac stats     <app.rir> <policy.cfg> <MainClass> [nodes=2] [--json]\n"
              << "                   [--all]\n"
              << "  rafdac trace     <app.rir> <policy.cfg> <MainClass> [nodes=2] [--json]\n"
              << "                   [--chrome <out.json>]\n"
              << "  rafdac journal   <app.rir> <policy.cfg> <MainClass> [nodes=2] [--json]\n"
              << "  rafdac net       <app.rir> <policy.cfg> <MainClass> [nodes=2] [--json]\n"
              << "                   [--all]\n"
              << "  rafdac faults    <app.rir> <policy.cfg> <MainClass> [nodes=2] [--json]\n"
              << "  rafdac adapt     <app.rir> <policy.cfg> <MainClass> [nodes=2] [--json]\n"
              << "  rafdac wal       <app.rir> <policy.cfg> <MainClass> [nodes=2] [--json]\n"
              << "\n"
              << "stats/net tables list the top samples/links (by name / by bytes);\n"
              << "--all lifts the cap.  JSON output is always complete.\n"
              << "\n"
              << "environment:\n"
              << "  RAFDA_TRANSFORM_THREADS  worker threads for transform/deploy\n"
              << "                           (default: all cores; output is\n"
              << "                           identical at any value)\n";
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    bool json = false;
    if (auto it = std::find(args.begin(), args.end(), "--json"); it != args.end()) {
        json = true;
        args.erase(it);
    }
    bool all = false;
    if (auto it = std::find(args.begin(), args.end(), "--all"); it != args.end()) {
        all = true;
        args.erase(it);
    }
    std::string chrome_path;
    if (auto it = std::find(args.begin(), args.end(), "--chrome"); it != args.end()) {
        if (std::next(it) == args.end()) return usage();
        chrome_path = *std::next(it);
        args.erase(it, std::next(it, 2));
    }
    const auto nodes = [&] { return args.size() == 5 ? parse_nodes(args[4]) : 2; };
    try {
        if (args.size() == 2 && args[0] == "analyze") return cmd_analyze(args[1]);
        if (args.size() == 3 && args[0] == "transform")
            return cmd_transform(args[1], args[2]);
        if (args.size() == 2 && args[0] == "print") return cmd_print(args[1]);
        if (args.size() == 3 && args[0] == "run") return cmd_run(args[1], args[2]);
        if ((args.size() == 4 || args.size() == 5) && args[0] == "deploy")
            return cmd_deploy(args[1], args[2], args[3], nodes());
        if ((args.size() == 4 || args.size() == 5) &&
            (args[0] == "stats" || args[0] == "trace" || args[0] == "journal"))
            return cmd_observe(args[1], args[2], args[3], nodes(),
                               args[0] == "trace"     ? ObserveMode::Trace
                               : args[0] == "journal" ? ObserveMode::Journal
                                                      : ObserveMode::Stats,
                               json, all, args[0] == "trace" ? chrome_path : "");
        if ((args.size() == 4 || args.size() == 5) && args[0] == "net")
            return cmd_net(args[1], args[2], args[3], nodes(), json, all);
        if ((args.size() == 4 || args.size() == 5) && args[0] == "faults")
            return cmd_faults(args[1], args[2], args[3], nodes(), json);
        if ((args.size() == 4 || args.size() == 5) && args[0] == "adapt")
            return cmd_adapt(args[1], args[2], args[3], nodes(), json);
        if ((args.size() == 4 || args.size() == 5) && args[0] == "wal")
            return cmd_wal(args[1], args[2], args[3], nodes(), json);
        return usage();
    } catch (const std::exception& e) {
        std::cerr << "rafdac: " << e.what() << "\n";
        return 2;
    }
}
