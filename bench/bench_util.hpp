// Shared guest programs and helpers for the experiments.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "model/assembler.hpp"
#include "model/classpool.hpp"
#include "model/verifier.hpp"
#include "obs/export.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"
#include "transform/local_binder.hpp"
#include "transform/pipeline.hpp"
#include "vm/interp.hpp"
#include "vm/prelude.hpp"
#include "wrapper/wrapper_pipeline.hpp"

namespace rafda::bench {

/// Machine-readable experiment record.  Every experiment ends by
/// emitting one single-line JSON object — also mirrored to
/// `BENCH_<experiment>.json` in the working directory — so a harness can
/// scrape the deterministic virtual-time results without parsing the
/// human tables above it.  Values come from the simulation (virtual
/// clock, metric snapshots, VM counters), never from wall-clock timings.
class JsonSummary {
public:
    explicit JsonSummary(std::string experiment) : experiment_(std::move(experiment)) {}

    JsonSummary& add(const std::string& key, std::uint64_t v) {
        fields_.emplace_back(key, std::to_string(v));
        return *this;
    }
    JsonSummary& add(const std::string& key, double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        fields_.emplace_back(key, buf);
        return *this;
    }
    JsonSummary& add(const std::string& key, const std::string& v) {
        fields_.emplace_back(key, "\"" + obs::json_escape(v) + "\"");
        return *this;
    }
    /// Splices a pre-rendered JSON value (array/object) in verbatim — for
    /// structured sections like traffic matrices and window time series.
    JsonSummary& add_raw(const std::string& key, std::string raw_json) {
        fields_.emplace_back(key, std::move(raw_json));
        return *this;
    }

    std::string str() const {
        std::string out = "{\"experiment\":\"" + obs::json_escape(experiment_) + "\"";
        for (const auto& [k, v] : fields_) out += ",\"" + obs::json_escape(k) + "\":" + v;
        out += "}";
        return out;
    }

    /// Prints the record as the final stdout line and writes the sidecar
    /// file.
    void emit() const {
        const std::string line = str();
        std::ofstream("BENCH_" + experiment_ + ".json") << line << "\n";
        std::printf("%s\n", line.c_str());
    }

private:
    std::string experiment_;
    std::vector<std::pair<std::string, std::string>> fields_;
};

/// Repetitions behind every host wall time an experiment prints.
inline constexpr int kHostReps = 5;

/// Best (smallest) of `reps` host wall times of `fn`, in microseconds.
/// A `fn` returning void is timed whole; one returning a double times its
/// own critical section and returns that in microseconds (a run whose
/// setup must not count).  Host times are advisory: experiments print
/// them in rows labelled host/advisory and never feed them into a
/// sidecar.
template <typename Fn>
double best_wall_us(int reps, Fn&& fn) {
    using Result = std::invoke_result_t<Fn&>;
    static_assert(std::is_void_v<Result> || std::is_same_v<Result, double>,
                  "fn returns nothing, or its own wall time in microseconds");
    double best = std::numeric_limits<double>::infinity();
    for (int k = 0; k < reps; ++k) {
        if constexpr (std::is_void_v<Result>) {
            const auto t0 = std::chrono::steady_clock::now();
            fn();
            best = std::min(best, std::chrono::duration<double, std::micro>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count());
        } else {
            best = std::min(best, fn());
        }
    }
    return best;
}

/// A compute-service class used by the dispatch and serving experiments:
/// `work` mixes field access, arithmetic and an optional string payload
/// echo.
inline constexpr const char* kServiceApp = R"RIR(
class Service {
  field acc J
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
    load 0
    load 0
    getfield Service.acc J
    const 3L
    mul
    load 1
    add
    putfield Service.acc J
    load 0
    getfield Service.acc J
    returnvalue
  }
  method echo (S)S {
    load 1
    returnvalue
  }
}
)RIR";

/// A Service with an exact execution counter, so duplicate executions
/// (from reply-loss retries, or a retry against a restarted server) are
/// directly observable: used by E10, E12 and E15.
inline constexpr const char* kCountingServiceApp = R"RIR(
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
    const 2L
    mul
    returnvalue
  }
  method calls ()I {
    load 0
    getfield Service.calls I
    returnvalue
  }
}
)RIR";

/// The Figure 1 trio (A and B sharing a C), used by E2.
inline constexpr const char* kFig1App = R"RIR(
class C {
  field state I
  field blob S
  ctor ()V {
    return
  }
  method poke ()I {
    load 0
    load 0
    getfield C.state I
    const 1
    add
    putfield C.state I
    load 0
    getfield C.state I
    returnvalue
  }
  method setBlob (S)V {
    load 0
    load 1
    putfield C.blob S
    return
  }
}
class A {
  field c LC;
  ctor (LC;)V {
    load 0
    load 1
    putfield A.c LC;
    return
  }
  method act ()I {
    load 0
    getfield A.c LC;
    invokevirtual C.poke ()I
    returnvalue
  }
}
)RIR";

/// A field-heavy class for E8's property-access loop.
inline constexpr const char* kHotFieldApp = R"RIR(
class Cell {
  field v J
  ctor ()V {
    return
  }
}
class Driver {
  static method spin (LCell;I)J {
    locals 2
  Top:
    load 1
    const 0
    cmple
    iftrue Done
    load 0
    load 0
    getfield Cell.v J
    const 1L
    add
    putfield Cell.v J
    load 1
    const 1
    sub
    store 1
    goto Top
  Done:
    load 0
    getfield Cell.v J
    returnvalue
  }
}
)RIR";

/// Allocation-heavy app for E4 and E7.
inline constexpr const char* kAllocApp = R"RIR(
class Item {
  field id I
  ctor (I)V {
    load 0
    load 1
    putfield Item.id I
    return
  }
}
class Alloc {
  static field made I
  static method burst (I)I {
    locals 2
    const 0
    store 1
  Top:
    load 1
    load 0
    cmpge
    iftrue Done
    new Item
    dup
    load 1
    invokespecial Item.<init> (I)V
    pop
    getstatic Alloc.made I
    const 1
    add
    putstatic Alloc.made I
    load 1
    const 1
    add
    store 1
    goto Top
  Done:
    getstatic Alloc.made I
    returnvalue
  }
}
)RIR";

inline model::ClassPool assemble_app(const char* src) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, src);
    model::verify_pool(pool);
    return pool;
}

/// One guest program ready to run three ways, each on its own interpreter
/// with the prelude natives bound: untransformed, RAFDA-transformed with
/// every class bound to its local implementation, and wrapper-generated.
struct Variants {
    model::ClassPool pool;
    vm::Interpreter original_vm;
    transform::PipelineResult transformed;
    vm::Interpreter rafda_vm;
    wrapper::WrapperResult wrapped;
    vm::Interpreter wrapper_vm;

    explicit Variants(model::ClassPool program)
        : pool(std::move(program)),
          original_vm(pool),
          transformed(transform::run_pipeline(pool)),
          rafda_vm(transformed.pool),
          wrapped(wrapper::run_wrapper_pipeline(pool)),
          wrapper_vm(wrapped.pool) {
        vm::bind_prelude_natives(original_vm);
        vm::bind_prelude_natives(rafda_vm);
        transform::bind_local_factories(rafda_vm, transformed.report);
        vm::bind_prelude_natives(wrapper_vm);
    }

    /// Calls an original static entry point through the transformed
    /// program.
    vm::Value rafda_static(const std::string& cls, const std::string& method,
                           const std::string& desc, std::vector<vm::Value> args = {}) {
        return transform::call_transformed_static(rafda_vm, pool, transformed.report, cls,
                                                  method, desc, std::move(args));
    }
};

/// Retries with capped exponential backoff plus exactly-once dedup: the
/// reliable configuration of E10, E12 and E15.
inline runtime::RetryPolicy reliable_retries() {
    runtime::RetryPolicy p;
    p.attempts = 12;
    p.backoff_base_us = 200;
    p.backoff_multiplier = 2.0;
    p.backoff_cap_us = 30'000;
    p.dedup = true;
    return p;
}

/// The latest clock among client nodes 1..clients: faults starting there
/// spare the fault-free construction traffic.
inline std::uint64_t clients_ready_us(runtime::System& system, int clients) {
    std::uint64_t t0 = 0;
    for (int k = 1; k <= clients; ++k)
        t0 = std::max(t0, system.node(static_cast<net::NodeId>(k)).clock_us());
    return t0;
}

/// Seeded loss with probability `p` from `from_us` on, on the link from
/// each client node 1..clients to server node 0 — and back, when
/// `replies` is set.
inline void add_client_loss(runtime::System& system, int clients, double p,
                            std::uint64_t from_us, bool replies) {
    for (int k = 1; k <= clients; ++k) {
        for (bool inbound : {false, true}) {
            if (inbound && !replies) continue;
            net::FaultWindow w;
            w.kind = net::FaultKind::DropRate;
            w.src = inbound ? 0 : static_cast<net::NodeId>(k);
            w.dst = inbound ? static_cast<net::NodeId>(k) : 0;
            w.from_us = from_us;
            w.until_us = ~0ULL;
            w.drop_probability = p;
            system.network().fault_plan().add(w);
        }
    }
}

/// Executions observed server-side: the sum of `calls()` over each client
/// node k's Service, services[k - 1] (kCountingServiceApp).
inline std::int64_t executions(runtime::System& system,
                               const std::vector<vm::Value>& services) {
    std::int64_t total = 0;
    for (std::size_t k = 0; k < services.size(); ++k)
        total += system.node(static_cast<net::NodeId>(k + 1))
                     .interp()
                     .call_virtual(services[k], "calls", "()I")
                     .as_int();
    return total;
}

/// The per-(class, src, dst) traffic matrix as a raw JSON array, edges in
/// deterministic (class, src, dst) order: who talks to whom, how often,
/// and how many wire bytes it cost (requests + replies, retries included).
inline std::string traffic_matrix_json(const runtime::System& system) {
    std::string out = "[";
    bool first = true;
    for (const auto& [cls, row] : system.traffic()) {
        for (const auto& [edge, ctr] : row.edges) {
            const std::uint64_t calls = ctr.calls->value();
            const std::uint64_t bytes = ctr.bytes->value();
            if (!calls && !bytes) continue;
            if (!first) out += ",";
            first = false;
            out += "{\"class\":\"" + obs::json_escape(cls) +
                   "\",\"src\":" + std::to_string(edge.first) +
                   ",\"dst\":" + std::to_string(edge.second) +
                   ",\"calls\":" + std::to_string(calls) +
                   ",\"bytes\":" + std::to_string(bytes) + "}";
        }
    }
    return out + "]";
}

/// A WorkloadDriver report's closed windows as a raw JSON array — the
/// time-series view of a run (calls and wire bytes per window of virtual
/// time).
inline std::string windows_json(
    const std::vector<runtime::WorkloadDriver::Window>& windows) {
    std::string out = "[";
    for (std::size_t k = 0; k < windows.size(); ++k) {
        const runtime::WorkloadDriver::Window& w = windows[k];
        if (k) out += ",";
        out += "{\"start_us\":" + std::to_string(w.start_us) +
               ",\"end_us\":" + std::to_string(w.end_us) +
               ",\"tasks\":" + std::to_string(w.tasks) +
               ",\"rpc_calls\":" + std::to_string(w.rpc_calls) +
               ",\"wire_bytes\":" + std::to_string(w.wire_bytes) + "}";
    }
    return out + "]";
}

}  // namespace rafda::bench
