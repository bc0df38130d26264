// Shared guest programs and helpers for the experiment benches.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "model/assembler.hpp"
#include "model/classpool.hpp"
#include "model/verifier.hpp"
#include "obs/export.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace rafda::bench {

/// Machine-readable experiment record.  Every bench main() ends by
/// emitting one single-line JSON object — also mirrored to
/// `BENCH_<experiment>.json` in the working directory — so a harness can
/// scrape the deterministic virtual-time results without parsing the
/// human tables above it.  Values come from the simulation (virtual
/// clock, metric snapshots), never from wall-clock timings.
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

/// A compute-service class used by the dispatch/placement benches: `work`
/// mixes field access, arithmetic and an optional string payload echo.
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

/// The Figure 1 trio (A and B sharing a C), used by the redistribution
/// bench.
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

/// A field-heavy class for the property-access bench.
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

/// Allocation-heavy app for the factory bench.
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
inline std::string windows_json(const runtime::WorkloadDriver::Report& report) {
    std::string out = "[";
    for (std::size_t k = 0; k < report.windows.size(); ++k) {
        const runtime::WorkloadDriver::Window& w = report.windows[k];
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
