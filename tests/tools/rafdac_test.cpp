// End-to-end tests of the rafdac CLI binary (path injected by CMake).
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "model/binio.hpp"
#include "model/builder.hpp"

namespace {

struct RunResult {
    int status = -1;
    std::string output;
};

RunResult run_shell(const std::string& cmd) {
    std::array<char, 512> buf{};
    RunResult result;
    FILE* pipe = popen(cmd.c_str(), "r");
    if (!pipe) return result;
    while (fgets(buf.data(), buf.size(), pipe)) result.output += buf.data();
    int rc = pclose(pipe);
    result.status = WEXITSTATUS(rc);
    return result;
}

/// Runs rafdac; the output is stdout only.
RunResult run_cli(const std::string& args) {
    return run_shell(std::string(RAFDAC_PATH) + " " + args + " 2>/dev/null");
}

/// Runs rafdac under a 10 s timeout (a hang exits 124) with stderr, where
/// rafdac names a processing error, folded into the output.
RunResult run_cli_bounded(const std::string& args) {
    return run_shell("timeout 10 " + std::string(RAFDAC_PATH) + " " + args + " 2>&1");
}

/// Writes `classes` as a .rirb artefact, unverified, as a foreign tool
/// might.
void write_rirb(const std::string& path, std::vector<rafda::model::ClassFile> classes) {
    rafda::model::ClassPool pool;
    for (rafda::model::ClassFile& cf : classes) pool.add(std::move(cf));
    const rafda::Bytes bytes = rafda::model::save_pool(pool);
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
}

/// A class whose one static method `main()V` has `body` as its code.
rafda::model::ClassFile class_with_static(const std::string& name, const std::string& super,
                                          std::vector<rafda::model::Instruction> body) {
    rafda::model::ClassFile cf = rafda::model::ClassBuilder(name).extends(super).build();
    rafda::model::Method m;
    m.name = "main";
    m.sig = rafda::model::MethodSig({}, rafda::model::TypeDesc::void_());
    m.is_static = true;
    m.code.instrs = std::move(body);
    cf.methods.push_back(std::move(m));
    return cf;
}

/// Minimal recursive-descent JSON checker — just enough of a parser to
/// prove the --json outputs round-trip through one.
class JsonChecker {
public:
    explicit JsonChecker(const std::string& s) : s_(s) {}

    bool valid() {
        skip_ws();
        if (!value()) return false;
        skip_ws();
        return pos_ == s_.size();
    }

private:
    bool eat(char c) {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }
    void skip_ws() {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                    s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }
    bool value() {
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }
    bool object() {
        if (!eat('{')) return false;
        skip_ws();
        if (eat('}')) return true;
        do {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (!eat(':')) return false;
            skip_ws();
            if (!value()) return false;
            skip_ws();
        } while (eat(','));
        return eat('}');
    }
    bool array() {
        if (!eat('[')) return false;
        skip_ws();
        if (eat(']')) return true;
        do {
            skip_ws();
            if (!value()) return false;
            skip_ws();
        } while (eat(','));
        return eat(']');
    }
    bool string() {
        if (!eat('"')) return false;
        while (pos_ < s_.size()) {
            char c = s_[pos_++];
            if (c == '"') return true;
            if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
            if (c == '\\') {
                if (pos_ >= s_.size()) return false;
                char e = s_[pos_++];
                if (e == 'u') {
                    for (int k = 0; k < 4; ++k)
                        if (pos_ >= s_.size() || !std::isxdigit(
                                static_cast<unsigned char>(s_[pos_++])))
                            return false;
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
        }
        return false;
    }
    bool number() {
        std::size_t start = pos_;
        eat('-');
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start + (s_[start] == '-' ? 1u : 0u);
    }
    bool literal(const char* word) {
        for (const char* p = word; *p; ++p)
            if (!eat(*p)) return false;
        return true;
    }

    const std::string& s_;
    std::size_t pos_ = 0;
};

bool json_parses(const std::string& s) { return JsonChecker(s).valid(); }

class RafdacCli : public ::testing::Test {
protected:
    std::string app_;  // per-test file names: tests run concurrently under
    std::string cfg_;  // ctest -j and must not clobber each other's inputs

    void SetUp() override {
        const std::string base = std::string(::testing::TempDir()) + "rafdac_" +
                                 ::testing::UnitTest::GetInstance()
                                     ->current_test_info()
                                     ->name();
        app_ = base + "_app.rir";
        cfg_ = base + "_policy.cfg";
        std::ofstream app(app_);
        app << R"(
class Greeter {
  field who S
  ctor (S)V {
    load 0
    load 1
    putfield Greeter.who S
    return
  }
  method greet ()S {
    const "hello, "
    load 0
    getfield Greeter.who S
    concat
    returnvalue
  }
}
class Main {
  static method main ()V {
    new Greeter
    dup
    const "cli"
    invokespecial Greeter.<init> (S)V
    invokevirtual Greeter.greet ()S
    invokestatic Sys.println (S)V
    return
  }
}
)";
        std::ofstream cfg(cfg_);
        cfg << "protocol default SOAP\ninstance Greeter on 1 via SOAP\n";
    }
};

TEST_F(RafdacCli, Analyze) {
    RunResult r = run_cli("analyze " + app_);
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("transformable:      2"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("Sys: native-method"), std::string::npos);
    EXPECT_NE(r.output.find("Throwable: special-class"), std::string::npos);
}

TEST_F(RafdacCli, RunLocal) {
    RunResult r = run_cli("run " + app_ + " Main");
    EXPECT_EQ(r.status, 0);
    EXPECT_EQ(r.output, "hello, cli\n");
}

TEST_F(RafdacCli, TransformThenPrintArtefact) {
    RunResult t = run_cli("transform " + app_ + " " + app_ + "b");
    EXPECT_EQ(t.status, 0);
    EXPECT_NE(t.output.find("substituted 2"), std::string::npos) << t.output;

    RunResult p = run_cli("print " + app_ + "b");
    EXPECT_EQ(p.status, 0);
    EXPECT_NE(p.output.find("interface Greeter_O_Int"), std::string::npos);
    EXPECT_NE(p.output.find("class Greeter_O_Factory"), std::string::npos);
}

TEST_F(RafdacCli, DeployDistributed) {
    RunResult r = run_cli("deploy " + app_ + " " + cfg_ + " Main 2");
    EXPECT_EQ(r.status, 0);
    EXPECT_EQ(r.output, "hello, cli\n");  // identical application output
}

TEST_F(RafdacCli, StatsPrintsRegistryTable) {
    RunResult r = run_cli("stats " + app_ + " " + cfg_ + " Main 2");
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("rpc.proto.SOAP.calls"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("net.link.0.1.bytes"), std::string::npos);
    EXPECT_NE(r.output.find("vm.node0.instructions"), std::string::npos);
    // The application's own output goes to stderr, keeping stdout machine-
    // readable.
    EXPECT_EQ(r.output.find("hello, cli"), std::string::npos);
}

TEST_F(RafdacCli, StatsJsonRoundTripsThroughParser) {
    RunResult r = run_cli("stats " + app_ + " " + cfg_ + " Main 2 --json");
    EXPECT_EQ(r.status, 0);
    // One line of JSON, nothing else.
    ASSERT_FALSE(r.output.empty());
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1);
    EXPECT_TRUE(json_parses(r.output)) << r.output;
    EXPECT_NE(r.output.find("\"rpc.proto.SOAP.calls\":"), std::string::npos);
}

TEST_F(RafdacCli, TraceShowsNestedSpanTree) {
    RunResult r = run_cli("trace " + app_ + " " + cfg_ + " Main 2");
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("rpc.invoke Greeter.greet"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("rpc.dispatch greet"), std::string::npos);
    EXPECT_NE(r.output.find("vm.execute greet"), std::string::npos);
    EXPECT_NE(r.output.find("net.transfer 0->1"), std::string::npos);
    EXPECT_NE(r.output.find("└─"), std::string::npos);  // actual nesting
}

TEST_F(RafdacCli, TraceJsonRoundTripsThroughParser) {
    RunResult r = run_cli("trace " + app_ + " " + cfg_ + " Main 2 --json");
    EXPECT_EQ(r.status, 0);
    ASSERT_FALSE(r.output.empty());
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1);
    EXPECT_TRUE(json_parses(r.output)) << r.output;
    EXPECT_NE(r.output.find("\"name\":\"rpc.dispatch greet\""), std::string::npos);
}

TEST_F(RafdacCli, NetPrintsPerLinkOccupancyTable) {
    RunResult r = run_cli("net " + app_ + " " + cfg_ + " Main 2");
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("virtual time:"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("busy_us"), std::string::npos);
    EXPECT_NE(r.output.find("util%"), std::string::npos);
    EXPECT_NE(r.output.find("node 0 clock"), std::string::npos);
    EXPECT_NE(r.output.find("node 1 clock"), std::string::npos);
    // Application output stays on stderr.
    EXPECT_EQ(r.output.find("hello, cli"), std::string::npos);
}

TEST_F(RafdacCli, NetJsonRoundTripsThroughParser) {
    RunResult r = run_cli("net " + app_ + " " + cfg_ + " Main 2 --json");
    EXPECT_EQ(r.status, 0);
    ASSERT_FALSE(r.output.empty());
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1);
    EXPECT_TRUE(json_parses(r.output)) << r.output;
    EXPECT_NE(r.output.find("\"busy_us\":"), std::string::npos);
    EXPECT_NE(r.output.find("\"clock_us\":"), std::string::npos);
}

TEST_F(RafdacCli, JournalPrintsEventTable) {
    RunResult r = run_cli("journal " + app_ + " " + cfg_ + " Main 2");
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("journal:"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("recorded, 0 overwritten"), std::string::npos);
    // The deployment's RPC lifecycle is on the timeline, with the
    // class.method detail on the send.
    for (const char* kind : {"send", "arrive", "dispatch", "reply"})
        EXPECT_NE(r.output.find(kind), std::string::npos) << kind;
    EXPECT_NE(r.output.find("Greeter.greet"), std::string::npos);
    // Application output stays on stderr.
    EXPECT_EQ(r.output.find("hello, cli"), std::string::npos);
}

TEST_F(RafdacCli, JournalJsonRoundTripsThroughParser) {
    RunResult r = run_cli("journal " + app_ + " " + cfg_ + " Main 2 --json");
    EXPECT_EQ(r.status, 0);
    ASSERT_FALSE(r.output.empty());
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1);
    EXPECT_TRUE(json_parses(r.output)) << r.output;
    EXPECT_NE(r.output.find("\"events\":["), std::string::npos);
    EXPECT_NE(r.output.find("\"kind\":\"send\""), std::string::npos);
    EXPECT_NE(r.output.find("\"kind\":\"dispatch\""), std::string::npos);
}

TEST_F(RafdacCli, TraceChromeWritesLoadableTraceEventJson) {
    const std::string out = app_ + "_chrome.json";
    RunResult r = run_cli("trace " + app_ + " " + cfg_ + " Main 2 --chrome " + out);
    EXPECT_EQ(r.status, 0);
    // The span tree still goes to stdout; the Chrome export is a file.
    EXPECT_NE(r.output.find("rpc.invoke Greeter.greet"), std::string::npos);

    std::ifstream in(out);
    ASSERT_TRUE(in.good()) << out;
    std::string doc((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_TRUE(json_parses(doc)) << doc;
    // Trace-event essentials Perfetto's legacy ingest requires: complete
    // ("X") span events with timestamps, process/thread metadata naming
    // the nodes and client lanes.
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"ts\":"), std::string::npos);
    EXPECT_NE(doc.find("\"pid\":"), std::string::npos);
    EXPECT_NE(doc.find("process_name"), std::string::npos);
    EXPECT_NE(doc.find("rpc.dispatch greet"), std::string::npos);
    std::remove(out.c_str());
}

class RafdacFaultsCli : public RafdacCli {
protected:
    std::string faults_cfg_;

    void SetUp() override {
        RafdacCli::SetUp();
        faults_cfg_ = cfg_ + ".faults";
        std::ofstream cfg(faults_cfg_);
        cfg << "protocol default SOAP\n"
               "instance Greeter on 1 via SOAP\n"
               "retry attempts 5 base 1000\n"
               "dedup on capacity 64\n"
               "breaker threshold 5 cooldown 9000\n"
               "fault link 0 -> 1 down from 100000 until 200000\n"
               "fault node 1 crash from 300000 until 400000\n";
    }
};

TEST_F(RafdacFaultsCli, FaultsPrintsPlanAndBreakerTable) {
    RunResult r = run_cli("faults " + app_ + " " + faults_cfg_ + " Main 2");
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("fault plan (2 windows):"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("down  link 0 -> 1  [100000, 200000)us"),
              std::string::npos);
    EXPECT_NE(r.output.find("crash node 1  [300000, 400000)us"), std::string::npos);
    // The breaker for (node 1, SOAP) exists and never tripped.
    EXPECT_NE(r.output.find("node 1 via SOAP: closed"), std::string::npos);
    EXPECT_NE(r.output.find("rpc: retries"), std::string::npos);
    // Application output stays on stderr.
    EXPECT_EQ(r.output.find("hello, cli"), std::string::npos);
}

TEST_F(RafdacFaultsCli, FaultsJsonRoundTripsThroughParser) {
    RunResult r = run_cli("faults " + app_ + " " + faults_cfg_ + " Main 2 --json");
    EXPECT_EQ(r.status, 0);
    ASSERT_FALSE(r.output.empty());
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1);
    EXPECT_TRUE(json_parses(r.output)) << r.output;
    EXPECT_NE(r.output.find("\"fault_windows\":"), std::string::npos);
    EXPECT_NE(r.output.find("\"kind\":\"down\""), std::string::npos);
    EXPECT_NE(r.output.find("\"kind\":\"crash\""), std::string::npos);
    EXPECT_NE(r.output.find("\"state\":\"closed\""), std::string::npos);
    EXPECT_NE(r.output.find("\"dedup_hits\":"), std::string::npos);
}

TEST_F(RafdacFaultsCli, RetryPolicyFromConfigRecoversInjectedLoss) {
    // A drop-everything window over the deployment's first moments: the
    // Create request is lost, the configured retry re-sends it, and the
    // application output is indistinguishable from a fault-free run.
    std::ofstream(faults_cfg_) << "protocol default SOAP\n"
                                  "instance Greeter on 1 via SOAP\n"
                                  "retry attempts 5 base 1000\n"
                                  "dedup on\n"
                                  "fault link 0 -> 1 drop 1.0 from 0 until 400\n";
    RunResult deploy = run_cli("deploy " + app_ + " " + faults_cfg_ + " Main 2");
    EXPECT_EQ(deploy.status, 0);
    EXPECT_EQ(deploy.output, "hello, cli\n");

    RunResult faults = run_cli("faults " + app_ + " " + faults_cfg_ + " Main 2 --json");
    EXPECT_EQ(faults.status, 0);
    EXPECT_TRUE(json_parses(faults.output)) << faults.output;
    EXPECT_EQ(faults.output.find("\"retries\":0"), std::string::npos) << faults.output;
}

class RafdacAdaptCli : public RafdacCli {
protected:
    std::string adapt_cfg_;

    void SetUp() override {
        RafdacCli::SetUp();
        adapt_cfg_ = cfg_ + ".adapt";
        std::ofstream(adapt_cfg_)
            << "protocol default SOAP\n"
               "instance Greeter on 1 via SOAP\n"
               "adapt on interval 500 migrate-threshold 64 replicate-ratio 0.9\n";
    }
};

TEST_F(RafdacAdaptCli, AdaptConfigGrammarIsAcceptedByDeploy) {
    // The `adapt` directive is part of the shared policy grammar: every
    // deploy-style subcommand must accept a config that uses it.
    RunResult r = run_cli("deploy " + app_ + " " + adapt_cfg_ + " Main 2");
    EXPECT_EQ(r.status, 0);
    EXPECT_EQ(r.output, "hello, cli\n");
}

TEST_F(RafdacAdaptCli, AdaptPrintsDecisionTableAndCounters) {
    RunResult r = run_cli("adapt " + app_ + " " + adapt_cfg_ + " Main 2");
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("controller tick(s)"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("seq"), std::string::npos);
    EXPECT_NE(r.output.find("projected"), std::string::npos);
    EXPECT_NE(r.output.find("adapt: "), std::string::npos);
    // Application output stays on stderr.
    EXPECT_EQ(r.output.find("hello, cli"), std::string::npos);
}

TEST_F(RafdacAdaptCli, AdaptJsonRoundTripsThroughParser) {
    // A config without an adapt line still reports (engine at defaults).
    RunResult r = run_cli("adapt " + app_ + " " + cfg_ + " Main 2 --json");
    EXPECT_EQ(r.status, 0);
    ASSERT_FALSE(r.output.empty());
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1);
    EXPECT_TRUE(json_parses(r.output)) << r.output;
    EXPECT_NE(r.output.find("\"ticks\":"), std::string::npos);
    EXPECT_NE(r.output.find("\"decisions\":"), std::string::npos);
    EXPECT_NE(r.output.find("\"migrations\":"), std::string::npos);
    EXPECT_NE(r.output.find("\"replications\":"), std::string::npos);
    EXPECT_NE(r.output.find("\"bytes_saved_est\":"), std::string::npos);
}

TEST_F(RafdacCli, WalReportsEachNodesReplyStream) {
    // A durable server with dedup on journals every reply it caches into
    // its reply stream; `rafdac wal` shows that stream's bytes per node.
    const std::string durable_cfg = cfg_ + ".durable";
    std::ofstream(durable_cfg) << "protocol default SOAP\n"
                                  "instance Greeter on 1 via SOAP\n"
                                  "dedup on\n"
                                  "durable on\n";
    RunResult table = run_cli("wal " + app_ + " " + durable_cfg + " Main 2");
    EXPECT_EQ(table.status, 0);
    EXPECT_NE(table.output.find("reply_B"), std::string::npos) << table.output;

    RunResult r = run_cli("wal " + app_ + " " + durable_cfg + " Main 2 --json");
    EXPECT_EQ(r.status, 0);
    EXPECT_TRUE(json_parses(r.output)) << r.output;
    const std::size_t server = r.output.find("{\"node\":1,");
    ASSERT_NE(server, std::string::npos) << r.output;
    const std::size_t field = r.output.find("\"reply_bytes\":", server);
    ASSERT_NE(field, std::string::npos) << r.output;
    EXPECT_NE(r.output[field + std::strlen("\"reply_bytes\":")], '0') << r.output;
}

// .rirb input is verified like .rir before anything transforms it: the
// pipeline's rewriter indexes branch targets and walks superclass chains
// on the strength of that check.
TEST_F(RafdacCli, TransformRejectsUnverifiedRirbBranchTarget) {
    using namespace rafda::model;
    const std::string bad = app_ + "_branch.rirb";
    write_rirb(bad, {class_with_static("X", "", {ins::go(100000), ins::ret()})});
    RunResult r = run_cli_bounded("transform " + bad + " " + bad + ".out");
    EXPECT_EQ(r.status, 2) << r.output;
    EXPECT_NE(r.output.find("branch target out of range"), std::string::npos) << r.output;
}

TEST_F(RafdacCli, TransformRejectsUnverifiedRirbInheritanceCycle) {
    using namespace rafda::model;
    const std::string bad = app_ + "_cycle.rirb";
    const MethodSig v({}, TypeDesc::void_());
    write_rirb(bad, {class_with_static("X", "Y", {ins::invoke_static("X", "m", v), ins::ret()}),
                     ClassBuilder("Y").extends("X").build()});
    RunResult r = run_cli_bounded("transform " + bad + " " + bad + ".out");
    EXPECT_EQ(r.status, 2) << r.output;
    EXPECT_NE(r.output.find("inheritance cycle"), std::string::npos) << r.output;
}

TEST_F(RafdacCli, UsageAndErrors) {
    EXPECT_EQ(run_cli("").status, 1);
    EXPECT_EQ(run_cli("frobnicate x").status, 1);
    EXPECT_EQ(run_cli("analyze /nonexistent/x.rir").status, 2);
    EXPECT_EQ(run_cli("run " + app_ + "b Main").status, 2);  // needs .rir
    EXPECT_EQ(run_cli("stats /nonexistent/x.rir " + cfg_ + " Main").status, 2);
    EXPECT_EQ(run_cli("faults " + app_).status, 1);  // missing config/main
    EXPECT_EQ(run_cli("adapt " + app_).status, 1);   // missing config/main
    // --chrome needs a path operand.
    EXPECT_EQ(run_cli("trace " + app_ + " " + cfg_ + " Main 2 --chrome").status, 1);
    // The node count is one whole positive integer, or a processing error.
    for (const char* nodes : {"2x", "0", "-1", "", "99999999999"})
        EXPECT_EQ(run_cli("deploy " + app_ + " " + cfg_ + " Main '" + nodes + "'").status, 2)
            << nodes;
    EXPECT_EQ(run_cli("deploy " + app_ + " " + cfg_ + " Main 3").status, 0);
}

}  // namespace
