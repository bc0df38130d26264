#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

namespace rafda::obs {
namespace {

/// Fixture with a hand-cranked virtual clock shared by every node.
struct TracerFixture : ::testing::Test {
    Tracer tracer;
    std::uint64_t clock = 0;

    void SetUp() override {
        tracer.set_enabled(true);
        tracer.set_clock([this](std::int32_t) { return clock; });
    }

    const Span* find(const std::string& name) const {
        for (const Span& s : tracer.spans())
            if (s.name == name) return &s;
        return nullptr;
    }
};

TEST(Tracer, DisabledIsInert) {
    Tracer t;
    EXPECT_FALSE(t.enabled());
    EXPECT_EQ(t.begin("x"), 0u);
    t.note("k", "v");   // no open span: must not crash
    t.end(0);           // id 0 is a no-op
    EXPECT_TRUE(t.spans().empty());
    EXPECT_EQ(t.current_span(), 0u);
    EXPECT_EQ(t.current_trace(), 0u);
}

TEST_F(TracerFixture, NestingSharesTraceAndRecordsTimes) {
    std::uint64_t root = tracer.begin("outer", 0);
    clock = 10;
    std::uint64_t child = tracer.begin("inner", 1);
    EXPECT_EQ(tracer.current_span(), child);
    clock = 25;
    tracer.end(child);
    EXPECT_EQ(tracer.current_span(), root);
    clock = 40;
    tracer.end(root);
    EXPECT_EQ(tracer.current_span(), 0u);

    ASSERT_EQ(tracer.spans().size(), 2u);
    const Span& o = tracer.spans()[0];
    const Span& i = tracer.spans()[1];
    EXPECT_EQ(o.parent, 0u);
    EXPECT_EQ(o.trace, o.id);  // a root starts a new trace
    EXPECT_EQ(i.parent, o.id);
    EXPECT_EQ(i.trace, o.trace);
    EXPECT_EQ(i.node, 1);
    EXPECT_EQ(i.start_us, 10u);
    EXPECT_EQ(i.end_us, 25u);
    EXPECT_EQ(i.duration_us(), 15u);
    EXPECT_EQ(o.duration_us(), 40u);
}

TEST_F(TracerFixture, NewRootStartsNewTrace) {
    std::uint64_t a = tracer.begin("a");
    tracer.end(a);
    std::uint64_t b = tracer.begin("b");
    tracer.end(b);
    EXPECT_NE(tracer.spans()[0].trace, tracer.spans()[1].trace);
}

TEST_F(TracerFixture, EndClosesDescendantsLeftOpen) {
    std::uint64_t a = tracer.begin("a");
    tracer.begin("b");
    tracer.begin("c");
    clock = 99;
    tracer.end(a);  // closes c, b, then a
    for (const Span& s : tracer.spans()) EXPECT_EQ(s.end_us, 99u);
    EXPECT_EQ(tracer.current_span(), 0u);
}

TEST(Tracer, SpansReadTheClockOfTheirOwnNode) {
    Tracer t;
    t.set_enabled(true);
    std::uint64_t clocks[2] = {100, 7};
    t.set_clock([&](std::int32_t node) { return node < 0 ? 0 : clocks[node]; });
    std::uint64_t client = t.begin("client", 0);
    std::uint64_t server = t.begin("server", 1);
    clocks[1] = 9;
    t.end(server);
    clocks[0] = 150;
    t.end(client);
    EXPECT_EQ(t.spans()[0].start_us, 100u);
    EXPECT_EQ(t.spans()[0].end_us, 150u);
    EXPECT_EQ(t.spans()[1].start_us, 7u);
    EXPECT_EQ(t.spans()[1].end_us, 9u);
}

TEST_F(TracerFixture, PinnedSpanKeepsItsIntervalWhenClosed) {
    std::uint64_t outer = tracer.begin("outer", 0);
    std::uint64_t xfer = tracer.begin("net.transfer", 0);
    tracer.pin(xfer, 10, 110);
    tracer.pin(0, 1, 2);  // id 0 is a no-op
    clock = 20;
    tracer.end(outer);  // closes the pinned child too
    EXPECT_EQ(find("net.transfer")->start_us, 10u);
    EXPECT_EQ(find("net.transfer")->end_us, 110u);
    EXPECT_EQ(find("outer")->end_us, 20u);
}

TEST_F(TracerFixture, BeginRemoteUsesWireParentage) {
    std::uint64_t root = tracer.begin("rpc.invoke", 0);
    std::uint64_t trace = tracer.current_trace();
    // The server side parents from the decoded header, not from the stack.
    std::uint64_t dispatch = tracer.begin_remote("rpc.dispatch", 1, trace, root);
    const Span* d = find("rpc.dispatch");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->parent, root);
    EXPECT_EQ(d->trace, trace);
    EXPECT_EQ(d->node, 1);
    tracer.end(dispatch);
    tracer.end(root);
}

TEST_F(TracerFixture, BeginRemoteWithoutTraceStartsOne) {
    std::uint64_t id = tracer.begin_remote("orphan", 2, /*trace=*/0, /*parent=*/0);
    EXPECT_EQ(tracer.spans()[0].trace, id);
    tracer.end(id);
}

TEST_F(TracerFixture, NoteAttachesToInnermostOpenSpan) {
    std::uint64_t a = tracer.begin("a");
    tracer.begin("b");
    tracer.note("bytes", "61");
    tracer.end(a);
    EXPECT_TRUE(find("a")->notes.empty());
    ASSERT_EQ(find("b")->notes.size(), 1u);
    EXPECT_EQ(find("b")->notes[0].first, "bytes");
    EXPECT_EQ(find("b")->notes[0].second, "61");
}

TEST_F(TracerFixture, ScopedSpanClosesOnException) {
    try {
        ScopedSpan outer(tracer, "outer");
        ScopedSpan inner(tracer, "inner");
        clock = 7;
        throw std::runtime_error("dropped");
    } catch (const std::runtime_error&) {
    }
    // Both spans closed by unwinding; the open stack is consistent again.
    EXPECT_EQ(tracer.current_span(), 0u);
    EXPECT_EQ(find("outer")->end_us, 7u);
    EXPECT_EQ(find("inner")->end_us, 7u);
}

TEST_F(TracerFixture, ScopedSpanAdoptAndMoveTransferOwnership) {
    {
        ScopedSpan s = ScopedSpan::adopt(tracer, tracer.begin_remote("d", 1, 0, 0));
        ScopedSpan moved = std::move(s);
        EXPECT_EQ(s.id(), 0u);  // NOLINT(bugprone-use-after-move): moved-from is empty
        EXPECT_NE(moved.id(), 0u);
        EXPECT_EQ(tracer.current_span(), moved.id());
    }
    EXPECT_EQ(tracer.current_span(), 0u);  // closed exactly once, at scope exit
}

TEST_F(TracerFixture, LazyNamesAndIntegerNotesCostNothingWhenDisabled) {
    int built = 0;
    auto name = [&] {
        ++built;
        return std::string("codec.encode_request RMI");
    };
    Tracer off;
    {
        ScopedSpan s(off, name, 0);
        off.note("bytes", 61);
        EXPECT_EQ(s.id(), 0u);
    }
    EXPECT_EQ(built, 0);  // never formatted on the disabled path
    EXPECT_TRUE(off.spans().empty());

    {
        ScopedSpan s(tracer, name, 0);
        tracer.note("bytes", std::size_t{61});
        ScopedSpan r = ScopedSpan::remote(
            tracer, [] { return std::string("rpc.dispatch poke"); }, 1, 99, s.id());
        EXPECT_EQ(tracer.current_span(), r.id());
    }
    EXPECT_EQ(built, 1);
    ASSERT_NE(find("codec.encode_request RMI"), nullptr);
    EXPECT_EQ(find("codec.encode_request RMI")->notes[0].second, "61");
    const Span* dispatch = find("rpc.dispatch poke");
    ASSERT_NE(dispatch, nullptr);
    EXPECT_EQ(dispatch->trace, 99u);
    EXPECT_EQ(dispatch->node, 1);
    EXPECT_EQ(tracer.current_span(), 0u);
}

TEST_F(TracerFixture, ClearDropsSpansAndOpenStack) {
    tracer.begin("a");
    tracer.clear();
    EXPECT_TRUE(tracer.spans().empty());
    EXPECT_EQ(tracer.current_span(), 0u);
}

TEST_F(TracerFixture, RenderTreeShowsNestingAndNotes) {
    std::uint64_t a = tracer.begin("rpc.invoke C.poke", 0);
    tracer.note("target_node", "1");
    std::uint64_t b = tracer.begin("net.transfer 0->1", 0);
    tracer.end(b);
    tracer.end(a);

    std::string tree = tracer.render_tree();
    EXPECT_NE(tree.find("trace "), std::string::npos);
    EXPECT_NE(tree.find("rpc.invoke C.poke"), std::string::npos);
    EXPECT_NE(tree.find("(node 0)"), std::string::npos);
    EXPECT_NE(tree.find("target_node=1"), std::string::npos);
    // The child renders indented under the root with a branch glyph.
    EXPECT_NE(tree.find("└─ net.transfer 0->1"), std::string::npos);
}

TEST_F(TracerFixture, ToJsonIsOneLine) {
    std::uint64_t a = tracer.begin("a \"quoted\"", 0);
    tracer.note("k", "v");
    tracer.end(a);
    std::string json = tracer.to_json();
    EXPECT_EQ(json.find('\n'), std::string::npos);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"name\":\"a \\\"quoted\\\"\""), std::string::npos);
    EXPECT_NE(json.find("\"notes\":{\"k\":\"v\"}"), std::string::npos);
}

TEST(Tracer, UnsetClockReadsZero) {
    Tracer t;
    t.set_enabled(true);
    std::uint64_t id = t.begin("x");
    t.end(id);
    EXPECT_EQ(t.spans()[0].start_us, 0u);
    EXPECT_EQ(t.spans()[0].end_us, 0u);
}

}  // namespace
}  // namespace rafda::obs
