// The runtime reads a proxy's routing fields by slot, not by name:
// Node::proxy_target, the migration transmute and the WAL image all use
// naming::kProxyNodeSlot / kProxyOidSlot.  These tests pin the layout that
// makes that sound — every generated proxy class, of both families and for
// every protocol, has exactly two instance slots, `__node` (int) and
// `__oid` (long), at those indices — on the JDK-like corpus and on
// generated programs.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "corpus/jdk_corpus.hpp"
#include "corpus/program_gen.hpp"
#include "transform/naming.hpp"
#include "transform/pipeline.hpp"

namespace rafda::transform {
namespace {

/// Transforms `pool` with proxies for every protocol and checks each
/// proxy's layout; returns the (family, protocol) pairs it saw.
std::set<std::pair<char, std::string>> check_proxy_layouts(const model::ClassPool& pool) {
    PipelineOptions opts;
    opts.threads = 1;
    opts.generator.protocols = {"RMI", "CORBA", "SOAP"};
    const PipelineResult result = run_pipeline(pool, opts);
    std::set<std::pair<char, std::string>> seen;
    for (const model::ClassFile* cls : result.pool.all()) {
        const auto proxy = naming::parse_proxy(cls->name);
        if (!proxy) continue;
        seen.emplace(proxy->family, proxy->protocol);
        SCOPED_TRACE(cls->name);
        const model::Layout& layout = result.pool.layout_of(cls->name);
        EXPECT_EQ(layout.size(), 2);
        if (layout.size() != 2) continue;
        const model::FieldSlot& node = layout.slots[naming::kProxyNodeSlot];
        const model::FieldSlot& oid = layout.slots[naming::kProxyOidSlot];
        EXPECT_EQ(node.name, naming::kProxyNodeField);
        EXPECT_EQ(node.type, model::TypeDesc::int_());
        EXPECT_EQ(oid.name, naming::kProxyOidField);
        EXPECT_EQ(oid.type, model::TypeDesc::long_());
    }
    return seen;
}

const std::set<std::pair<char, std::string>> kEveryProxyKind = {
    {'C', "CORBA"}, {'C', "RMI"}, {'C', "SOAP"}, {'O', "CORBA"}, {'O', "RMI"}, {'O', "SOAP"}};

TEST(ProxyLayout, RoutingSlotsOnTheJdkCorpus) {
    corpus::JdkCorpusParams params;
    params.total_types = 420;
    EXPECT_EQ(check_proxy_layouts(corpus::generate_jdk_corpus(params)), kEveryProxyKind);
}

TEST(ProxyLayout, RoutingSlotsOnGeneratedPrograms) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        SCOPED_TRACE(seed);
        corpus::ProgramParams params;
        params.seed = seed;
        EXPECT_EQ(check_proxy_layouts(corpus::generate_program(params)), kEveryProxyKind);
    }
}

}  // namespace
}  // namespace rafda::transform
