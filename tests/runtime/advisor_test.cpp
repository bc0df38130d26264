#include "runtime/advisor.hpp"

#include <gtest/gtest.h>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using vm::Value;

constexpr const char* kApp = R"(
class Hot {
  field n I
  ctor ()V {
    return
  }
  method hit ()I {
    load 0
    load 0
    getfield Hot.n I
    const 1
    add
    putfield Hot.n I
    load 0
    getfield Hot.n I
    returnvalue
  }
}
class Cold {
  ctor ()V {
    return
  }
  method rare ()V {
    return
  }
}
)";

struct AdvisorFixture : ::testing::Test {
    model::ClassPool original;
    std::unique_ptr<System> system;

    void SetUp() override {
        vm::install_prelude(original);
        model::assemble_into(original, kApp);
        model::verify_pool(original);
        system = std::make_unique<System>(original);
        system->add_node();
        system->add_node();
        system->add_node();
    }
};

TEST_F(AdvisorFixture, NoTrafficNoRecommendations) {
    PolicyAdvisor advisor(*system);
    EXPECT_TRUE(advisor.advise().empty());
}

TEST_F(AdvisorFixture, RecommendsDominantCaller) {
    // Hot objects live on node 2 (policy), but node 0 does all the calling.
    system->policy().set_instance_home("Hot", 2, "RMI");
    Value h = system->construct(0, "Hot", "()V");
    for (int k = 0; k < 40; ++k) system->node(0).interp().call_virtual(h, "hit", "()I");

    PolicyAdvisor advisor(*system, /*min_calls=*/16, /*min_dominance=*/0.6);
    std::vector<Recommendation> recs = advisor.advise();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].cls, "Hot");
    EXPECT_EQ(recs[0].objects_on, 2);
    EXPECT_EQ(recs[0].recommended_home, 0);
    EXPECT_EQ(recs[0].remote_calls, 40u);
    EXPECT_DOUBLE_EQ(recs[0].dominance, 1.0);
}

TEST_F(AdvisorFixture, IgnoresLowVolumeAndBalancedTraffic) {
    system->policy().set_instance_home("Hot", 2, "RMI");
    system->policy().set_instance_home("Cold", 2, "RMI");
    Value h = system->construct(0, "Hot", "()V");
    Value c = system->construct(0, "Cold", "()V");

    // Cold: below the volume threshold.
    for (int k = 0; k < 4; ++k) system->node(0).interp().call_virtual(c, "rare", "()V");
    // Hot: heavy but perfectly split between nodes 0 and 1 — no dominance.
    Value h_on_1 = system->node(1).import_ref(2, system->resolve_terminal(0, h.as_ref()).second,
                                              "Hot_O_Int", "RMI");
    for (int k = 0; k < 20; ++k) {
        system->node(0).interp().call_virtual(h, "hit", "()I");
        system->node(1).interp().call_virtual(h_on_1, "hit", "()I");
    }

    PolicyAdvisor advisor(*system, 16, 0.6);
    EXPECT_TRUE(advisor.advise().empty());
}

TEST_F(AdvisorFixture, ApplyMovesFuturePlacements) {
    system->policy().set_instance_home("Hot", 2, "RMI");
    Value h = system->construct(0, "Hot", "()V");
    for (int k = 0; k < 32; ++k) system->node(0).interp().call_virtual(h, "hit", "()I");

    PolicyAdvisor advisor(*system);
    std::size_t changed = advisor.apply(advisor.advise());
    EXPECT_EQ(changed, 1u);
    // Future creations from node 0 now stay local...
    EXPECT_EQ(system->policy().instance_placement("Hot", 0).node, 0);
    Value h2 = system->construct(0, "Hot", "()V");
    EXPECT_EQ(system->node(0).interp().class_of(h2.as_ref()).name, "Hot_O_Local");
    // ...and the traffic window restarted.
    for (const auto& [cls, row] : system->traffic())
        for (const auto& [edge, ctr] : row.edges) EXPECT_EQ(ctr.calls->value(), 0u) << cls;
}

TEST_F(AdvisorFixture, ClosingTheLoopReducesVirtualTime) {
    // Full decide-and-act loop: observe, apply the recommendation, migrate
    // the existing object, and compare per-phase cost.
    system->policy().set_instance_home("Hot", 2, "RMI");
    Value h = system->construct(0, "Hot", "()V");

    std::uint64_t t0 = system->network().now_us();
    for (int k = 0; k < 30; ++k) system->node(0).interp().call_virtual(h, "hit", "()I");
    std::uint64_t before = system->network().now_us() - t0;

    PolicyAdvisor advisor(*system);
    std::vector<Recommendation> recs = advisor.advise();
    ASSERT_FALSE(recs.empty());
    advisor.apply(recs);
    auto [obj_node, obj_oid] = system->resolve_terminal(0, h.as_ref());
    system->migrate_instance(obj_node, obj_oid, recs[0].recommended_home, "RMI");
    system->shorten_chain(0, h.as_ref());

    t0 = system->network().now_us();
    for (int k = 0; k < 30; ++k) system->node(0).interp().call_virtual(h, "hit", "()I");
    std::uint64_t after = system->network().now_us() - t0;

    EXPECT_EQ(after, 0u);  // fully local now
    EXPECT_GT(before, 0u);
}

}  // namespace
}  // namespace rafda::runtime
