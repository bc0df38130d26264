// "Policy dictates which classes are substitutable" (Sec 1): the pipeline
// can substitute only a chosen subset.  Unselected transformable classes
// keep their identity (no families, no factory indirection for them) but
// are rewritten in place so they compose with the substituted families.
#include <gtest/gtest.h>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/system.hpp"
#include "transform/local_binder.hpp"
#include "transform/pipeline.hpp"
#include "vm/interp.hpp"
#include "vm/prelude.hpp"

namespace rafda::transform {
namespace {

using vm::Value;

constexpr const char* kApp = R"(
class Engine {
  field cache LCacheBox;
  ctor (LCacheBox;)V {
    load 0
    load 1
    putfield Engine.cache LCacheBox;
    return
  }
  method run (I)I {
    load 0
    getfield Engine.cache LCacheBox;
    load 1
    invokevirtual CacheBox.lookup (I)I
    returnvalue
  }
}
class CacheBox {
  field hits I
  ctor ()V {
    return
  }
  method lookup (I)I {
    load 0
    load 0
    getfield CacheBox.hits I
    const 1
    add
    putfield CacheBox.hits I
    load 1
    const 7
    mul
    returnvalue
  }
}
class Main {
  static method main ()V {
    locals 2
    new CacheBox
    dup
    invokespecial CacheBox.<init> ()V
    store 0
    new Engine
    dup
    load 0
    invokespecial Engine.<init> (LCacheBox;)V
    store 1
    const "r="
    load 1
    const 6
    invokevirtual Engine.run (I)I
    concat
    invokestatic Sys.println (S)V
    return
  }
}
)";

model::ClassPool make_original() {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);
    return pool;
}

PipelineResult run_filtered(const model::ClassPool& original,
                            std::vector<std::string> selected) {
    PipelineOptions options;
    options.substitutable = std::move(selected);
    return run_pipeline(original, options);
}

TEST(PartialSubstitution, OnlySelectedClassesGetFamilies) {
    model::ClassPool original = make_original();
    PipelineResult result = run_filtered(original, {"CacheBox", "Main"});
    EXPECT_TRUE(result.pool.contains("CacheBox_O_Int"));
    EXPECT_TRUE(result.pool.contains("Main_C_Factory"));
    // Engine keeps its identity: no family, original name present.
    EXPECT_TRUE(result.pool.contains("Engine"));
    EXPECT_FALSE(result.pool.contains("Engine_O_Int"));
    EXPECT_FALSE(result.pool.contains("Engine_O_Factory"));
    EXPECT_FALSE(result.report.substituted("Engine"));
    EXPECT_TRUE(result.report.substituted("CacheBox"));
}

TEST(PartialSubstitution, KeptClassIsRetypedInPlace) {
    model::ClassPool original = make_original();
    PipelineResult result = run_filtered(original, {"CacheBox", "Main"});
    const model::ClassFile& engine = result.pool.get("Engine");
    // Its field now holds the extracted interface type...
    EXPECT_EQ(engine.find_field("cache")->type.descriptor(), "LCacheBox_O_Int;");
    // ...its constructor signature maps...
    EXPECT_NE(engine.find_method("<init>", "(LCacheBox_O_Int;)V"), nullptr);
    // ...and its body calls through the interface.
    const model::Method* run = engine.find_method("run", "(I)I");
    ASSERT_NE(run, nullptr);
    bool interface_call = false;
    for (const model::Instruction& i : run->code.instrs)
        if (i.op == model::Op::InvokeInterface && i.owner == "CacheBox_O_Int")
            interface_call = true;
    EXPECT_TRUE(interface_call);
    EXPECT_TRUE(model::verify_pool_collect(result.pool).empty());
}

TEST(PartialSubstitution, BehaviourMatchesFullSubstitution) {
    model::ClassPool original = make_original();

    auto run = [&](PipelineResult result) {
        vm::Interpreter interp(result.pool);
        vm::bind_prelude_natives(interp);
        bind_local_factories(interp, result.report);
        call_transformed_static(interp, original, result.report, "Main", "main", "()V");
        return interp.output();
    };

    std::string full = run(run_pipeline(original));
    std::string partial = run(run_filtered(original, {"CacheBox", "Main"}));
    EXPECT_EQ(full, partial);
    EXPECT_EQ(full, "r=42\n");
}

TEST(PartialSubstitution, OnlySubstitutedClassesAreRemotable) {
    model::ClassPool original = make_original();
    runtime::SystemOptions options;
    options.pipeline.substitutable = std::vector<std::string>{"CacheBox", "Main"};
    runtime::System system(original, options);
    system.add_node();
    system.add_node();
    // The substituted class can live remotely...
    system.policy().set_instance_home("CacheBox", 1, "RMI");
    system.call_static(0, "Main", "main", "()V");
    EXPECT_EQ(system.node(0).interp().output(), "r=42\n");
    EXPECT_GT(system.metrics().snapshot().counter_value("rpc.proto.RMI.calls"), 0u);
    // ...while Engine was constructed as a plain local object (no proxy
    // classes exist for it at all).
    EXPECT_FALSE(system.transformed_pool().contains("Engine_O_Proxy_RMI"));
}

TEST(PartialSubstitution, EmptySelectionKeepsEverythingInPlace) {
    model::ClassPool original = make_original();
    PipelineResult result = run_filtered(original, {});
    EXPECT_TRUE(result.report.substituted_classes().empty());
    EXPECT_TRUE(result.pool.contains("Engine"));
    EXPECT_TRUE(result.pool.contains("CacheBox"));
    // With nothing substituted the rewrite is the identity; the program
    // still runs as the original.
    vm::Interpreter interp(result.pool);
    vm::bind_prelude_natives(interp);
    bind_local_factories(interp, result.report);
    call_transformed_static(interp, original, result.report, "Main", "main", "()V");
    EXPECT_EQ(interp.output(), "r=42\n");
}

TEST(PartialSubstitution, SelectingNonTransformableIsIgnored) {
    model::ClassPool original = make_original();
    PipelineResult result = run_filtered(original, {"Sys", "CacheBox", "Main"});
    EXPECT_FALSE(result.report.substituted("Sys"));
    EXPECT_TRUE(result.pool.contains("Sys"));
    EXPECT_FALSE(result.pool.contains("Sys_O_Int"));
}

}  // namespace
}  // namespace rafda::transform
