#include "model/classpool.hpp"

#include <gtest/gtest.h>

#include "model/assembler.hpp"
#include "support/error.hpp"

namespace rafda::model {
namespace {

ClassPool make_pool() {
    ClassPool pool;
    assemble_into(pool, R"(
interface Walker {
  method walk ()V
}
class Animal {
  field name S
  method speak ()S {
    const "..."
    returnvalue
  }
}
class Dog extends Animal implements Walker {
  field tricks I
  static field population I
  method speak ()S {
    const "woof"
    returnvalue
  }
  method walk ()V {
    return
  }
}
class Puppy extends Dog {
  field age I
}
)");
    return pool;
}

TEST(ClassPool, AddGetContains) {
    ClassPool pool = make_pool();
    EXPECT_TRUE(pool.contains("Dog"));
    EXPECT_FALSE(pool.contains("Cat"));
    EXPECT_EQ(pool.get("Dog").super_name, "Animal");
    EXPECT_THROW(pool.get("Cat"), VerifyError);
    EXPECT_EQ(pool.size(), 4u);
}

TEST(ClassPool, DuplicateAddThrows) {
    ClassPool pool = make_pool();
    ClassFile dup;
    dup.name = "Dog";
    EXPECT_THROW(pool.add(std::move(dup)), VerifyError);
}

TEST(ClassPool, RemoveAndReAdd) {
    ClassPool pool = make_pool();
    pool.remove("Puppy");
    EXPECT_FALSE(pool.contains("Puppy"));
    EXPECT_THROW(pool.remove("Puppy"), VerifyError);
    ClassFile again;
    again.name = "Puppy";
    pool.add(std::move(again));
    EXPECT_TRUE(pool.contains("Puppy"));
}

TEST(ClassPool, AllIsSortedByName) {
    ClassPool pool = make_pool();
    std::vector<std::string> names = pool.all_names();
    EXPECT_EQ(names, (std::vector<std::string>{"Animal", "Dog", "Puppy", "Walker"}));
}

TEST(ClassPool, SubtypeReflexiveTransitive) {
    ClassPool pool = make_pool();
    EXPECT_TRUE(pool.is_subtype("Dog", "Dog"));
    EXPECT_TRUE(pool.is_subtype("Dog", "Animal"));
    EXPECT_TRUE(pool.is_subtype("Puppy", "Animal"));
    EXPECT_TRUE(pool.is_subtype("Dog", "Walker"));
    EXPECT_TRUE(pool.is_subtype("Puppy", "Walker"));
    EXPECT_FALSE(pool.is_subtype("Animal", "Dog"));
    EXPECT_FALSE(pool.is_subtype("Animal", "Walker"));
    EXPECT_FALSE(pool.is_subtype("Ghost", "Animal"));
    EXPECT_TRUE(pool.is_subtype("Ghost", "Ghost"));  // reflexive even if unknown
}

TEST(ClassPool, LayoutInheritedFieldsFirst) {
    ClassPool pool = make_pool();
    const Layout& layout = pool.layout_of("Puppy");
    ASSERT_EQ(layout.size(), 3);
    EXPECT_EQ(layout.slots[0].name, "name");
    EXPECT_EQ(layout.slots[0].declaring_class, "Animal");
    EXPECT_EQ(layout.slots[1].name, "tricks");
    EXPECT_EQ(layout.slots[2].name, "age");
    EXPECT_EQ(layout.index_of("tricks"), 1);
    EXPECT_THROW(layout.index_of("population"), VerifyError);  // static, not in layout
}

TEST(ClassPool, LayoutExcludesStatics) {
    ClassPool pool = make_pool();
    EXPECT_EQ(pool.layout_of("Dog").size(), 2);         // name + tricks
    EXPECT_EQ(pool.static_layout_of("Dog").size(), 1);  // population
    EXPECT_EQ(pool.static_layout_of("Animal").size(), 0);
}

TEST(ClassPool, LayoutRejectsShadowing) {
    ClassPool pool = make_pool();
    assemble_into(pool, R"(
class BadPuppy extends Dog {
  field tricks I
}
)");
    EXPECT_THROW(pool.layout_of("BadPuppy"), VerifyError);
}

TEST(ClassPool, ResolveVirtualWalksSuperChain) {
    ClassPool pool = make_pool();
    const Method* m = pool.resolve_virtual(pool.find("Puppy"), "speak", "()S");
    ASSERT_NE(m, nullptr);
    // Puppy inherits Dog's override.
    EXPECT_EQ(std::get<std::string>(m->code.instrs[0].k), "woof");
    const Method* base = pool.resolve_virtual(pool.find("Animal"), "speak", "()S");
    ASSERT_NE(base, nullptr);
    EXPECT_EQ(std::get<std::string>(base->code.instrs[0].k), "...");
    EXPECT_EQ(pool.resolve_virtual(pool.find("Puppy"), "fly", "()V"), nullptr);
}

TEST(ClassPool, ResolveStaticField) {
    ClassPool pool = make_pool();
    const ClassFile* declaring = pool.resolve_static_field("Puppy", "population");
    ASSERT_NE(declaring, nullptr);
    EXPECT_EQ(declaring->name, "Dog");
    EXPECT_EQ(pool.resolve_static_field("Animal", "population"), nullptr);
}

TEST(ClassPool, CachesInvalidatedOnMutation) {
    ClassPool pool = make_pool();
    EXPECT_EQ(pool.layout_of("Dog").size(), 2);
    ClassFile& dog = pool.get_mutable("Dog");
    dog.fields.push_back(Field{"collar", TypeDesc::str(), Visibility::Public, false, false});
    pool.invalidate_caches();
    EXPECT_EQ(pool.layout_of("Dog").size(), 3);
}

TEST(ClassPool, MutableAccessAloneInvalidatesMemoizedLayouts) {
    // Regression: find_mutable/get_mutable used to hand out a mutable
    // ClassFile* without invalidating, so a layout memoized before an
    // in-place rewrite stayed stale.
    ClassPool pool = make_pool();
    EXPECT_EQ(pool.layout_of("Dog").size(), 2);        // memoize
    EXPECT_EQ(pool.static_layout_of("Dog").size(), 1);  // memoize statics too
    ClassFile* dog = pool.find_mutable("Dog");
    ASSERT_NE(dog, nullptr);
    dog->fields.push_back(
        Field{"collar", TypeDesc::str(), Visibility::Public, false, false});
    dog->fields.push_back(
        Field{"licenses", TypeDesc::int_(), Visibility::Public, true, false});
    // No explicit invalidate_caches() call — the mutable handout did it.
    EXPECT_EQ(pool.layout_of("Dog").size(), 3);
    EXPECT_EQ(pool.layout_of("Puppy").size(), 4);  // subclasses see it too
    EXPECT_EQ(pool.static_layout_of("Dog").size(), 2);
}

TEST(ClassPool, GenerationBumpsOnEveryMutationPath) {
    ClassPool pool = make_pool();
    const std::uint64_t g0 = pool.generation();
    EXPECT_GT(g0, 0u);  // 0 is reserved for "never validated" consumers

    pool.layout_of("Dog");
    EXPECT_EQ(pool.generation(), g0);  // const queries do not bump

    pool.get_mutable("Dog");
    const std::uint64_t g1 = pool.generation();
    EXPECT_GT(g1, g0);

    pool.find_mutable("Dog");
    const std::uint64_t g2 = pool.generation();
    EXPECT_GT(g2, g1);
    EXPECT_EQ(pool.find_mutable("NoSuchClass"), nullptr);
    EXPECT_EQ(pool.generation(), g2);  // failed lookup hands out nothing

    ClassFile fresh;
    fresh.name = "Cat";
    pool.add(std::move(fresh));
    const std::uint64_t g3 = pool.generation();
    EXPECT_GT(g3, g2);

    pool.remove("Cat");
    EXPECT_GT(pool.generation(), g3);
}

TEST(ClassPool, ReferencedClasses) {
    ClassPool pool = make_pool();
    std::vector<std::string> refs = pool.get("Dog").referenced_classes();
    EXPECT_EQ(refs, (std::vector<std::string>{"Animal", "Walker"}));
}

TEST(ClassPool, MoveSemantics) {
    ClassPool pool = make_pool();
    ClassPool moved = std::move(pool);
    EXPECT_TRUE(moved.contains("Dog"));
    EXPECT_EQ(moved.layout_of("Dog").size(), 2);
}

}  // namespace
}  // namespace rafda::model
