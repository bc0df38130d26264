// ClassPool — the set of classes a program consists of, with the name
// resolution and layout services the interpreter and the transformation
// pipeline need.
//
// The pool owns its class files.  It is mutable: the transformation
// pipeline adds generated classes (interfaces, locals, proxies, factories)
// and rewrites existing ones; derived data (field layouts, subtype facts)
// is cached and invalidated on mutation.
//
// Every mutation path — add/remove and every handout of a mutable
// ClassFile* — routes through invalidate_caches(), which also bumps a
// monotonic generation counter.  Consumers that memoize resolution
// results (the interpreter's inline caches, notably) validate against
// generation() instead of subscribing to explicit invalidation events.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "model/classfile.hpp"

namespace rafda::model {

/// Hashes std::string keys and std::string_view probes alike, so a
/// StringMap lookup by view builds no key string.
struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
        return std::hash<std::string_view>{}(s);
    }
};

template <typename V>
using StringMap = std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

/// Layout of the instance fields of a class, superclass fields first.
struct FieldSlot {
    std::string name;
    TypeDesc type;
    std::string declaring_class;
};

struct Layout {
    std::vector<FieldSlot> slots;
    StringMap<int> index_by_name;

    int index_of(std::string_view field_name) const;
    int size() const noexcept { return static_cast<int>(slots.size()); }
};

class ClassPool {
public:
    ClassPool() = default;
    ClassPool(const ClassPool&) = delete;
    ClassPool& operator=(const ClassPool&) = delete;
    ClassPool(ClassPool&&) = default;
    ClassPool& operator=(ClassPool&&) = default;

    /// Adds a class; throws VerifyError on duplicate name.
    ClassFile& add(ClassFile cf);
    /// Removes a class; throws VerifyError if absent.
    void remove(std::string_view name);

    bool contains(std::string_view name) const;
    /// Throws VerifyError if the class is absent.
    const ClassFile& get(std::string_view name) const;
    /// Mutable access invalidates the derived-data caches and bumps the
    /// generation (the caller may rewrite fields/methods/hierarchy through
    /// the returned reference; the pool must assume it will).
    ClassFile& get_mutable(std::string_view name);
    const ClassFile* find(std::string_view name) const;
    /// Like get_mutable: a non-null result invalidates and bumps.
    ClassFile* find_mutable(std::string_view name);

    std::size_t size() const noexcept { return classes_.size(); }

    /// All classes in name order (deterministic iteration).
    std::vector<const ClassFile*> all() const;
    std::vector<std::string> all_names() const;

    /// True if `sub` equals `super`, or transitively extends/implements it.
    /// Unknown names are never subtypes of anything but themselves.
    bool is_subtype(std::string_view sub, std::string_view super) const;

    /// Instance field layout of `name` (inherited fields first).
    /// Computed lazily, cached until the pool is mutated.
    const Layout& layout_of(std::string_view name) const;

    /// Static field layout of `name` (declared statics only).
    const Layout& static_layout_of(std::string_view name) const;

    /// Resolves a virtual call on dynamic class `dynamic` (null resolves
    /// nothing): the first non-abstract method `name`+`desc` up its
    /// superclass chain.  Returns nullptr if unresolved.
    const Method* resolve_virtual(const ClassFile* dynamic, std::string_view method_name,
                                  std::string_view desc) const;

    /// Resolves a static method: walks the superclass chain from `owner`.
    const Method* resolve_static(std::string_view owner, std::string_view method_name,
                                 std::string_view desc) const;

    /// The class on `owner`'s superclass chain (including `owner`) that
    /// declares static field `field_name`, or nullptr.
    const ClassFile* resolve_static_field(std::string_view owner,
                                          std::string_view field_name) const;

    /// The first class up the superclass chain from `start` (included)
    /// that `pred` accepts, or nullptr.  A chain longer than the pool
    /// repeats a class — the hierarchy is cyclic, which verify_pool
    /// reports — so the walk stops there and lookups on such a pool end.
    template <typename Pred>
    const ClassFile* find_on_chain(const ClassFile* start, Pred pred) const {
        for (std::size_t steps = 0; start && steps <= classes_.size(); ++steps) {
            if (pred(*start)) return start;
            start = start->super_name.empty() ? nullptr : find(start->super_name);
        }
        return nullptr;
    }

    /// Call after externally mutating a class file's fields/hierarchy.
    /// Drops the memoized layouts and bumps generation().  add/remove and
    /// the mutable accessors call this themselves.
    void invalidate_caches();

    /// Monotonic mutation counter, starting at 1 (so 0 can mean "never
    /// validated" in consumers).  Any value observed here is proof that
    /// name resolution and layouts are unchanged since the same value was
    /// last observed.
    std::uint64_t generation() const noexcept { return generation_; }

private:
    std::map<std::string, std::unique_ptr<ClassFile>, std::less<>> classes_;
    std::uint64_t generation_ = 1;
    mutable StringMap<Layout> layouts_;
    mutable StringMap<Layout> static_layouts_;
};

}  // namespace rafda::model
