#include "model/classpool.hpp"

#include "support/error.hpp"

namespace rafda::model {

int Layout::index_of(std::string_view field_name) const {
    auto it = index_by_name.find(field_name);
    if (it == index_by_name.end())
        throw VerifyError("no such field in layout: " + std::string(field_name));
    return it->second;
}

ClassFile& ClassPool::add(ClassFile cf) {
    auto owned = std::make_unique<ClassFile>(std::move(cf));
    ClassFile& ref = *owned;
    // One map walk: try_emplace leaves `owned` untouched when the name is taken.
    if (!classes_.try_emplace(ref.name, std::move(owned)).second)
        throw VerifyError("duplicate class: " + ref.name);
    invalidate_caches();
    return ref;
}

void ClassPool::remove(std::string_view name) {
    auto it = classes_.find(name);
    if (it == classes_.end()) throw VerifyError("remove of unknown class: " + std::string(name));
    classes_.erase(it);
    invalidate_caches();
}

bool ClassPool::contains(std::string_view name) const {
    return classes_.find(name) != classes_.end();
}

const ClassFile& ClassPool::get(std::string_view name) const {
    const ClassFile* cf = find(name);
    if (!cf) throw VerifyError("unknown class: " + std::string(name));
    return *cf;
}

ClassFile& ClassPool::get_mutable(std::string_view name) {
    ClassFile* cf = find_mutable(name);
    if (!cf) throw VerifyError("unknown class: " + std::string(name));
    return *cf;
}

const ClassFile* ClassPool::find(std::string_view name) const {
    auto it = classes_.find(name);
    return it == classes_.end() ? nullptr : it->second.get();
}

ClassFile* ClassPool::find_mutable(std::string_view name) {
    auto it = classes_.find(name);
    if (it == classes_.end()) return nullptr;
    // Handing out a mutable pointer means the caller may rewrite the class
    // in place; memoized layouts (and any generation-checked cache built on
    // top of this pool) must not outlive that.
    invalidate_caches();
    return it->second.get();
}

std::vector<const ClassFile*> ClassPool::all() const {
    std::vector<const ClassFile*> out;
    out.reserve(classes_.size());
    for (const auto& [_, cf] : classes_) out.push_back(cf.get());
    return out;
}

std::vector<std::string> ClassPool::all_names() const {
    std::vector<std::string> out;
    out.reserve(classes_.size());
    for (const auto& [name, _] : classes_) out.push_back(name);
    return out;
}

bool ClassPool::is_subtype(std::string_view sub, std::string_view super) const {
    if (sub == super) return true;
    const ClassFile* cf = find(sub);
    if (!cf) return false;
    if (!cf->super_name.empty() && is_subtype(cf->super_name, super)) return true;
    for (const std::string& i : cf->interfaces)
        if (is_subtype(i, super)) return true;
    return false;
}

const Layout& ClassPool::layout_of(std::string_view name) const {
    auto it = layouts_.find(name);
    if (it != layouts_.end()) return it->second;

    const ClassFile& cf = get(name);
    Layout layout;
    if (!cf.super_name.empty()) {
        const Layout& super_layout = layout_of(cf.super_name);
        layout = super_layout;  // inherited fields first
    }
    for (const Field& f : cf.fields) {
        if (f.is_static) continue;
        if (layout.index_by_name.count(f.name))
            throw VerifyError("field shadowing is not supported: " + cf.name + "." + f.name);
        layout.index_by_name.emplace(f.name, layout.size());
        layout.slots.push_back(FieldSlot{f.name, f.type, cf.name});
    }
    return layouts_.emplace(std::string(name), std::move(layout)).first->second;
}

const Layout& ClassPool::static_layout_of(std::string_view name) const {
    auto it = static_layouts_.find(name);
    if (it != static_layouts_.end()) return it->second;

    const ClassFile& cf = get(name);
    Layout layout;
    for (const Field& f : cf.fields) {
        if (!f.is_static) continue;
        layout.index_by_name.emplace(f.name, layout.size());
        layout.slots.push_back(FieldSlot{f.name, f.type, cf.name});
    }
    return static_layouts_.emplace(std::string(name), std::move(layout)).first->second;
}

const Method* ClassPool::resolve_virtual(const ClassFile* dynamic,
                                         std::string_view method_name,
                                         std::string_view desc) const {
    const Method* m = nullptr;
    const auto concrete = [&](const ClassFile& cf) {
        m = cf.find_method(method_name, desc);
        return m && !m->is_abstract;
    };
    return find_on_chain(dynamic, concrete) ? m : nullptr;
}

const Method* ClassPool::resolve_static(std::string_view owner,
                                        std::string_view method_name,
                                        std::string_view desc) const {
    const Method* m = nullptr;
    const auto is_static = [&](const ClassFile& cf) {
        m = cf.find_method(method_name, desc);
        return m && m->is_static;
    };
    return find_on_chain(find(owner), is_static) ? m : nullptr;
}

const ClassFile* ClassPool::resolve_static_field(std::string_view owner,
                                                 std::string_view field_name) const {
    return find_on_chain(find(owner), [&](const ClassFile& cf) {
        const Field* f = cf.find_field(field_name);
        return f && f->is_static;
    });
}

void ClassPool::invalidate_caches() {
    ++generation_;
    layouts_.clear();
    static_layouts_.clear();
}

}  // namespace rafda::model
