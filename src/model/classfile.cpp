#include "model/classfile.hpp"

#include <algorithm>
#include <set>
#include <utility>

namespace rafda::model {

std::string_view visibility_name(Visibility v) {
    switch (v) {
        case Visibility::Public: return "public";
        case Visibility::Protected: return "protected";
        case Visibility::Private: return "private";
    }
    return "?";
}

const Field* ClassFile::find_field(std::string_view field_name) const {
    for (const Field& f : fields)
        if (f.name == field_name) return &f;
    return nullptr;
}

Field* ClassFile::find_field(std::string_view field_name) {
    return const_cast<Field*>(std::as_const(*this).find_field(field_name));
}

const Method* ClassFile::find_method(std::string_view method_name,
                                     std::string_view desc) const {
    for (const Method& m : methods)
        if (m.name == method_name && m.sig.descriptor_is(desc)) return &m;
    return nullptr;
}

Method* ClassFile::find_method(std::string_view method_name, std::string_view desc) {
    return const_cast<Method*>(std::as_const(*this).find_method(method_name, desc));
}

std::vector<const Method*> ClassFile::methods_named(std::string_view method_name) const {
    std::vector<const Method*> out;
    for (const Method& m : methods)
        if (m.name == method_name) out.push_back(&m);
    return out;
}

bool ClassFile::has_native_method() const {
    return std::any_of(methods.begin(), methods.end(),
                       [](const Method& m) { return m.is_native; });
}

Code remapped(const Code& in, std::vector<Instruction> instrs, const std::vector<int>& new_pc,
              int max_locals) {
    auto at = [&](int pc) { return new_pc[static_cast<std::size_t>(pc)]; };
    Code out;
    out.max_locals = max_locals;
    out.instrs = std::move(instrs);
    for (Instruction& i : out.instrs)
        if (is_branch(i.op)) i.a = at(i.a);
    for (const Handler& h : in.handlers)
        out.handlers.push_back(Handler{at(h.start), at(h.end), at(h.target), h.class_name});
    return out;
}

namespace {

void add_type(std::set<std::string>& out, const TypeDesc& t) {
    if (t.is_ref()) out.insert(t.class_name());
}

void add_sig(std::set<std::string>& out, const MethodSig& sig) {
    for (const TypeDesc& p : sig.params()) add_type(out, p);
    add_type(out, sig.ret());
}

}  // namespace

std::vector<std::string> ClassFile::referenced_classes() const {
    std::set<std::string> out;
    if (!super_name.empty()) out.insert(super_name);
    for (const std::string& i : interfaces) out.insert(i);
    for (const Field& f : fields) add_type(out, f.type);
    for (const Method& m : methods) {
        add_sig(out, m.sig);
        for (const Instruction& ins : m.code.instrs) {
            if (!ins.owner.empty()) out.insert(ins.owner);
            if (!ins.desc.empty()) {
                if (is_invoke(ins.op)) {
                    add_sig(out, MethodSig::parse(ins.desc));
                } else if (ins.op == Op::GetField || ins.op == Op::PutField ||
                           ins.op == Op::GetStatic || ins.op == Op::PutStatic) {
                    add_type(out, TypeDesc::parse(ins.desc));
                }
            }
        }
        for (const Handler& h : m.code.handlers) out.insert(h.class_name);
    }
    out.erase(name);  // self-references are not interesting to the analysis
    return {out.begin(), out.end()};
}

}  // namespace rafda::model
