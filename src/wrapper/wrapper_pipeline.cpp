#include "wrapper/wrapper_pipeline.hpp"

#include <algorithm>

#include "model/builder.hpp"
#include "model/verifier.hpp"
#include "support/error.hpp"
#include "transform/naming.hpp"

namespace rafda::wrapper {

using model::ClassBuilder;
using model::ClassFile;
using model::Code;
using model::CodeBuilder;
using model::Field;
using model::Instruction;
using model::Method;
using model::MethodSig;
using model::Op;
using model::TypeDesc;
using model::Visibility;
using transform::naming::getter;
using transform::naming::setter;

std::string wrapper_name(std::string_view cls) { return std::string(cls) + "_Wrapper"; }

namespace {

constexpr const char* kTargetField = "target";
constexpr const char* kImplSuffix = "__impl";

/// Rewrites code so instance-member access goes through wrappers.  Unlike
/// the RAFDA rewriter, descriptors are left untouched: the VM is
/// dynamically typed and the wrapper approach has no interface layer to
/// retype against.
Code rewrite_for_wrappers(const model::ClassPool& pool,
                          const transform::Analysis& analysis, const Code& in) {
    auto wrappable = [&](const std::string& cls) {
        if (!analysis.transformable(cls)) return false;
        const ClassFile* cf = pool.find(cls);
        return cf && !cf->is_interface;
    };

    std::vector<Instruction> out;
    std::vector<int> new_pc(in.instrs.size() + 1, 0);
    for (std::size_t pc = 0; pc < in.instrs.size(); ++pc) {
        new_pc[pc] = static_cast<int>(out.size());
        const Instruction& i = in.instrs[pc];
        switch (i.op) {
            case Op::InvokeInterface:
                throw TransformError(
                    "wrapper approach does not support user-defined interfaces");
            case Op::NewArray: {
                model::TypeDesc base = model::TypeDesc::parse(i.desc);
                while (base.is_array()) base = base.element();
                if (base.is_ref() && wrappable(base.class_name()))
                    throw TransformError(
                        "wrapper approach does not support arrays of wrapped classes");
                out.push_back(i);
                break;
            }
            case Op::New:
                if (wrappable(i.owner)) {
                    out.push_back(model::ins::invoke_static(
                        wrapper_name(i.owner), "make",
                        MethodSig({}, TypeDesc::ref(wrapper_name(i.owner)))));
                } else {
                    out.push_back(i);
                }
                break;
            case Op::InvokeSpecial:
                if (wrappable(i.owner)) {
                    MethodSig orig = MethodSig::parse(i.desc);
                    std::vector<TypeDesc> params;
                    params.push_back(TypeDesc::ref(wrapper_name(i.owner)));
                    for (const TypeDesc& p : orig.params()) params.push_back(p);
                    out.push_back(model::ins::invoke_static(
                        wrapper_name(i.owner), "init",
                        MethodSig(std::move(params), TypeDesc::void_())));
                } else {
                    out.push_back(i);
                }
                break;
            case Op::GetField:
                if (wrappable(i.owner)) {
                    out.push_back(model::ins::invoke_virtual(
                        wrapper_name(i.owner), getter(i.member),
                        MethodSig({}, TypeDesc::parse(i.desc))));
                } else {
                    out.push_back(i);
                }
                break;
            case Op::PutField:
                if (wrappable(i.owner)) {
                    out.push_back(model::ins::invoke_virtual(
                        wrapper_name(i.owner), setter(i.member),
                        MethodSig({TypeDesc::parse(i.desc)}, TypeDesc::void_())));
                } else {
                    out.push_back(i);
                }
                break;
            case Op::InvokeVirtual:
                if (wrappable(i.owner)) {
                    out.push_back(model::ins::invoke_virtual(wrapper_name(i.owner),
                                                             i.member,
                                                             MethodSig::parse(i.desc)));
                } else {
                    out.push_back(i);
                }
                break;
            default:
                out.push_back(i);
                break;
        }
    }
    new_pc[in.instrs.size()] = static_cast<int>(out.size());
    return model::remapped(in, std::move(out), new_pc, in.max_locals);
}

ClassFile make_wrapper(const model::ClassPool& pool, const transform::Analysis& analysis,
                       const ClassFile& cls) {
    const std::string w = wrapper_name(cls.name);
    const TypeDesc w_t = TypeDesc::ref(w);
    ClassBuilder b(w);

    // The target field is declared once, on the topmost wrapped ancestor's
    // wrapper, typed with that ancestor — subclass wrappers inherit it.
    const ClassFile* root = pool.find_on_chain(&cls, [&](const ClassFile& c) {
        return c.super_name.empty() || !analysis.transformable(c.super_name);
    });
    const TypeDesc target_t = TypeDesc::ref(root ? root->name : cls.name);

    // Inheritance: a wrapped subclass's wrapper extends the super's wrapper
    // so wrapper-typed references remain substitutable along the hierarchy.
    if (!cls.super_name.empty() && analysis.transformable(cls.super_name))
        b.extends(wrapper_name(cls.super_name));
    else
        b.field(kTargetField, target_t, Visibility::Public);

    b.method(model::empty_ctor());

    // make(): one wrapper + one raw target per logical instance — the
    // wrapper approach's per-object double allocation.
    {
        CodeBuilder make;
        make.new_(w)
            .dup()
            .invoke_special(w, "<init>", MethodSig({}, TypeDesc::void_()))
            .dup()
            .new_(cls.name)
            .dup()
            .invoke_special(cls.name, "<init>", MethodSig({}, TypeDesc::void_()))
            .put_field(w, kTargetField, target_t)
            .ret_value();
        b.static_method("make", MethodSig({}, w_t), std::move(make));
    }

    // init(...) per original constructor: rewritten body, slot 0 = wrapper.
    for (const Method& m : cls.methods) {
        if (!m.is_ctor()) continue;
        Method out;
        out.name = "init";
        std::vector<TypeDesc> params;
        params.push_back(w_t);
        for (const TypeDesc& p : m.sig.params()) params.push_back(p);
        out.sig = MethodSig(std::move(params), TypeDesc::void_());
        out.is_static = true;
        out.code = rewrite_for_wrappers(pool, analysis, m.code);
        b.method(std::move(out));
    }

    // Field interception: every access pays the extra hop through target.
    const std::string target_owner =
        w;  // field lookups walk the superclass chain at runtime
    for (const Field& f : cls.fields) {
        if (f.is_static) continue;
        CodeBuilder get;
        get.load(0)
            .get_field(target_owner, kTargetField, target_t)
            .get_field(cls.name, f.name, f.type)
            .ret_value();
        b.method(getter(f.name), MethodSig({}, f.type), std::move(get));
        CodeBuilder set;
        set.load(0)
            .get_field(target_owner, kTargetField, target_t)
            .load(1)
            .put_field(cls.name, f.name, f.type)
            .ret();
        b.method(setter(f.name), MethodSig({f.type}, TypeDesc::void_()), std::move(set));
    }

    // Method interception: public forwarder -> __impl with the logic.
    for (const Method& m : cls.methods) {
        if (m.is_static || m.is_ctor()) continue;
        Method impl;
        impl.name = m.name + kImplSuffix;
        impl.sig = m.sig;
        impl.code = rewrite_for_wrappers(pool, analysis, m.code);
        b.method(std::move(impl));

        CodeBuilder fwd;
        fwd.load(0);
        for (int p = 1; p <= static_cast<int>(m.sig.params().size()); ++p) fwd.load(p);
        fwd.invoke_virtual(w, m.name + kImplSuffix, m.sig);
        if (m.sig.ret().is_void()) fwd.ret();
        else fwd.ret_value();
        b.method(m.name, m.sig, std::move(fwd));
    }

    return b.build();
}

}  // namespace

WrapperResult run_wrapper_pipeline(const model::ClassPool& original, bool verify_output) {
    transform::Analysis analysis = transform::analyze(original);

    model::ClassPool out;
    std::vector<std::string> wrapped;

    for (const ClassFile* cf : original.all()) {
        if (!analysis.transformable(cf->name) || cf->is_interface) {
            out.add(*cf);
            continue;
        }
        // The class itself stays (it carries the state, the statics and the
        // original methods), but its static-side code is rewritten in place
        // so it sees wrappers, and a parameterless constructor is ensured
        // for make().
        ClassFile kept = *cf;
        for (Method& m : kept.methods) {
            if (m.is_static && !m.is_native && !m.is_abstract)
                m.code = rewrite_for_wrappers(original, analysis, m.code);
        }
        if (!kept.find_method("<init>", "()V")) kept.methods.push_back(model::empty_ctor());
        out.add(std::move(kept));
        out.add(make_wrapper(original, analysis, *cf));
        wrapped.push_back(cf->name);
    }

    if (verify_output) model::verify_pool(out);

    std::sort(wrapped.begin(), wrapped.end());
    return WrapperResult{std::move(out),
                         WrapperReport{std::move(analysis), std::move(wrapped)}};
}

}  // namespace rafda::wrapper
