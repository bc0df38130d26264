#include "transform/generator.hpp"

#include <set>

#include "model/builder.hpp"
#include "support/error.hpp"
#include "transform/naming.hpp"
#include "transform/rewriter.hpp"

namespace rafda::transform {

using model::ClassBuilder;
using model::ClassFile;
using model::CodeBuilder;
using model::Field;
using model::Label;
using model::Method;
using model::MethodSig;
using model::TypeDesc;
using model::Visibility;

namespace {

/// One member of a family as its interface declares it (mapped signature).
/// A get_f/set_f accessor names its `field`, a method its `method`.
struct Member {
    std::string name;
    MethodSig sig;
    const Field* field = nullptr;
    const Method* method = nullptr;
};

/// The member rule: the get_f/set_f pair of each field of `cls`, then each
/// method, for one family — the instance members when `statics` is false,
/// the static members otherwise.  Constructors and the static initialiser
/// belong to the factories.
std::vector<Member> own_members(const Substitutables& subst, const ClassFile& cls,
                                bool statics) {
    std::vector<Member> out;
    for (const Field& f : cls.fields) {
        if (f.is_static != statics) continue;
        TypeDesc mapped = map_type(subst, f.type);
        out.push_back(Member{naming::getter(f.name), MethodSig({}, mapped), &f, nullptr});
        out.push_back(Member{naming::setter(f.name), MethodSig({mapped}, TypeDesc::void_()),
                             &f, nullptr});
    }
    for (const Method& m : cls.methods)
        if (m.is_static == statics && !m.is_ctor() && !m.is_clinit())
            out.push_back(Member{m.name, map_sig(subst, m.sig), nullptr, &m});
    return out;
}

/// All members the *instance* interface of `cls` must expose, walking up
/// through substitutable ancestors and implemented transformable
/// interfaces.  Used for proxies, which implement everything directly.
std::vector<Member> instance_members(const Substitutables& subst, const ClassFile& cls) {
    const model::ClassPool& pool = subst.pool();
    std::vector<Member> out;
    std::set<std::string> seen;  // name + descriptor
    std::set<std::string> visited;
    std::vector<const ClassFile*> work{&cls};
    while (!work.empty()) {
        const ClassFile* c = work.back();
        work.pop_back();
        if (!visited.insert(c->name).second) continue;
        // Stop at ancestors outside the family: a non-substitutable class
        // keeps its members in raw form, a transformable interface is
        // rewritten in place and contributes its (mapped) methods.
        if (c->is_interface ? !subst.analysis().transformable(c->name)
                            : !subst.contains(c->name))
            continue;
        for (Member& m : own_members(subst, *c, /*statics=*/false))
            if (seen.insert(m.name + m.sig.descriptor()).second) out.push_back(std::move(m));
        if (!c->super_name.empty())
            if (const ClassFile* s = pool.find(c->super_name)) work.push_back(s);
        for (const std::string& i : c->interfaces)
            if (const ClassFile* icf = pool.find(i)) work.push_back(icf);
    }
    return out;
}

std::string int_name(const std::string& cls, bool statics) {
    return statics ? naming::c_int(cls) : naming::o_int(cls);
}

/// A_O_Int / A_C_Int: the family's members as abstract methods.
ClassFile make_int(const Substitutables& subst, const ClassFile& cls, bool statics) {
    ClassBuilder b(int_name(cls.name, statics));
    b.interface_();
    if (!statics) {
        // Inherit the super family's interface so implementations can be
        // passed wherever the supertype interface is expected.
        if (!cls.super_name.empty() && subst.contains(cls.super_name))
            b.implements(naming::o_int(cls.super_name));
        for (const std::string& i : cls.interfaces)
            b.implements(i);  // user interfaces are rewritten in place, same name
    }
    for (Member& m : own_members(subst, cls, statics))
        b.abstract_method(std::move(m.name), std::move(m.sig));
    return b.build();
}

/// A_O_Local / A_C_Local: each field private behind its get_f/set_f (the
/// only direct field accesses left), each method public (publicization,
/// Sec 2.1) with its body rewritten.  The static family makes the statics
/// members of a singleton (Sec 2.2); only the instance family has a super.
ClassFile make_local(const Substitutables& subst, const ClassFile& cls, bool statics) {
    const std::string self = statics ? naming::c_local(cls.name) : naming::o_local(cls.name);
    ClassBuilder b(self);
    if (!statics && !cls.super_name.empty()) {
        // Substitutable super: extend its local implementation.  A
        // non-substitutable super keeps its original form and is extended
        // directly (its fields/methods stay raw).
        b.extends(subst.contains(cls.super_name) ? naming::o_local(cls.super_name)
                                                 : cls.super_name);
    }
    b.implements(int_name(cls.name, statics));
    // The default parameterless constructor the paper adds (Sec 2.1).  All
    // original constructor logic lives in the factory init methods.
    b.method(model::empty_ctor());

    RewriteContext ctx{&subst, cls.name, /*static_family=*/statics};
    for (Member& m : own_members(subst, cls, statics)) {
        if (m.method) {
            Method out;
            out.name = std::move(m.name);
            out.sig = std::move(m.sig);
            out.vis = Visibility::Public;
            out.code = rewrite_code(ctx, m.method->code);  // a static's locals shift by one
            b.method(std::move(out));
            continue;
        }
        CodeBuilder body;
        if (m.sig.params().empty()) {
            b.field(m.field->name, m.sig.ret(), Visibility::Private);
            body.load(0).get_field(self, m.field->name, m.sig.ret()).ret_value();
        } else {
            body.load(0).load(1).put_field(self, m.field->name, m.sig.params()[0]).ret();
        }
        b.method(std::move(m.name), std::move(m.sig), std::move(body));
    }
    if (!statics) return b.build();

    // Singleton declarations, as in Fig 4:
    //   private static X_C_Int me = new X_C_Local();
    //   public static X_C_Int get_me() { return me; }
    const TypeDesc iface_t = TypeDesc::ref(naming::c_int(cls.name));
    b.static_field(naming::kSingletonField, iface_t, Visibility::Private);
    CodeBuilder get;
    Label make = get.new_label();
    get.get_static(self, naming::kSingletonField, iface_t)
        .const_null()
        .cmp(model::Op::CmpEq)
        .if_true(make)
        .get_static(self, naming::kSingletonField, iface_t)
        .ret_value();
    get.bind(make);
    get.new_(self)
        .dup()
        .invoke_special(self, "<init>", MethodSig({}, TypeDesc::void_()))
        .put_static(self, naming::kSingletonField, iface_t)
        .get_static(self, naming::kSingletonField, iface_t)
        .ret_value();
    b.static_method(naming::kSingletonGetter, MethodSig({}, iface_t), std::move(get));
    return b.build();
}

/// A proxy class: every member native, plus routing fields.
ClassFile make_proxy(const std::string& name, const std::string& iface,
                     const std::vector<Member>& members) {
    ClassBuilder b(name);
    b.implements(iface);
    b.field(naming::kProxyNodeField, TypeDesc::int_(), Visibility::Public);
    b.field(naming::kProxyOidField, TypeDesc::long_(), Visibility::Public);
    b.method(model::empty_ctor());  // protocol-specific initialisation is bound natively
    for (const Member& m : members) b.native_method(m.name, m.sig);
    return b.build();
}

ClassFile make_o_factory(const Substitutables& subst, const ClassFile& cls) {
    ClassBuilder b(naming::o_factory(cls.name));
    const TypeDesc iface_t = TypeDesc::ref(naming::o_int(cls.name));

    // make() is native: the middleware decides which implementation to
    // instantiate (policy, Sec 2.3).  transform::bind_local_factories gives
    // the single-address-space binding.
    b.native_method("make", MethodSig({}, iface_t), /*is_static=*/true);

    // One init per original constructor, containing the constructor's
    // rewritten body with `that` in slot 0 (where `this` was).
    RewriteContext ctx{&subst, cls.name, /*static_family=*/false};
    for (const Method& m : cls.methods) {
        if (!m.is_ctor()) continue;
        Method out;
        out.name = "init";
        std::vector<TypeDesc> params;
        params.push_back(iface_t);
        for (const TypeDesc& p : m.sig.params())
            params.push_back(map_type(subst, p));
        out.sig = MethodSig(std::move(params), TypeDesc::void_());
        out.is_static = true;
        out.code = rewrite_code(ctx, m.code);
        b.method(std::move(out));
    }
    return b.build();
}

ClassFile make_c_factory(const Substitutables& subst, const ClassFile& cls) {
    ClassBuilder b(naming::c_factory(cls.name));
    const TypeDesc iface_t = TypeDesc::ref(naming::c_int(cls.name));
    const std::string c_int_name = naming::c_int(cls.name);

    // discover() is native: the middleware returns the singleton (local or
    // proxy) and runs clinit exactly once (Sec 2.3).
    b.native_method("discover", MethodSig({}, iface_t), /*is_static=*/true);

    // clinit(that) mirrors the original static initialiser (Fig 5); when
    // the class has none, an empty method keeps the protocol uniform.
    {
        Method out;
        out.name = "clinit";
        out.sig = MethodSig({iface_t}, TypeDesc::void_());
        out.is_static = true;
        if (const Method* orig = cls.find_method("<clinit>", "()V")) {
            RewriteContext ctx{&subst, cls.name, /*static_family=*/true};
            out.code = rewrite_code(ctx, orig->code);
        } else {
            out.code = model::empty_ctor().code;
        }
        b.method(std::move(out));
    }

    // call_m forwarders: static call sites route through these, which go
    // through discover() to the singleton (implementation note: avoids
    // inserting a receiver under already-pushed arguments at call sites).
    for (const Member& m : own_members(subst, cls, /*statics=*/true)) {
        if (!m.method) continue;
        CodeBuilder fwd;
        fwd.invoke_static(naming::c_factory(cls.name), "discover",
                          MethodSig({}, iface_t));
        for (int p = 0; p < static_cast<int>(m.sig.params().size()); ++p) fwd.load(p);
        fwd.invoke_interface(c_int_name, m.name, m.sig);
        if (m.sig.ret().is_void()) fwd.ret();
        else fwd.ret_value();
        b.static_method(naming::static_forwarder(m.name), m.sig, std::move(fwd));
    }
    return b.build();
}

}  // namespace

std::vector<model::ClassFile> generate_family(const Substitutables& subst,
                                              const model::ClassFile& cls,
                                              const GeneratorOptions& options) {
    if (cls.is_interface)
        throw TransformError("generate_family on interface " + cls.name);
    if (!subst.contains(cls.name))
        throw TransformError("generate_family on non-substitutable class " + cls.name);

    // Instance family, then static family, then the two factories.
    std::vector<ClassFile> out;
    for (bool statics : {false, true}) {
        out.push_back(make_int(subst, cls, statics));
        out.push_back(make_local(subst, cls, statics));
        const std::vector<Member> members =
            statics ? own_members(subst, cls, true) : instance_members(subst, cls);
        for (const std::string& proto : options.protocols)
            out.push_back(make_proxy(statics ? naming::c_proxy(cls.name, proto)
                                             : naming::o_proxy(cls.name, proto),
                                     int_name(cls.name, statics), members));
    }
    out.push_back(make_o_factory(subst, cls));
    out.push_back(make_c_factory(subst, cls));
    return out;
}

model::ClassFile rewrite_in_place(const Substitutables& subst,
                                  const model::ClassFile& cls) {
    ClassFile out = cls;
    for (Method& m : out.methods) m.sig = map_sig(subst, m.sig);
    if (cls.is_interface) return out;  // a user interface only needs its signatures
    for (model::Field& f : out.fields) f.type = map_type(subst, f.type);
    RewriteContext ctx{&subst, cls.name, /*static_family=*/false};
    for (Method& m : out.methods)
        if (!m.is_native && !m.is_abstract) m.code = rewrite_code(ctx, m.code);
    return out;
}

}  // namespace rafda::transform
