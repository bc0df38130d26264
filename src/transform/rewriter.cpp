#include "transform/rewriter.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "transform/naming.hpp"

namespace rafda::transform {

using model::Code;
using model::Instruction;
using model::MethodSig;
using model::Op;
using model::TypeDesc;

Substitutables::Substitutables(const model::ClassPool& pool, const Analysis& analysis)
    : pool_(&pool), analysis_(&analysis) {}

Substitutables::Substitutables(const model::ClassPool& pool, const Analysis& analysis,
                               std::vector<std::string> selected)
    : pool_(&pool), analysis_(&analysis), filtered_(true), selected_(std::move(selected)) {
    std::sort(selected_.begin(), selected_.end());
}

bool Substitutables::contains(const std::string& cls) const {
    if (!analysis_->transformable(cls)) return false;
    const model::ClassFile* cf = pool_->find(cls);
    if (!cf || cf->is_interface) return false;
    if (!filtered_) return true;
    return std::binary_search(selected_.begin(), selected_.end(), cls);
}

model::TypeDesc map_type(const Substitutables& subst, const model::TypeDesc& t) {
    if (t.is_array()) return TypeDesc::array(map_type(subst, t.element()));
    if (!t.is_ref()) return t;
    if (!subst.contains(t.class_name())) return t;
    return TypeDesc::ref(naming::o_int(t.class_name()));
}

model::MethodSig map_sig(const Substitutables& subst, const model::MethodSig& sig) {
    std::vector<TypeDesc> params;
    params.reserve(sig.params().size());
    for (const TypeDesc& p : sig.params()) params.push_back(map_type(subst, p));
    return MethodSig(std::move(params), map_type(subst, sig.ret()));
}

namespace {

class Rewriter {
public:
    Rewriter(const RewriteContext& ctx, const Code& in) : ctx_(ctx), in_(in) {}

    Code run() {
        const Substitutables& subst = *ctx_.subst;
        const model::ClassPool& pool = subst.pool();
        const int shift = ctx_.static_family ? 1 : 0;

        for (int pc = 0; pc < static_cast<int>(in_.instrs.size()); ++pc) {
            new_pc_of_.push_back(static_cast<int>(out_.size()));
            const Instruction& i = in_.instrs[pc];

            switch (i.op) {
                case Op::Load:
                case Op::Store: {
                    Instruction copy = i;
                    copy.a += shift;
                    emit(copy);
                    break;
                }
                case Op::NewArray: {
                    Instruction copy = i;
                    copy.desc = map_type(subst, TypeDesc::parse(i.desc)).descriptor();
                    emit(copy);
                    break;
                }
                case Op::New: {
                    if (!subst.contains(i.owner)) {
                        emit(i);
                        break;
                    }
                    emit(model::ins::invoke_static(
                        naming::o_factory(i.owner), "make",
                        MethodSig({}, TypeDesc::ref(naming::o_int(i.owner)))));
                    break;
                }
                case Op::InvokeSpecial: {
                    MethodSig orig = MethodSig::parse(i.desc);
                    if (!subst.contains(i.owner)) {
                        // Constructor of a kept class: signature still maps
                        // (kept transformable classes are retyped in place).
                        emit(model::ins::invoke_special(i.owner, i.member,
                                                        map_sig(subst, orig)));
                        break;
                    }
                    // new A(...) -> A_O_Factory.init(that, ...)
                    std::vector<TypeDesc> params;
                    params.push_back(TypeDesc::ref(naming::o_int(i.owner)));
                    for (const TypeDesc& p : orig.params())
                        params.push_back(map_type(subst, p));
                    emit(model::ins::invoke_static(
                        naming::o_factory(i.owner), "init",
                        MethodSig(std::move(params), TypeDesc::void_())));
                    break;
                }
                case Op::GetField: {
                    TypeDesc mapped = map_type(subst, TypeDesc::parse(i.desc));
                    if (!subst.contains(i.owner)) {
                        emit(model::ins::get_field(i.owner, i.member, mapped));
                        break;
                    }
                    emit(model::ins::invoke_interface(naming::o_int(i.owner),
                                                      naming::getter(i.member),
                                                      MethodSig({}, mapped)));
                    break;
                }
                case Op::PutField: {
                    TypeDesc mapped = map_type(subst, TypeDesc::parse(i.desc));
                    if (!subst.contains(i.owner)) {
                        emit(model::ins::put_field(i.owner, i.member, mapped));
                        break;
                    }
                    emit(model::ins::invoke_interface(
                        naming::o_int(i.owner), naming::setter(i.member),
                        MethodSig({mapped}, TypeDesc::void_())));
                    break;
                }
                case Op::GetStatic: {
                    const model::ClassFile* declaring =
                        pool.resolve_static_field(i.owner, i.member);
                    TypeDesc mapped = map_type(subst, TypeDesc::parse(i.desc));
                    if (!declaring || !subst.contains(declaring->name)) {
                        emit(model::ins::get_static(i.owner, i.member, mapped));
                        break;
                    }
                    push_static_receiver(declaring->name);
                    emit(model::ins::invoke_interface(naming::c_int(declaring->name),
                                                      naming::getter(i.member),
                                                      MethodSig({}, mapped)));
                    break;
                }
                case Op::PutStatic: {
                    const model::ClassFile* declaring =
                        pool.resolve_static_field(i.owner, i.member);
                    TypeDesc mapped = map_type(subst, TypeDesc::parse(i.desc));
                    if (!declaring || !subst.contains(declaring->name)) {
                        emit(model::ins::put_static(i.owner, i.member, mapped));
                        break;
                    }
                    // Stack holds [value]; produce [receiver, value].
                    push_static_receiver(declaring->name);
                    emit(model::ins::swap());
                    emit(model::ins::invoke_interface(
                        naming::c_int(declaring->name), naming::setter(i.member),
                        MethodSig({mapped}, TypeDesc::void_())));
                    break;
                }
                case Op::InvokeVirtual: {
                    MethodSig mapped = map_sig(subst, MethodSig::parse(i.desc));
                    if (!subst.contains(i.owner)) {
                        emit(model::ins::invoke_virtual(i.owner, i.member, mapped));
                        break;
                    }
                    emit(model::ins::invoke_interface(naming::o_int(i.owner), i.member,
                                                      mapped));
                    break;
                }
                case Op::InvokeInterface: {
                    // User interfaces are rewritten in place: same owner,
                    // mapped signature.
                    emit(model::ins::invoke_interface(
                        i.owner, i.member, map_sig(subst, MethodSig::parse(i.desc))));
                    break;
                }
                case Op::InvokeStatic: {
                    // The class on the superclass chain that declares it.
                    const model::ClassFile* decl =
                        pool.find_on_chain(pool.find(i.owner), [&](const model::ClassFile& c) {
                            return c.find_method(i.member, i.desc) != nullptr;
                        });
                    const std::string& declaring = decl ? decl->name : i.owner;
                    MethodSig mapped = map_sig(subst, MethodSig::parse(i.desc));
                    if (!subst.contains(declaring)) {
                        emit(model::ins::invoke_static(i.owner, i.member, mapped));
                        break;
                    }
                    emit(model::ins::invoke_static(naming::c_factory(declaring),
                                                   naming::static_forwarder(i.member),
                                                   mapped));
                    break;
                }
                default:
                    emit(i);
                    break;
            }
        }
        new_pc_of_.push_back(static_cast<int>(out_.size()));  // end sentinel
        return model::remapped(in_, std::move(out_), new_pc_of_, in_.max_locals + shift);
    }

private:
    void emit(Instruction i) { out_.push_back(std::move(i)); }

    /// Pushes the receiver for a static-member access of class `declaring`:
    /// slot 0 for self-access in the static family, discover() otherwise.
    void push_static_receiver(const std::string& declaring) {
        if (ctx_.static_family && declaring == ctx_.self) {
            emit(model::ins::load(0));
        } else {
            emit(model::ins::invoke_static(
                naming::c_factory(declaring), "discover",
                MethodSig({}, TypeDesc::ref(naming::c_int(declaring)))));
        }
    }

    const RewriteContext& ctx_;
    const Code& in_;
    std::vector<Instruction> out_;
    std::vector<int> new_pc_of_;
};

}  // namespace

model::Code rewrite_code(const RewriteContext& ctx, const model::Code& in) {
    if (!ctx.subst) throw TransformError("rewrite context not initialised");
    return Rewriter(ctx, in).run();
}

}  // namespace rafda::transform
