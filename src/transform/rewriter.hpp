// Call-site rewriting (paper Sections 2.1-2.3).
//
// Rewrites code so that it only uses extracted interface types:
//
//   getfield  C.f       ->  invokeinterface C_O_Int.get_f
//   putfield  C.f       ->  invokeinterface C_O_Int.set_f
//   getstatic C.s       ->  invokestatic D_C_Factory.discover
//                           invokeinterface D_C_Int.get_s
//   putstatic C.s       ->  ... discover; swap; invokeinterface D_C_Int.set_s
//   invokevirtual C.m   ->  invokeinterface C_O_Int.m
//   invokestatic  C.m   ->  invokestatic D_C_Factory.call_m   (forwarder)
//   new C               ->  invokestatic C_O_Factory.make
//   invokespecial C.<init> -> invokestatic C_O_Factory.init
//
// (D is the class on C's superclass chain that declares the static member,
// found with ClassPool's bounded chain walk.)  Branch targets and handler
// ranges then move to the new positions through model::remapped, the remap
// the wrapper baseline shares.  Input code must be verified: the remap
// indexes by every old target.
//
// Code generated for the *static* family (A_C_Local methods and the
// factory clinit) accesses the statics of its own class through slot 0 —
// `this` for A_C_Local instance methods, the `that` parameter for
// A_C_Factory.clinit — reproducing the paper's `get_z()` / `that.set_z(t)`
// forms.  Operands naming non-transformable classes are left untouched.
#pragma once

#include "model/classfile.hpp"
#include "model/classpool.hpp"
#include "transform/analysis.hpp"

namespace rafda::transform {

/// Which classes are substitutable ("Policy dictates which classes are
/// substitutable", Sec 1): transformable, not an interface, and — when a
/// policy filter is present — selected by it.  Only substitutable classes
/// get families; everything transformable still gets its references
/// retyped so the two worlds compose.
class Substitutables {
public:
    /// All transformable classes are substitutable.
    explicit Substitutables(const model::ClassPool& pool, const Analysis& analysis);
    /// Only the intersection of `selected` with the transformable classes.
    Substitutables(const model::ClassPool& pool, const Analysis& analysis,
                   std::vector<std::string> selected);

    bool contains(const std::string& cls) const;
    const Analysis& analysis() const noexcept { return *analysis_; }
    const model::ClassPool& pool() const noexcept { return *pool_; }

private:
    const model::ClassPool* pool_;
    const Analysis* analysis_;
    bool filtered_ = false;
    std::vector<std::string> selected_;  // sorted
};

/// Maps one type: a reference to a substitutable class C becomes a
/// reference to C_O_Int; interfaces and everything else stay.
model::TypeDesc map_type(const Substitutables& subst, const model::TypeDesc& t);

model::MethodSig map_sig(const Substitutables& subst, const model::MethodSig& sig);

struct RewriteContext {
    const Substitutables* subst = nullptr;
    /// Original class whose code is being rewritten.
    std::string self;
    /// True when the output lives in the static family (A_C_Local method,
    /// A_C_Factory.clinit): self static access goes through slot 0 and all
    /// local slots shift by one.
    bool static_family = false;
};

/// Rewrites a verified method body.  Branch targets and handler ranges are
/// remapped to the new instruction positions.
model::Code rewrite_code(const RewriteContext& ctx, const model::Code& in);

}  // namespace rafda::transform
