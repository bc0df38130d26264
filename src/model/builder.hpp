// Fluent builders for RIR classes and method bodies.
//
// The transformation pipeline, the wrapper baseline and the corpus
// generator all *generate* code; these builders keep that generation
// readable and get structural details (branch fixups, max_locals) right by
// construction.
#pragma once

#include <string>
#include <vector>

#include "model/classfile.hpp"

namespace rafda::model {

/// A forward-referencable branch target.
struct Label {
    int id = -1;
};

/// Builds one method body.  Slot indices follow the JVM convention: for
/// instance methods slot 0 is `this`, parameters follow.
class CodeBuilder {
public:
    CodeBuilder& op(Instruction ins);

    CodeBuilder& const_null() { return op(ins::const_null()); }
    CodeBuilder& const_bool(bool v) { return op(ins::const_bool(v)); }
    CodeBuilder& const_int(std::int32_t v) { return op(ins::const_int(v)); }
    CodeBuilder& const_long(std::int64_t v) { return op(ins::const_long(v)); }
    CodeBuilder& const_str(std::string v) { return op(ins::const_str(std::move(v))); }
    CodeBuilder& load(int slot) { return op(ins::load(slot)); }
    CodeBuilder& store(int slot) { return op(ins::store(slot)); }
    CodeBuilder& dup() { return op(ins::dup()); }
    CodeBuilder& pop() { return op(ins::pop()); }
    CodeBuilder& swap() { return op(ins::swap()); }
    CodeBuilder& add() { return op(ins::add()); }
    CodeBuilder& mul() { return op(ins::mul()); }
    CodeBuilder& rem() { return op(ins::rem()); }
    CodeBuilder& cmp(Op cmp_op) { return op(ins::cmp(cmp_op)); }
    CodeBuilder& conv(Kind target) { return op(ins::conv(target)); }
    CodeBuilder& concat() { return op(ins::concat()); }
    CodeBuilder& new_(std::string owner) { return op(ins::new_(std::move(owner))); }
    CodeBuilder& get_field(std::string owner, std::string member, const TypeDesc& t) {
        return op(ins::get_field(std::move(owner), std::move(member), t));
    }
    CodeBuilder& put_field(std::string owner, std::string member, const TypeDesc& t) {
        return op(ins::put_field(std::move(owner), std::move(member), t));
    }
    CodeBuilder& get_static(std::string owner, std::string member, const TypeDesc& t) {
        return op(ins::get_static(std::move(owner), std::move(member), t));
    }
    CodeBuilder& put_static(std::string owner, std::string member, const TypeDesc& t) {
        return op(ins::put_static(std::move(owner), std::move(member), t));
    }
    CodeBuilder& invoke_virtual(std::string owner, std::string member, const MethodSig& sig) {
        return op(ins::invoke_virtual(std::move(owner), std::move(member), sig));
    }
    CodeBuilder& invoke_interface(std::string owner, std::string member, const MethodSig& sig) {
        return op(ins::invoke_interface(std::move(owner), std::move(member), sig));
    }
    CodeBuilder& invoke_static(std::string owner, std::string member, const MethodSig& sig) {
        return op(ins::invoke_static(std::move(owner), std::move(member), sig));
    }
    CodeBuilder& invoke_special(std::string owner, std::string member, const MethodSig& sig) {
        return op(ins::invoke_special(std::move(owner), std::move(member), sig));
    }
    CodeBuilder& ret() { return op(ins::ret()); }
    CodeBuilder& ret_value() { return op(ins::ret_value()); }
    CodeBuilder& new_array(const TypeDesc& elem) { return op(ins::new_array(elem)); }
    CodeBuilder& aload() { return op(ins::aload()); }
    CodeBuilder& astore() { return op(ins::astore()); }

    /// Creates a fresh, unbound label.
    Label new_label();
    /// Binds `label` to the next instruction index.
    CodeBuilder& bind(Label label);
    CodeBuilder& go(Label label);
    CodeBuilder& if_true(Label label);

    /// Registers a try/catch over [from, to) labels.
    CodeBuilder& handler(Label from, Label to, Label target, std::string class_name);

    /// Finalises: resolves labels, computes max_locals (>= min_locals).
    /// Throws VerifyError on unbound labels.
    Code finish(int min_locals);

private:
    CodeBuilder& branch(Op op, Label label);

    struct PendingHandler {
        Label from, to, target;
        std::string class_name;
    };

    std::vector<Instruction> instrs_;
    std::vector<int> label_pc_;  // -1 while unbound
    std::vector<PendingHandler> handlers_;
    int max_slot_ = -1;
};

/// `<init>()V` whose body only returns: the parameterless constructor the
/// paper gives every local implementation and proxy (Sec 2.1), and the one
/// the wrapper baseline ensures for make().
Method empty_ctor();

/// Builds one class file.
class ClassBuilder {
public:
    explicit ClassBuilder(std::string name);

    ClassBuilder& extends(std::string super_name);
    ClassBuilder& implements(std::string interface_name);
    ClassBuilder& interface_();
    ClassBuilder& special();

    ClassBuilder& field(std::string name, TypeDesc type,
                        Visibility vis = Visibility::Public, bool is_final = false);
    ClassBuilder& static_field(std::string name, TypeDesc type,
                               Visibility vis = Visibility::Public, bool is_final = false);

    /// Adds a method with a completed body.
    ClassBuilder& method(Method m);
    /// Convenience: non-static public method from a CodeBuilder.
    ClassBuilder& method(std::string name, MethodSig sig, CodeBuilder body,
                         Visibility vis = Visibility::Public);
    ClassBuilder& static_method(std::string name, MethodSig sig, CodeBuilder body,
                                Visibility vis = Visibility::Public);
    ClassBuilder& abstract_method(std::string name, MethodSig sig);
    ClassBuilder& native_method(std::string name, MethodSig sig, bool is_static = false);

    ClassFile build();

private:
    ClassFile cf_;
};

}  // namespace rafda::model
