#include "model/builder.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace rafda::model {

CodeBuilder& CodeBuilder::op(Instruction ins) {
    if (ins.op == Op::Load || ins.op == Op::Store)
        max_slot_ = std::max(max_slot_, ins.a);
    instrs_.push_back(std::move(ins));
    return *this;
}

Label CodeBuilder::new_label() {
    Label l{static_cast<int>(label_pc_.size())};
    label_pc_.push_back(-1);
    return l;
}

CodeBuilder& CodeBuilder::bind(Label label) {
    if (label.id < 0 || label.id >= static_cast<int>(label_pc_.size()))
        throw VerifyError("bind of unknown label");
    if (label_pc_[label.id] != -1) throw VerifyError("label bound twice");
    label_pc_[label.id] = static_cast<int>(instrs_.size());
    return *this;
}

CodeBuilder& CodeBuilder::branch(Op op, Label label) {
    Instruction i;
    i.op = op;
    // Store the label id; finish() rewrites it into a pc.  Encoded negative
    // (offset by 1) so an unresolved label can never alias a valid pc.
    i.a = -(label.id + 1);
    instrs_.push_back(i);
    return *this;
}

CodeBuilder& CodeBuilder::go(Label label) { return branch(Op::Goto, label); }
CodeBuilder& CodeBuilder::if_true(Label label) { return branch(Op::IfTrue, label); }

CodeBuilder& CodeBuilder::handler(Label from, Label to, Label target,
                                  std::string class_name) {
    handlers_.push_back(PendingHandler{from, to, target, std::move(class_name)});
    return *this;
}

Code CodeBuilder::finish(int min_locals) {
    auto resolve = [this](Label l) {
        if (l.id < 0 || l.id >= static_cast<int>(label_pc_.size()) || label_pc_[l.id] < 0)
            throw VerifyError("unbound label in code builder");
        return label_pc_[l.id];
    };

    Code code;
    code.instrs = std::move(instrs_);
    for (Instruction& i : code.instrs) {
        if (is_branch(i.op)) {
            int label_id = -i.a - 1;
            if (label_id < 0) throw VerifyError("branch with non-label target in builder");
            i.a = resolve(Label{label_id});
        }
    }
    for (const PendingHandler& h : handlers_) {
        code.handlers.push_back(
            Handler{resolve(h.from), resolve(h.to), resolve(h.target), h.class_name});
    }
    code.max_locals = std::max(min_locals, max_slot_ + 1);
    return code;
}

ClassBuilder::ClassBuilder(std::string name) { cf_.name = std::move(name); }

ClassBuilder& ClassBuilder::extends(std::string super_name) {
    cf_.super_name = std::move(super_name);
    return *this;
}

ClassBuilder& ClassBuilder::implements(std::string interface_name) {
    cf_.interfaces.push_back(std::move(interface_name));
    return *this;
}

ClassBuilder& ClassBuilder::interface_() {
    cf_.is_interface = true;
    return *this;
}

ClassBuilder& ClassBuilder::special() {
    cf_.is_special = true;
    return *this;
}

ClassBuilder& ClassBuilder::field(std::string name, TypeDesc type, Visibility vis,
                                  bool is_final) {
    cf_.fields.push_back(Field{std::move(name), std::move(type), vis, false, is_final});
    return *this;
}

ClassBuilder& ClassBuilder::static_field(std::string name, TypeDesc type, Visibility vis,
                                         bool is_final) {
    cf_.fields.push_back(Field{std::move(name), std::move(type), vis, true, is_final});
    return *this;
}

ClassBuilder& ClassBuilder::method(Method m) {
    cf_.methods.push_back(std::move(m));
    return *this;
}

ClassBuilder& ClassBuilder::method(std::string name, MethodSig sig, CodeBuilder body,
                                   Visibility vis) {
    Method m;
    m.name = std::move(name);
    m.sig = std::move(sig);
    m.vis = vis;
    m.code = body.finish(static_cast<int>(m.sig.params().size()) + 1);
    return method(std::move(m));
}

ClassBuilder& ClassBuilder::static_method(std::string name, MethodSig sig,
                                          CodeBuilder body, Visibility vis) {
    Method m;
    m.name = std::move(name);
    m.sig = std::move(sig);
    m.vis = vis;
    m.is_static = true;
    m.code = body.finish(static_cast<int>(m.sig.params().size()));
    return method(std::move(m));
}

ClassBuilder& ClassBuilder::abstract_method(std::string name, MethodSig sig) {
    Method m;
    m.name = std::move(name);
    m.sig = std::move(sig);
    m.is_abstract = true;
    return method(std::move(m));
}

ClassBuilder& ClassBuilder::native_method(std::string name, MethodSig sig, bool is_static) {
    Method m;
    m.name = std::move(name);
    m.sig = std::move(sig);
    m.is_native = true;
    m.is_static = is_static;
    return method(std::move(m));
}

ClassFile ClassBuilder::build() { return std::move(cf_); }

Method empty_ctor() {
    CodeBuilder body;
    body.ret();
    Method m;
    m.name = "<init>";
    m.sig = MethodSig({}, TypeDesc::void_());
    m.code = body.finish(1);
    return m;
}

}  // namespace rafda::model
