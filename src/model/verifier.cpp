#include "model/verifier.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace rafda::model {

namespace {

/// One thread's working storage, reused from class to class: once the
/// buffers have grown to the largest class seen, a clean class verifies
/// without touching the heap.  The initial capacities cover typical
/// classes, so how a thread pool happens to spread the classes over its
/// threads rarely decides which thread grows a buffer.
struct Scratch {
    std::vector<const ClassFile*> work;      // type-graph walk stack
    std::vector<const ClassFile*> visited;   // classes a walk entered; graphs are small
    std::vector<int> depth_at;               // stack depth per pc, -1 = unvisited
    std::vector<std::pair<int, int>> paths;  // (pc, depth) still to explore

    Scratch() {
        work.reserve(64);
        visited.reserve(64);
        depth_at.reserve(256);
        paths.reserve(64);
    }
};

Scratch& scratch() {
    thread_local Scratch s;
    return s;
}

/// "Cls.method(desc)", the location of a problem inside a method body.
std::string code_site(const ClassFile& cf, const Method& m) {
    return cf.name + "." + m.name + m.descriptor();
}

class Verifier {
public:
    explicit Verifier(const ClassPool& pool) : pool_(pool) {}

    std::vector<std::string> run() {
        for (const ClassFile* cf : pool_.all()) check_class(*cf);
        return std::move(problems_);
    }

    /// Checks a single class; used by the parallel mode, which verifies
    /// every class with its own Verifier and merges the problem lists.
    std::vector<std::string> run_one(const ClassFile& cf) {
        check_class(cf);
        return std::move(problems_);
    }

private:
    // Every problem string — location and message — is built only once the
    // problem is found, so a clean pool builds none.
    void problem(const std::string& where, const std::string& what) {
        problems_.push_back(where + ": " + what);
    }

    void check_class(const ClassFile& cf) {
        if (cf.name.empty()) {
            problem("<anonymous>", "class with empty name");
            return;
        }
        check_hierarchy(cf);
        check_members(cf);
        for (const Method& m : cf.methods) {
            if (!m.is_native && !m.is_abstract) check_code(cf, m);
            if (cf.is_interface) {
                if (!m.is_abstract)
                    problem(cf.name + "." + m.name, "interface method must be abstract");
                if (m.vis != Visibility::Public)
                    problem(cf.name + "." + m.name, "interface method must be public");
                if (m.is_static)
                    problem(cf.name + "." + m.name, "interface method cannot be static");
            }
        }
        if (cf.is_interface && !cf.fields.empty())
            problem(cf.name, "interfaces cannot declare fields");
    }

    const ClassFile* super_of(const ClassFile& cf) const {
        return cf.super_name.empty() ? nullptr : pool_.find(cf.super_name);
    }

    void push_supertypes(const ClassFile& cf, std::vector<const ClassFile*>& work) const {
        if (const ClassFile* s = super_of(cf)) work.push_back(s);
        for (const std::string& i : cf.interfaces)
            if (const ClassFile* icf = pool_.find(i)) work.push_back(icf);
    }

    /// Depth-first walk up the superclass chain and interface graph from
    /// `from` (itself included or not), entering each class once: returns
    /// true at the first class `stop` accepts.  Names that resolve to no
    /// class are skipped, as are cycles.
    template <typename Stop>
    bool walk_up(const ClassFile& from, bool include_from, Stop stop) const {
        Scratch& s = scratch();
        s.work.clear();
        s.visited.clear();
        if (include_from) s.work.push_back(&from);
        else push_supertypes(from, s.work);
        while (!s.work.empty()) {
            const ClassFile* c = s.work.back();
            s.work.pop_back();
            if (std::find(s.visited.begin(), s.visited.end(), c) != s.visited.end()) continue;
            s.visited.push_back(c);
            if (stop(*c)) return true;
            push_supertypes(*c, s.work);
        }
        return false;
    }

    void check_hierarchy(const ClassFile& cf) {
        if (!cf.super_name.empty()) {
            const ClassFile* super = pool_.find(cf.super_name);
            if (!super) problem(cf.name, "unknown superclass " + cf.super_name);
            else if (super->is_interface)
                problem(cf.name, "superclass " + cf.super_name + " is an interface");
        }
        for (const std::string& i : cf.interfaces) {
            const ClassFile* icf = pool_.find(i);
            if (!icf) problem(cf.name, "unknown interface " + i);
            else if (!icf->is_interface)
                problem(cf.name, "implements non-interface " + i);
        }
        // Cycle check along the superclass chain and interface graph.
        if (walk_up(cf, false, [&](const ClassFile& c) { return &c == &cf; }))
            problem(cf.name, "inheritance cycle");
    }

    /// True if one of members[0, i) satisfies `same`.
    template <typename Member, typename Same>
    static bool declared_before(const std::vector<Member>& members, std::size_t i, Same same) {
        return std::any_of(members.begin(), members.begin() + static_cast<std::ptrdiff_t>(i),
                           same);
    }

    void check_members(const ClassFile& cf) {
        for (std::size_t i = 0; i < cf.fields.size(); ++i) {
            const Field& f = cf.fields[i];
            if (declared_before(cf.fields, i, [&](const Field& g) { return g.name == f.name; }))
                problem(cf.name, "duplicate field " + f.name);
            if (f.type.is_void()) problem(cf.name + "." + f.name, "void field");
            const BaseType base = f.type.base();
            if (base.kind == Kind::Ref && !pool_.contains(base.class_name))
                problem(cf.name + "." + f.name,
                        "field type names unknown class " + std::string(base.class_name));
        }
        for (std::size_t i = 0; i < cf.methods.size(); ++i) {
            const Method& m = cf.methods[i];
            if (declared_before(cf.methods, i, [&](const Method& g) {
                    return g.name == m.name && g.sig == m.sig;
                }))
                problem(cf.name, "duplicate method " + m.name + m.descriptor());
            check_sig_types(cf, m);
            if (m.is_ctor() && m.is_static)
                problem(cf.name + "." + m.name, "static constructor");
            if (m.is_clinit() && !m.is_static)
                problem(cf.name + "." + m.name, "non-static <clinit>");
        }
    }

    void check_sig_types(const ClassFile& cf, const Method& m) {
        for (const TypeDesc& p : m.sig.params()) {
            const BaseType base = p.base();
            if (base.kind == Kind::Ref && !pool_.contains(base.class_name))
                problem(cf.name + "." + m.name,
                        "parameter names unknown class " + std::string(base.class_name));
        }
        const BaseType ret = m.sig.ret().base();
        if (ret.kind == Kind::Ref && !pool_.contains(ret.class_name))
            problem(cf.name + "." + m.name,
                    "return type names unknown class " + std::string(ret.class_name));
    }

    /// True if `cf` (a class) has an unimplemented abstract method anywhere
    /// in its superclass chain or interfaces: some abstract declaration
    /// there resolves to no concrete method along `cf`'s superclass chain.
    bool has_unimplemented_abstract(const ClassFile& cf) const {
        return walk_up(cf, true, [&](const ClassFile& c) {
            for (const Method& m : c.methods)
                if (m.is_abstract && !implements(cf, m)) return true;
            return false;
        });
    }

    /// True if ClassPool::resolve_virtual would find a concrete `decl` on
    /// `cf`: the first method with its name and signature is concrete on
    /// some class up the superclass chain.  Signatures are compared in place.
    bool implements(const ClassFile& cf, const Method& decl) const {
        return pool_.find_on_chain(&cf, [&](const ClassFile& c) {
            const auto m = std::find_if(c.methods.begin(), c.methods.end(), [&](const Method& x) {
                return x.name == decl.name && x.sig == decl.sig;
            });
            return m != c.methods.end() && !m->is_abstract;
        }) != nullptr;
    }

    void check_code(const ClassFile& cf, const Method& m) {
        const Code& code = m.code;
        const int n = static_cast<int>(code.instrs.size());
        if (n == 0) {
            problem(code_site(cf, m), "empty body");
            return;
        }
        // Terminal instruction: last instruction must not fall off the end.
        const Op last = code.instrs[n - 1].op;
        if (last != Op::Return && last != Op::ReturnValue && last != Op::Goto &&
            last != Op::Throw)
            problem(code_site(cf, m), "control can fall off the end of the code");

        for (int pc = 0; pc < n; ++pc) {
            const Instruction& i = code.instrs[pc];
            if (is_branch(i.op) && (i.a < 0 || i.a >= n))
                problem(code_site(cf, m),
                        "branch target out of range at pc " + std::to_string(pc));
            if ((i.op == Op::Load || i.op == Op::Store) &&
                (i.a < 0 || i.a >= code.max_locals))
                problem(code_site(cf, m), "slot out of range at pc " + std::to_string(pc));
            check_symbols(cf, m, i, pc);
        }
        for (const Handler& h : code.handlers) {
            if (h.start < 0 || h.end > n || h.start >= h.end || h.target < 0 ||
                h.target >= n)
                problem(code_site(cf, m), "handler range invalid");
            if (!pool_.contains(h.class_name))
                problem(code_site(cf, m), "handler names unknown class " + h.class_name);
        }
        check_stack(cf, m);
    }

    void check_symbols(const ClassFile& cf, const Method& m, const Instruction& i, int pc) {
        auto at = [&] { return code_site(cf, m) + " at pc " + std::to_string(pc); };
        switch (i.op) {
            case Op::NewArray: {
                const BaseType base = TypeDesc::base_of(i.desc);
                if (base.kind == Kind::Ref && !pool_.contains(base.class_name))
                    problem(at(), "array of unknown class " + std::string(base.class_name));
                if (base.kind == Kind::Void) problem(at(), "array of void");
                break;
            }
            case Op::New: {
                const ClassFile* c = pool_.find(i.owner);
                if (!c) {
                    problem(at(), "new of unknown class " + i.owner);
                } else if (c->is_interface) {
                    problem(at(), "new of interface " + i.owner);
                } else if (has_unimplemented_abstract(*c)) {
                    problem(at(), "new of abstract class " + i.owner);
                }
                break;
            }
            case Op::GetField:
            case Op::PutField: {
                const ClassFile* c = pool_.find(i.owner);
                if (!c) {
                    problem(at(), "field op on unknown class " + i.owner);
                    break;
                }
                // The field may be declared on a superclass.
                const Field* f = nullptr;
                if (!pool_.find_on_chain(c, [&](const ClassFile& cur) {
                        return (f = cur.find_field(i.member)) != nullptr;
                    })) {
                    problem(at(), "no field " + i.member + " on " + i.owner);
                    break;
                }
                if (f->is_static) problem(at(), "instance field op on static field");
                if (!f->type.descriptor_is(i.desc))
                    problem(at(), "field descriptor mismatch for " + i.member);
                break;
            }
            case Op::GetStatic:
            case Op::PutStatic: {
                const ClassFile* declaring = pool_.resolve_static_field(i.owner, i.member);
                if (!declaring) {
                    problem(at(), "no static field " + i.member + " on " + i.owner);
                    break;
                }
                const Field* f = declaring->find_field(i.member);
                if (!f->type.descriptor_is(i.desc))
                    problem(at(), "static field descriptor mismatch for " + i.member);
                break;
            }
            case Op::InvokeStatic: {
                const Method* target = pool_.resolve_static(i.owner, i.member, i.desc);
                if (!target)
                    problem(at(), "unresolved static method " + i.owner + "." + i.member +
                                      i.desc);
                break;
            }
            case Op::InvokeSpecial: {
                const ClassFile* c = pool_.find(i.owner);
                const Method* target = c ? c->find_method(i.member, i.desc) : nullptr;
                if (!target || !target->is_ctor())
                    problem(at(), "invokespecial must name a constructor: " + i.owner + "." +
                                      i.member + i.desc);
                break;
            }
            case Op::InvokeVirtual:
            case Op::InvokeInterface: {
                const ClassFile* c = pool_.find(i.owner);
                if (!c) {
                    problem(at(), "invoke on unknown class " + i.owner);
                    break;
                }
                if (i.op == Op::InvokeInterface && !c->is_interface)
                    problem(at(), "invokeinterface on non-interface " + i.owner);
                if (i.op == Op::InvokeVirtual && c->is_interface)
                    problem(at(), "invokevirtual on interface " + i.owner);
                if (!find_declared(*c, i.member, i.desc))
                    problem(at(), "no method " + i.member + i.desc + " visible on " + i.owner);
                break;
            }
            default:
                break;
        }
    }

    /// True if a method `name`+`desc` is declared anywhere in the type
    /// graph above `cf` (itself included).
    bool find_declared(const ClassFile& cf, std::string_view name, std::string_view desc) const {
        return walk_up(cf, true, [&](const ClassFile& c) {
            return c.find_method(name, desc) != nullptr;
        });
    }

    /// Net stack effect and minimum required depth of one instruction.
    static std::pair<int, int> stack_effect(const Instruction& i) {
        switch (i.op) {
            case Op::Nop: return {0, 0};
            case Op::Const: return {+1, 0};
            case Op::Load: return {+1, 0};
            case Op::Store: return {-1, 1};
            case Op::Dup: return {+1, 1};
            case Op::Pop: return {-1, 1};
            case Op::Swap: return {0, 2};
            case Op::Add:
            case Op::Sub:
            case Op::Mul:
            case Op::Div:
            case Op::Rem:
            case Op::CmpEq:
            case Op::CmpNe:
            case Op::CmpLt:
            case Op::CmpLe:
            case Op::CmpGt:
            case Op::CmpGe:
            case Op::And:
            case Op::Or:
            case Op::Concat: return {-1, 2};
            case Op::Neg:
            case Op::Not:
            case Op::Conv: return {0, 1};
            case Op::Goto: return {0, 0};
            case Op::IfTrue:
            case Op::IfFalse: return {-1, 1};
            case Op::New: return {+1, 0};
            case Op::GetField: return {0, 1};
            case Op::PutField: return {-2, 2};
            case Op::GetStatic: return {+1, 0};
            case Op::PutStatic: return {-1, 1};
            case Op::InvokeVirtual:
            case Op::InvokeInterface:
            case Op::InvokeStatic:
            case Op::InvokeSpecial: {
                const MethodShape shape = MethodSig::shape_of(i.desc);
                const int pops =
                    static_cast<int>(shape.params) + (i.op == Op::InvokeStatic ? 0 : 1);
                const int pushes = shape.returns_value ? 1 : 0;
                return {pushes - pops, pops};
            }
            case Op::Return: return {0, 0};
            case Op::ReturnValue: return {-1, 1};
            case Op::Throw: return {-1, 1};
            case Op::NewArray: return {0, 1};   // pop length, push ref
            case Op::ALoad: return {-1, 2};     // pop idx+ref, push elem
            case Op::AStore: return {-3, 3};
            case Op::ALen: return {0, 1};
        }
        return {0, 0};
    }

    /// Stack-depth dataflow over the method body.  Only pcs in [0, n) are
    /// followed: a branch or handler target outside the code was already
    /// reported by check_code and ends that path here.
    void check_stack(const ClassFile& cf, const Method& m) {
        const Code& code = m.code;
        const int n = static_cast<int>(code.instrs.size());
        Scratch& s = scratch();
        s.depth_at.assign(static_cast<std::size_t>(n), -1);
        s.paths.clear();
        s.paths.push_back({0, 0});
        for (const Handler& h : code.handlers)
            s.paths.push_back({h.target, 1});  // thrown object on the stack

        while (!s.paths.empty()) {
            auto [pc, depth] = s.paths.back();
            s.paths.pop_back();
            while (pc >= 0 && pc < n) {
                if (s.depth_at[pc] != -1) {
                    if (s.depth_at[pc] != depth) {
                        problem(code_site(cf, m),
                                "inconsistent stack depth at pc " + std::to_string(pc));
                        return;
                    }
                    break;  // already explored from here
                }
                s.depth_at[pc] = depth;
                const Instruction& i = code.instrs[pc];
                auto [net, need] = stack_effect(i);
                if (depth < need) {
                    problem(code_site(cf, m),
                            "stack underflow at pc " + std::to_string(pc) + " (" +
                                std::string(op_name(i.op)) + ")");
                    return;
                }
                depth += net;
                if (i.op == Op::Return || i.op == Op::ReturnValue || i.op == Op::Throw) break;
                if (i.op == Op::Goto) {
                    pc = i.a;
                    continue;
                }
                if (i.op == Op::IfTrue || i.op == Op::IfFalse) s.paths.push_back({i.a, depth});
                ++pc;
            }
        }
    }

    const ClassPool& pool_;
    std::vector<std::string> problems_;
};

}  // namespace

std::vector<std::string> verify_pool_collect(const ClassPool& pool,
                                             support::ThreadPool* threads) {
    if (!threads || threads->thread_count() == 1) return Verifier(pool).run();
    // Per-class checks only read the pool (const resolution walks, no lazy
    // caches), so classes fan out freely; merging the per-class lists in
    // name order reproduces the serial report exactly.
    const std::vector<const ClassFile*> classes = pool.all();
    std::vector<std::vector<std::string>> per_class(classes.size());
    threads->for_each_index(classes.size(), [&](std::size_t i) {
        per_class[i] = Verifier(pool).run_one(*classes[i]);
    });
    std::vector<std::string> problems;
    for (std::vector<std::string>& p : per_class)
        problems.insert(problems.end(), std::make_move_iterator(p.begin()),
                        std::make_move_iterator(p.end()));
    return problems;
}

void verify_pool(const ClassPool& pool, support::ThreadPool* threads) {
    std::vector<std::string> problems = verify_pool_collect(pool, threads);
    if (!problems.empty()) {
        std::ostringstream os;
        os << problems.size() << " problem(s); first: " << problems.front();
        throw VerifyError(os.str());
    }
}

}  // namespace rafda::model
