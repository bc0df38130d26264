#include "model/assembler.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace rafda::model {

namespace {

/// Strips a `;` comment unless the `;` terminates a class descriptor
/// (i.e. is immediately preceded by a descriptor context).  To keep the
/// grammar simple, comments require `;` to be preceded by whitespace or
/// start-of-line.
std::string_view strip_comment(std::string_view line) {
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == ';' && (i == 0 || std::isspace(static_cast<unsigned char>(line[i - 1]))))
            return line.substr(0, i);
        if (line[i] == '"') {  // skip string literal
            ++i;
            while (i < line.size() && line[i] != '"') {
                if (line[i] == '\\') ++i;
                ++i;
            }
        }
    }
    return line;
}

struct Parser {
    std::vector<std::string> lines;
    int lineno = 0;  // 1-based index of the line in `current`
    std::string current;

    explicit Parser(std::string_view text) {
        for (std::string& l : split(text, '\n')) lines.push_back(std::move(l));
    }

    [[noreturn]] void fail(const std::string& msg) const { throw ParseError(msg, lineno); }

    /// `tok` as one whole number token within T's range; `what` names it
    /// in the error.
    template <class T>
    T parse_number(std::string_view tok, const char* what) const {
        if (const std::optional<T> v = parse_whole<T>(tok)) return *v;
        fail(std::string("bad ") + what + " '" + std::string(tok) + "'");
    }

    /// Next non-empty line, with comments stripped.  Returns false at EOF.
    bool next_line() {
        while (lineno < static_cast<int>(lines.size())) {
            std::string_view raw = lines[lineno];
            ++lineno;
            std::string_view stripped = trim(strip_comment(raw));
            if (!stripped.empty()) {
                current = std::string(stripped);
                return true;
            }
        }
        return false;
    }

    std::vector<ClassFile> run() {
        std::vector<ClassFile> out;
        while (next_line()) out.push_back(parse_class());
        return out;
    }

    ClassFile parse_class() {
        std::vector<std::string> toks = split_ws(current);
        std::size_t t = 0;
        ClassFile cf;
        if (toks[t] == "special") {
            cf.is_special = true;
            ++t;
        }
        if (t >= toks.size()) fail("expected 'class' or 'interface'");
        if (toks[t] == "interface") {
            cf.is_interface = true;
        } else if (toks[t] != "class") {
            fail("expected 'class' or 'interface', got '" + toks[t] + "'");
        }
        ++t;
        if (t >= toks.size()) fail("missing class name");
        cf.name = toks[t++];

        // extends / implements clauses.  Comma-separated names may arrive
        // as separate tokens; re-join and split on ','.
        auto read_names = [&](std::vector<std::string>& out_names) {
            std::string joined;
            while (t < toks.size() && toks[t] != "implements" && toks[t] != "extends" &&
                   toks[t] != "{")
                joined += toks[t++];
            for (std::string_view piece : split(joined, ','))
                if (!trim(piece).empty()) out_names.emplace_back(trim(piece));
        };
        while (t < toks.size() && toks[t] != "{") {
            if (toks[t] == "extends") {
                ++t;
                if (cf.is_interface) {
                    read_names(cf.interfaces);
                } else {
                    std::vector<std::string> supers;
                    read_names(supers);
                    if (supers.size() != 1) fail("a class extends exactly one class");
                    cf.super_name = supers[0];
                }
            } else if (toks[t] == "implements") {
                ++t;
                if (cf.is_interface) fail("interfaces use 'extends', not 'implements'");
                read_names(cf.interfaces);
            } else {
                fail("unexpected token in class header: '" + toks[t] + "'");
            }
        }
        if (t >= toks.size() || toks[t] != "{") fail("class header must end with '{'");

        while (true) {
            if (!next_line()) fail("unexpected end of input inside class " + cf.name);
            if (current == "}") break;
            parse_member(cf);
        }
        return cf;
    }

    void parse_member(ClassFile& cf) {
        std::vector<std::string> toks = split_ws(current);
        std::size_t t = 0;
        Visibility vis = Visibility::Public;
        bool is_static = false, is_final = false, is_native = false, is_abstract = false;

        auto consume_modifiers = [&] {
            while (t < toks.size()) {
                const std::string& tok = toks[t];
                if (tok == "public") vis = Visibility::Public;
                else if (tok == "protected") vis = Visibility::Protected;
                else if (tok == "private") vis = Visibility::Private;
                else if (tok == "static") is_static = true;
                else if (tok == "final") is_final = true;
                else if (tok == "native") is_native = true;
                else if (tok == "abstract") is_abstract = true;
                else return;
                ++t;
            }
        };

        consume_modifiers();
        if (t >= toks.size()) fail("empty member declaration");

        if (toks[t] == "field") {
            ++t;
            consume_modifiers();
            if (t + 2 > toks.size()) fail("field needs a name and a descriptor");
            Field f;
            f.name = toks[t++];
            f.type = TypeDesc::parse(toks[t++]);
            f.vis = vis;
            f.is_static = is_static;
            f.is_final = is_final;
            if (t != toks.size()) fail("trailing tokens after field declaration");
            if (f.type.is_void()) fail("field cannot have void type");
            cf.fields.push_back(std::move(f));
            return;
        }

        Method m;
        if (toks[t] == "ctor") {
            ++t;
            consume_modifiers();
            m.name = "<init>";
        } else if (toks[t] == "clinit") {
            ++t;
            m.name = "<clinit>";
            is_static = true;
        } else if (toks[t] == "method") {
            ++t;
            consume_modifiers();
            if (t >= toks.size()) fail("method needs a name");
            m.name = toks[t++];
        } else {
            fail("expected field/method/ctor/clinit, got '" + toks[t] + "'");
        }

        std::string desc = m.name == "<clinit>" ? "()V" : "";
        if (!desc.empty()) {
            // clinit has an implicit ()V descriptor.
        } else {
            if (t >= toks.size()) fail("method needs a descriptor");
            desc = toks[t++];
        }
        m.sig = MethodSig::parse(desc);
        m.vis = vis;
        m.is_static = is_static;
        m.is_native = is_native;
        m.is_abstract = is_abstract;
        if (m.is_ctor() && (is_static || is_native || is_abstract))
            fail("constructors cannot be static/native/abstract");
        if (m.is_ctor() && !m.sig.ret().is_void()) fail("constructor must return void");

        bool has_body = t < toks.size() && toks[t] == "{";
        if (has_body) ++t;
        if (t != toks.size()) fail("trailing tokens after method header");
        // Interface methods are implicitly abstract, as in Java.
        if (cf.is_interface && !has_body && !is_native) {
            is_abstract = true;
            m.is_abstract = true;
        }
        if (is_native || is_abstract) {
            if (has_body) fail("native/abstract methods cannot have a body");
            cf.methods.push_back(std::move(m));
            return;
        }
        if (!has_body) fail("method must have a body (or be native/abstract)");

        m.code = parse_body(m);
        cf.methods.push_back(std::move(m));
    }

    Code parse_body(const Method& m) {
        std::vector<Instruction> instrs;
        std::map<std::string, int> label_pc;
        struct PendingBranch {
            int pc;
            std::string label;
        };
        std::vector<PendingBranch> pending;
        struct PendingHandler {
            std::string class_name, from, to, using_;
        };
        std::vector<PendingHandler> handlers;
        int extra_locals = 0;

        while (true) {
            if (!next_line()) fail("unexpected end of input inside method " + m.name);
            if (current == "}") break;

            if (ends_with(current, ":") && split_ws(current).size() == 1) {
                std::string label(trim(current.substr(0, current.size() - 1)));
                if (label_pc.count(label)) fail("duplicate label " + label);
                label_pc[label] = static_cast<int>(instrs.size());
                continue;
            }

            std::vector<std::string> toks = split_ws(current);
            const std::string& head = toks[0];

            if (head == "locals") {
                if (toks.size() != 2) fail("locals takes one argument");
                extra_locals = parse_number<int>(toks[1], "locals count");
                continue;
            }
            if (head == "catch") {
                // catch CLASS from L1 to L2 using L3
                if (toks.size() != 8 || toks[2] != "from" || toks[4] != "to" ||
                    toks[6] != "using")
                    fail("catch syntax: catch CLASS from L1 to L2 using L3");
                handlers.push_back(PendingHandler{toks[1], toks[3], toks[5], toks[7]});
                continue;
            }

            instrs.push_back(parse_instruction(toks, pending,
                                               static_cast<int>(instrs.size())));
        }

        auto resolve = [&](const std::string& label) {
            auto it = label_pc.find(label);
            if (it == label_pc.end()) fail("undefined label " + label);
            return it->second;
        };
        for (const PendingBranch& pb : pending) instrs[pb.pc].a = resolve(pb.label);

        Code code;
        code.instrs = std::move(instrs);
        for (const PendingHandler& ph : handlers)
            code.handlers.push_back(
                Handler{resolve(ph.from), resolve(ph.to), resolve(ph.using_), ph.class_name});

        int max_slot = -1;
        for (const Instruction& i : code.instrs)
            if (i.op == Op::Load || i.op == Op::Store) max_slot = std::max(max_slot, i.a);
        code.max_locals = std::max({m.param_slots(), max_slot + 1,
                                    m.param_slots() + extra_locals});
        return code;
    }

    Instruction parse_instruction(const std::vector<std::string>& toks,
                                  auto& pending, int pc) {
        Op op = op_from_name(toks[0], lineno);
        Instruction out;
        out.op = op;

        auto need_args = [&](std::size_t n) {
            if (toks.size() != n + 1)
                fail(std::string(op_name(op)) + " takes " + std::to_string(n) + " operand(s)");
        };

        switch (op) {
            case Op::Const:
                out.k = parse_const();
                return out;
            case Op::Load:
            case Op::Store:
                need_args(1);
                out.a = parse_number<int>(toks[1], "slot index");
                if (out.a < 0) fail("negative slot index");
                return out;
            case Op::Conv: {
                need_args(1);
                TypeDesc t = TypeDesc::parse(toks[1]);
                if (!t.is_numeric()) fail("conv target must be numeric");
                out.a = static_cast<int>(t.kind());
                return out;
            }
            case Op::Goto:
            case Op::IfTrue:
            case Op::IfFalse:
                need_args(1);
                pending.push_back({pc, toks[1]});
                return out;
            case Op::New:
                need_args(1);
                out.owner = toks[1];
                return out;
            case Op::NewArray: {
                need_args(1);
                TypeDesc elem = TypeDesc::parse(toks[1]);
                if (elem.is_void()) fail("array of void");
                out.desc = elem.descriptor();
                return out;
            }
            case Op::GetField:
            case Op::PutField:
            case Op::GetStatic:
            case Op::PutStatic:
            case Op::InvokeVirtual:
            case Op::InvokeInterface:
            case Op::InvokeStatic:
            case Op::InvokeSpecial: {
                need_args(2);
                std::size_t dot = toks[1].rfind('.');
                if (dot == std::string::npos) fail("member operand must be OWNER.NAME");
                out.owner = toks[1].substr(0, dot);
                out.member = toks[1].substr(dot + 1);
                out.desc = toks[2];
                // Validate descriptor syntax eagerly for better diagnostics.
                if (is_invoke(op)) MethodSig::parse(out.desc);
                else TypeDesc::parse(out.desc);
                return out;
            }
            default:
                need_args(0);
                return out;
        }
    }

    /// Parses the constant operand out of the raw current line (so string
    /// literals keep embedded spaces).
    ConstValue parse_const() {
        std::string_view rest = trim(std::string_view(current).substr(5));  // after "const"
        if (rest.empty()) fail("const needs an operand");
        if (rest == "null") return Null{};
        if (rest == "true") return true;
        if (rest == "false") return false;
        if (rest.front() == '"') {
            if (rest.size() < 2 || rest.back() != '"') fail("unterminated string literal");
            std::string out;
            for (std::size_t i = 1; i + 1 < rest.size(); ++i) {
                char c = rest[i];
                if (c == '\\' && i + 2 < rest.size()) {
                    char n = rest[++i];
                    out += (n == 'n') ? '\n' : n;
                } else {
                    out += c;
                }
            }
            return out;
        }
        if (rest.back() == 'L' || rest.back() == 'l')
            return parse_number<std::int64_t>(rest.substr(0, rest.size() - 1), "long constant");
        if (rest.find_first_of(".eE") != std::string_view::npos)
            return parse_number<double>(rest, "double constant");
        return parse_number<std::int32_t>(rest, "int constant");
    }
};

}  // namespace

std::vector<ClassFile> assemble(std::string_view text) { return Parser(text).run(); }

void assemble_into(ClassPool& pool, std::string_view text) {
    for (ClassFile& cf : assemble(text)) pool.add(std::move(cf));
}

}  // namespace rafda::model
