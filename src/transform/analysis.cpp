#include "transform/analysis.hpp"

#include "support/error.hpp"
#include "support/interner.hpp"
#include "support/thread_pool.hpp"

namespace rafda::transform {

std::string_view reason_name(Reason r) {
    switch (r) {
        case Reason::None: return "none";
        case Reason::NativeMethod: return "native-method";
        case Reason::SpecialClass: return "special-class";
        case Reason::SuperOfNonTransformable: return "super-of-non-transformable";
        case Reason::ReferencedByNonTransformable: return "referenced-by-non-transformable";
    }
    return "?";
}

const ClassStatus& Analysis::status_of(const std::string& cls) const {
    auto it = status_.find(cls);
    if (it == status_.end()) throw VerifyError("analysis has no class " + cls);
    return it->second;
}

bool Analysis::transformable(const std::string& cls) const {
    auto it = status_.find(cls);
    return it != status_.end() && it->second.verdict == Verdict::Transformable;
}

std::vector<std::string> Analysis::transformable_classes() const {
    std::vector<std::string> out;
    for (const auto& [name, st] : status_)
        if (st.verdict == Verdict::Transformable) out.push_back(name);
    return out;
}

std::vector<std::string> Analysis::non_transformable_classes() const {
    std::vector<std::string> out;
    for (const auto& [name, st] : status_)
        if (st.verdict == Verdict::NonTransformable) out.push_back(name);
    return out;
}

double Analysis::non_transformable_fraction() const {
    if (status_.empty()) return 0.0;
    return static_cast<double>(non_transformable_count_) /
           static_cast<double>(status_.size());
}

namespace {

using Id = support::Interner::Id;
constexpr Id kNoId = support::Interner::kNoId;

/// The class graph the analysis runs over: dense u32 ids in pool (name)
/// order, with hierarchy edges (super + interfaces) and reference edges
/// (in-pool entries of referenced_classes(), which are name-sorted, so id
/// order equals the original string iteration order).
struct ClassGraph {
    std::vector<const model::ClassFile*> classes;
    support::Interner ids;
    std::vector<Id> super_of;               // kNoId when absent / external
    std::vector<std::vector<Id>> hierarchy; // super then interfaces, in-pool only
    std::vector<std::vector<Id>> refs;      // rule-4 edges, name order
    std::vector<std::uint8_t> has_native;
};

ClassGraph build_graph(const model::ClassPool& pool, support::ThreadPool* threads) {
    ClassGraph g;
    g.classes = pool.all();
    const std::size_t n = g.classes.size();
    for (const model::ClassFile* cf : g.classes) g.ids.intern(cf->name);

    g.super_of.assign(n, kNoId);
    g.hierarchy.resize(n);
    g.refs.resize(n);
    g.has_native.assign(n, 0);

    auto build_one = [&](std::size_t i) {
        const model::ClassFile& cf = *g.classes[i];
        g.has_native[i] = cf.has_native_method() ? 1 : 0;
        if (!cf.super_name.empty()) {
            const Id s = g.ids.find(cf.super_name);
            g.super_of[i] = s;
            if (s != kNoId) g.hierarchy[i].push_back(s);
        }
        for (const std::string& iface : cf.interfaces) {
            const Id s = g.ids.find(iface);
            if (s != kNoId) g.hierarchy[i].push_back(s);
        }
        const std::vector<std::string> refs = cf.referenced_classes();
        g.refs[i].reserve(refs.size());
        for (const std::string& ref : refs) {
            const Id r = g.ids.find(ref);
            if (r != kNoId) g.refs[i].push_back(r);
        }
    };
    // Every item writes only its own slots, and the interner is only read
    // (const find) after the serial intern loop, so the fan-out is
    // race-free.
    if (threads) {
        threads->for_each_index(n, build_one);
    } else {
        for (std::size_t i = 0; i < n; ++i) build_one(i);
    }
    return g;
}

/// Rule 2 for the whole graph: special[i] is true when class i is special
/// or transitively extends/implements a special type.  Memoized iterative
/// DFS — each class and hierarchy edge is resolved once — with a cycle
/// guard: a class whose answer is still being computed (a cycle back-edge)
/// contributes "not special", so malformed cyclic input terminates instead
/// of overflowing the stack (the verifier rejects such pools, but the
/// analysis must not crash on them).
std::vector<std::uint8_t> compute_inherits_special(const ClassGraph& g) {
    const std::size_t n = g.classes.size();
    enum : std::uint8_t { kUnknown = 0, kVisiting, kFalse, kTrue };
    std::vector<std::uint8_t> state(n, kUnknown);
    std::vector<Id> stack;
    for (Id root = 0; root < n; ++root) {
        if (state[root] != kUnknown) continue;
        stack.push_back(root);
        while (!stack.empty()) {
            const Id v = stack.back();
            if (state[v] == kUnknown) {
                if (g.classes[v]->is_special) {
                    state[v] = kTrue;
                    stack.pop_back();
                    continue;
                }
                state[v] = kVisiting;
                for (Id child : g.hierarchy[v])
                    if (state[child] == kUnknown) stack.push_back(child);
            } else if (state[v] == kVisiting) {
                std::uint8_t verdict = kFalse;
                for (Id child : g.hierarchy[v])
                    if (state[child] == kTrue) verdict = kTrue;
                state[v] = verdict;
                stack.pop_back();
            } else {
                stack.pop_back();  // finished via another root / duplicate
            }
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        if (state[i] == kTrue) state[i] = 1;
        else state[i] = 0;
    return state;
}

}  // namespace

Analysis analyze(const model::ClassPool& pool, support::ThreadPool* threads) {
    Analysis result;
    ClassGraph g = build_graph(pool, threads);
    const std::size_t n = g.classes.size();
    const std::vector<std::uint8_t> special = compute_inherits_special(g);

    // Seed rules 1 and 2 in id (= name) order, exactly like the original
    // string-keyed pass.
    std::vector<ClassStatus> status(n);
    std::vector<Id> worklist;
    worklist.reserve(n);
    for (Id i = 0; i < n; ++i) {
        if (g.has_native[i]) {
            status[i].verdict = Verdict::NonTransformable;
            status[i].reason = Reason::NativeMethod;
            worklist.push_back(i);
        } else if (special[i]) {
            status[i].verdict = Verdict::NonTransformable;
            status[i].reason = Reason::SpecialClass;
            worklist.push_back(i);
        }
    }

    // Rules 3 and 4: monotone FIFO worklist over the prebuilt edges.  Each
    // class is marked (and expanded) at most once and each edge scanned at
    // most once — O(V + E) — and the FIFO order matches the original
    // fixpoint, so blame assignment is bit-identical.
    auto mark = [&](Id victim, Reason reason, Id blame) {
        ClassStatus& st = status[victim];
        if (st.verdict == Verdict::NonTransformable) return;
        st.verdict = Verdict::NonTransformable;
        st.reason = reason;
        st.blamed_on = std::string(g.ids.name(blame));
        worklist.push_back(victim);
    };
    for (std::size_t head = 0; head < worklist.size(); ++head) {
        const Id x = worklist[head];
        // Rule 3: the superclass of a non-transformable class cannot be
        // transformed.
        if (g.super_of[x] != kNoId) mark(g.super_of[x], Reason::SuperOfNonTransformable, x);
        // Rule 4: everything a non-transformable class references must stay
        // in its original form.
        for (Id ref : g.refs[x]) mark(ref, Reason::ReferencedByNonTransformable, x);
    }

    // Publish under string keys and bake the aggregate counters.
    for (Id i = 0; i < n; ++i) {
        ClassStatus& st = status[i];
        if (st.verdict == Verdict::NonTransformable) {
            ++result.non_transformable_count_;
            ++result.reason_hist_[st.reason];
        }
        result.status_.emplace(g.classes[i]->name, std::move(st));
    }
    return result;
}

}  // namespace rafda::transform
