#include "vm/interp.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#ifdef __unix__
#include <sys/resource.h>
#endif

#include "support/error.hpp"

namespace rafda::vm {

using model::ClassFile;
using model::Instruction;
using model::Kind;
using model::Method;
using model::MethodSig;
using model::Op;

namespace {
constexpr int kMaxCallDepth = 2000;

std::string native_key(const std::string& owner, const std::string& name,
                       const std::string& desc) {
    return owner + "#" + name + desc;
}

/// The first non-abstract `name`+`desc` up the chain from `dyn`.
const Method& virtual_target(const model::ClassPool& pool, const ClassFile& dyn,
                             const std::string& name, const std::string& desc) {
    const Method* m = pool.resolve_virtual(&dyn, name, desc);
    if (!m) throw VmError("unresolved virtual method " + dyn.name + "." + name + desc);
    return *m;
}

/// Moves the top `n` operands of `stack` into `locals`, in order.
void take_args(std::vector<Value>& stack, std::size_t n, std::vector<Value>& locals) {
    const auto first = stack.end() - static_cast<std::ptrdiff_t>(n);
    locals.assign(std::make_move_iterator(first), std::make_move_iterator(stack.end()));
    stack.erase(first, stack.end());
}

/// Moves the host's arguments after whatever `locals` already holds.
void append_args(std::vector<Value>& locals, std::span<Value> args) {
    locals.insert(locals.end(), std::make_move_iterator(args.begin()),
                  std::make_move_iterator(args.end()));
}

/// d2i/d2l: the double clamped to T's range, NaN -> 0.
template <class T>
T saturate(double d) {
    if (std::isnan(d)) return 0;
    if (d <= static_cast<double>(std::numeric_limits<T>::min()))
        return std::numeric_limits<T>::min();
    if (d >= static_cast<double>(std::numeric_limits<T>::max()))
        return std::numeric_limits<T>::max();
    return static_cast<T>(d);
}
}  // namespace

Interpreter::Interpreter(const model::ClassPool& pool) : pool_(&pool) {}

Interpreter::~Interpreter() {
    if (metrics_) metrics_->remove_probes_with_prefix(metrics_prefix_ + ".");
}

void Interpreter::attach_metrics(obs::Registry* registry, std::string prefix) {
    if (metrics_) metrics_->remove_probes_with_prefix(metrics_prefix_ + ".");
    metrics_ = registry;
    metrics_prefix_ = std::move(prefix);
    for (auto& entry : memos_) entry.second.hist = nullptr;
    if (!metrics_) {
        profile_methods_ = false;
        return;
    }
    auto probe = [this](const std::string& name, std::uint64_t Counters::* field) {
        metrics_->register_probe(metrics_prefix_ + name, [this, field] {
            return static_cast<std::int64_t>(counters_.*field);
        });
    };
    probe(".instructions", &Counters::instructions);
    probe(".native_calls", &Counters::native_calls);
    probe(".allocations", &Counters::allocations);
    metrics_->register_probe(metrics_prefix_ + ".invokes", [this] {
        return static_cast<std::int64_t>(counters_.total_invokes());
    });
    metrics_->register_probe(metrics_prefix_ + ".field_accesses", [this] {
        return static_cast<std::int64_t>(counters_.field_reads + counters_.field_writes);
    });
    metrics_->register_probe(metrics_prefix_ + ".ic_hits", [this] {
        return static_cast<std::int64_t>(counters_.ic_hits());
    });
    metrics_->register_probe(metrics_prefix_ + ".ic_misses", [this] {
        return static_cast<std::int64_t>(counters_.ic_misses());
    });
}

void Interpreter::record_method_profile(const ClassFile& cls, const Method& m,
                                        MethodMemo& memo, std::uint64_t instructions) {
    if (!memo.hist)
        memo.hist = &metrics_->histogram(metrics_prefix_ + ".method_instr." + cls.name +
                                         "." + m.name);
    memo.hist->record(instructions);
}

GuestException Interpreter::make_guest_exception(ObjId obj) {
    const ClassFile& cls = class_of(obj);
    std::string msg;
    const model::Layout& layout = pool_->layout_of(cls.name);
    auto mit = layout.index_by_name.find("msg");
    if (mit != layout.index_by_name.end())
        msg = heap_.get(obj).fields[static_cast<std::size_t>(mit->second)].display();
    return GuestException(cls.name, msg, obj);
}

void Interpreter::throw_guest(Value thrown) {
    if (!thrown.is_ref()) throw VmError("throw_guest of non-reference");
    throw GuestThrow{std::move(thrown)};
}

template <class Body>
Value Interpreter::at_api_boundary(Body&& body) {
    try {
        return body();
    } catch (GuestThrow& gt) {
        // Nested inside guest execution (a native called back into the
        // API): let the guest unwinding continue so outer guest handlers
        // get a chance.  Only the outermost entry converts.
        if (call_depth_ > 0) throw;
        throw make_guest_exception(gt.thrown.as_ref());
    }
}

void Interpreter::register_native(const std::string& owner, const std::string& name,
                                  const std::string& desc, NativeFn fn) {
    natives_[native_key(owner, name, desc)] = std::move(fn);
    ++natives_gen_;
}

void Interpreter::register_class_native(const std::string& owner, ClassNativeFn fn) {
    class_natives_[owner] = std::move(fn);
    ++natives_gen_;
}

ObjId Interpreter::allocate(const std::string& class_name) {
    return allocate_with(pool_->get(class_name), pool_->layout_of(class_name));
}

ObjId Interpreter::allocate_with(const ClassFile& cls, const model::Layout& layout) {
    ObjId id = heap_.alloc(cls, static_cast<std::size_t>(layout.size()));
    Object& obj = heap_.get(id);
    for (int i = 0; i < layout.size(); ++i)
        obj.fields[static_cast<std::size_t>(i)] = default_value(layout.slots[i].type);
    ++counters_.allocations;
    if (observer_) observer_->on_alloc(id, cls.name);
    return id;
}

Value Interpreter::construct(const std::string& class_name, const std::string& ctor_desc,
                             std::vector<Value> args) {
    return at_api_boundary([&] {
        ensure_initialized(class_name);
        ObjId id = allocate(class_name);
        const ClassFile& cls = pool_->get(class_name);
        const Method* ctor = cls.find_method("<init>", ctor_desc);
        if (!ctor) throw VmError("no constructor " + class_name + ".<init>" + ctor_desc);
        Frame& f = next_frame();
        f.locals.push_back(Value::of_ref(id));
        append_args(f.locals, args);
        invoke(cls, *ctor, f);
        return Value::of_ref(id);
    });
}

Value Interpreter::call_static(const std::string& owner, const std::string& name,
                               const std::string& desc, std::vector<Value> args) {
    return at_api_boundary([&] {
        ensure_initialized(owner);
        const Method* m = pool_->resolve_static(owner, name, desc);
        if (!m) throw VmError("unresolved static method " + owner + "." + name + desc);
        ++counters_.invokes_static;
        Frame& f = next_frame();
        append_args(f.locals, args);
        return invoke(pool_->get(owner), *m, f);
    });
}

Value Interpreter::call_virtual(const Value& receiver, const std::string& name,
                                const std::string& desc, std::vector<Value> args) {
    return call_virtual(receiver, name, desc, std::span<Value>(args));
}

Value Interpreter::call_virtual(const Value& receiver, const std::string& name,
                                const std::string& desc, std::span<Value> args) {
    return at_api_boundary([&] {
        const ClassFile& dyn = class_of(receiver.as_ref());
        const Method& m = virtual_target(*pool_, dyn, name, desc);
        ++counters_.invokes_virtual;
        Frame& f = next_frame();
        f.locals.push_back(receiver);
        append_args(f.locals, args);
        return invoke(dyn, m, f);
    });
}

Value Interpreter::get_static_field(const std::string& owner, const std::string& field) {
    const ClassFile* declaring = pool_->resolve_static_field(owner, field);
    if (!declaring) throw VmError("no static field " + owner + "." + field);
    at_api_boundary([&] {
        ensure_initialized(declaring->name);
        return Value::null();
    });
    ++counters_.static_reads;
    const model::Layout& layout = pool_->static_layout_of(declaring->name);
    return statics_of(declaring->name)[static_cast<std::size_t>(layout.index_of(field))];
}

void Interpreter::set_static_field(const std::string& owner, const std::string& field,
                                   Value v) {
    const ClassFile* declaring = pool_->resolve_static_field(owner, field);
    if (!declaring) throw VmError("no static field " + owner + "." + field);
    at_api_boundary([&] {
        ensure_initialized(declaring->name);
        return Value::null();
    });
    ++counters_.static_writes;
    const model::Layout& layout = pool_->static_layout_of(declaring->name);
    if (observer_) observer_->on_static_put(declaring->name, field, v);
    statics_of(declaring->name)[static_cast<std::size_t>(layout.index_of(field))] =
        std::move(v);
}

Value Interpreter::get_field(ObjId obj, const std::string& field) {
    Object& o = heap_.get(obj);
    const model::Layout& layout = pool_->layout_of(o.cls->name);
    ++counters_.field_reads;
    return o.fields[static_cast<std::size_t>(layout.index_of(field))];
}

Value Interpreter::get_field_at(ObjId obj, std::size_t slot) {
    ++counters_.field_reads;
    return heap_.get(obj).fields[slot];
}

void Interpreter::set_field(ObjId obj, const std::string& field, Value v) {
    Object& o = heap_.get(obj);
    const model::Layout& layout = pool_->layout_of(o.cls->name);
    ++counters_.field_writes;
    const std::size_t slot = static_cast<std::size_t>(layout.index_of(field));
    if (observer_) observer_->on_field_put(obj, slot, v);
    o.fields[slot] = std::move(v);
}

const ClassFile& Interpreter::class_of(ObjId obj) const {
    const Object& o = heap_.get(obj);
    if (o.is_array) throw VmError("class_of on an array");
    return *o.cls;
}

void Interpreter::ensure_initialized(const std::string& class_name) {
    if (initialized_.count(class_name) || initializing_.count(class_name)) return;
    const ClassFile& cls = pool_->get(class_name);
    initializing_.insert(class_name);
    // Initialise the superclass first, JVM-style.
    if (!cls.super_name.empty()) ensure_initialized(cls.super_name);
    if (const Method* clinit = cls.find_method("<clinit>", "()V")) {
        invoke(cls, *clinit, next_frame());
    }
    initializing_.erase(class_name);
    initialized_.insert(class_name);
    if (observer_) observer_->on_class_init(class_name);
}

std::vector<Value>& Interpreter::statics_of(const std::string& class_name) {
    if (statics_gen_ != cache_gen()) reconcile_statics();
    auto it = statics_.find(class_name);
    if (it != statics_.end()) return it->second.values;
    const model::Layout& layout = pool_->static_layout_of(class_name);
    StaticSlots slots;
    slots.names.reserve(static_cast<std::size_t>(layout.size()));
    slots.values.reserve(static_cast<std::size_t>(layout.size()));
    for (const model::FieldSlot& s : layout.slots) {
        slots.names.push_back(s.name);
        slots.values.push_back(default_value(s.type));
    }
    return statics_.emplace(class_name, std::move(slots)).first->second.values;
}

void Interpreter::reconcile_statics() {
    statics_gen_ = cache_gen();
    for (auto it = statics_.begin(); it != statics_.end();) {
        if (!pool_->contains(it->first)) {
            it = statics_.erase(it);
            continue;
        }
        const model::Layout& layout = pool_->static_layout_of(it->first);
        StaticSlots& storage = it->second;
        StaticSlots fresh;
        fresh.names.reserve(static_cast<std::size_t>(layout.size()));
        fresh.values.reserve(static_cast<std::size_t>(layout.size()));
        for (const model::FieldSlot& s : layout.slots) {
            Value v = default_value(s.type);
            for (std::size_t k = 0; k < storage.names.size(); ++k) {
                if (storage.names[k] == s.name) {
                    v = std::move(storage.values[k]);
                    break;
                }
            }
            fresh.names.push_back(s.name);
            fresh.values.push_back(std::move(v));
        }
        // Swap the contents, not the map entry: stale SiteCaches hold the
        // address of `values` (they re-validate via the generation before
        // dereferencing, but entry addresses staying put keeps the
        // refreshed caches cheap to refill).
        storage.names = std::move(fresh.names);
        storage.values = std::move(fresh.values);
        ++it;
    }
}

Interpreter::MethodMemo& Interpreter::memo_of(const Method& m) {
    MethodMemo& memo = memos_[&m];
    if (memo.gen != cache_gen()) {
        memo.gen = cache_gen();
        memo.fn = nullptr;
        memo.class_fn = nullptr;
        memo.hist = nullptr;
    }
    // Sized lazily (and re-sized if a mutable-pool rewrite changed the
    // body, or a recycled Method address collides with a dead entry).
    if (memo.sites.size() != m.code.instrs.size())
        memo.sites.assign(m.code.instrs.size(), SiteCache{});
    return memo;
}

void Interpreter::bind_native(const ClassFile& cls, const Method& m, MethodMemo& memo) {
    // The declaring class may differ from `cls` for inherited natives;
    // resolve against the class that actually declares the method.
    const std::string desc = m.descriptor();
    const ClassFile* declaring = &cls;
    for (const ClassFile* cur = &cls; cur;
         cur = cur->super_name.empty() ? nullptr : pool_->find(cur->super_name)) {
        if (cur->find_method(m.name, desc) == &m) {
            declaring = cur;
            break;
        }
    }
    memo.natives_gen = natives_gen_;
    memo.fn = nullptr;
    memo.class_fn = nullptr;
    auto it = natives_.find(native_key(declaring->name, m.name, desc));
    if (it != natives_.end()) {
        memo.fn = &it->second;
        return;
    }
    auto cit = class_natives_.find(declaring->name);
    if (cit == class_natives_.end())
        throw VmError("unbound native method " + declaring->name + "." + m.name + desc);
    memo.class_fn = &cit->second;
}

Interpreter::Frame& Interpreter::next_frame() {
    if (frames_live_ == frames_.size()) frames_.emplace_back();
    Frame& f = frames_[frames_live_];
    f.locals.clear();
    return f;
}

[[gnu::noinline]] Value Interpreter::invoke_native_entry(const ClassFile& cls,
                                                         const Method& m, MethodMemo& memo,
                                                         Frame& frame) {
    ++counters_.native_calls;
    if (!(memo.fn || memo.class_fn) || memo.natives_gen != natives_gen_)
        bind_native(cls, m, memo);
    const Value none;
    const std::span<const Value> locals(frame.locals);
    const Value& receiver = m.is_static ? none : locals.front();
    const std::span<const Value> args = locals.subspan(m.is_static ? 0 : 1);
    ++frames_live_;  // the native's own depth: re-entry fills the next frame
    try {
        Value result = memo.fn ? (*memo.fn)(*this, receiver, args)
                               : (*memo.class_fn)(*this, m, receiver, args);
        --frames_live_;
        return result;
    } catch (...) {
        --frames_live_;
        throw;
    }
}

[[gnu::noinline]] bool Interpreter::native_stack_exhausted() {
    static const std::size_t budget = [] {
        std::size_t limit = std::size_t{8} << 20;  // conservative default
#ifdef __unix__
        struct rlimit rl;
        if (getrlimit(RLIMIT_STACK, &rl) == 0 && rl.rlim_cur != RLIM_INFINITY &&
            rl.rlim_cur < (std::size_t{1} << 32))
            limit = static_cast<std::size_t>(rl.rlim_cur);
#endif
        // Leave room to unwind and to run guest handlers after the throw.
        const std::size_t reserve = std::size_t{1} << 20;
        return limit > 2 * reserve ? limit - reserve : limit / 2;
    }();
    // Addresses of locals in different frames compare only as integers.
    const char probe = 0;
    const auto here = reinterpret_cast<std::uintptr_t>(&probe);
    if (call_depth_ <= 1) {
        stack_base_ = here;
        return false;
    }
    return stack_base_ > here && stack_base_ - here > budget;
}

[[gnu::noinline]] void Interpreter::throw_stack_overflow(const ClassFile& cls,
                                                         const Method& m) {
    throw VmError("guest call stack overflow in " + cls.name + "." + m.name);
}

Value Interpreter::invoke(const ClassFile& cls, const Method& m, Frame& frame) {
    MethodMemo& memo = memo_of(m);
    if (m.is_native) return invoke_native_entry(cls, m, memo, frame);
    if (m.is_abstract)
        throw VmError("invoke of abstract method " + cls.name + "." + m.name);
    if (++call_depth_ > kMaxCallDepth || native_stack_exhausted()) {
        --call_depth_;
        throw_stack_overflow(cls, m);
    }
    frame.locals.resize(static_cast<std::size_t>(m.code.max_locals));
    ++frames_live_;
    const std::uint64_t instr_before = profile_methods_ ? counters_.instructions : 0;
    try {
        Value result = execute(cls, m, memo, frame);
        --call_depth_;
        --frames_live_;
        if (profile_methods_)
            record_method_profile(cls, m, memo, counters_.instructions - instr_before);
        return result;
    } catch (...) {
        --call_depth_;
        --frames_live_;
        throw;
    }
}

Value Interpreter::arith(Op op, const Value& a, const Value& b) {
    // Result kind: the wider of the two operand kinds (int < long < double).
    auto rank = [](const Value& v) {
        return v.is_double() ? 2 : v.is_long() ? 1 : 0;
    };
    if (!a.is_numeric() || !b.is_numeric())
        throw VmError(std::string("arithmetic on non-numeric values: ") + a.display() + ", " +
                      b.display());
    int r = std::max(rank(a), rank(b));
    if (r == 2) {
        double x = a.widen_double(), y = b.widen_double();
        switch (op) {
            case Op::Add: return Value::of_double(x + y);
            case Op::Sub: return Value::of_double(x - y);
            case Op::Mul: return Value::of_double(x * y);
            case Op::Div: return Value::of_double(x / y);
            case Op::Rem: return Value::of_double(std::fmod(x, y));
            default: break;
        }
    } else {
        std::int64_t x = a.widen_integral(), y = b.widen_integral();
        if ((op == Op::Div || op == Op::Rem) && y == 0)
            throw VmError("integer division by zero");
        // Two's-complement wraparound (JVM semantics): compute through
        // unsigned so overflow stays defined, and pin the one remaining
        // overflowing division, INT64_MIN / -1.
        const std::uint64_t ux = static_cast<std::uint64_t>(x);
        const std::uint64_t uy = static_cast<std::uint64_t>(y);
        constexpr std::int64_t kMinInt64 = std::numeric_limits<std::int64_t>::min();
        std::int64_t z = 0;
        switch (op) {
            case Op::Add: z = static_cast<std::int64_t>(ux + uy); break;
            case Op::Sub: z = static_cast<std::int64_t>(ux - uy); break;
            case Op::Mul: z = static_cast<std::int64_t>(ux * uy); break;
            case Op::Div: z = (x == kMinInt64 && y == -1) ? x : x / y; break;
            case Op::Rem: z = (x == kMinInt64 && y == -1) ? 0 : x % y; break;
            default: break;
        }
        if (r == 1) return Value::of_long(z);
        return Value::of_int(static_cast<std::int32_t>(z));
    }
    throw VmError("bad arithmetic op");
}

Value Interpreter::compare(Op op, const Value& a, const Value& b) {
    // Equality on refs/null/bools/strings; ordering only on numerics and
    // strings.  Two integral operands compare exactly as int64 (a double
    // cannot tell longs past 2^53 apart); a double operand promotes both.
    const bool integral = (a.is_int() || a.is_long()) && (b.is_int() || b.is_long());
    bool result = false;
    switch (op) {
        case Op::CmpEq:
        case Op::CmpNe: {
            bool eq;
            if (integral) {
                eq = a.widen_integral() == b.widen_integral();
            } else if (a.is_numeric() && b.is_numeric()) {
                eq = a.widen_double() == b.widen_double();
            } else if ((a.is_null() || a.is_ref()) && (b.is_null() || b.is_ref())) {
                eq = (a.is_null() && b.is_null()) ||
                     (a.is_ref() && b.is_ref() && a.as_ref() == b.as_ref());
            } else {
                eq = a == b;
            }
            result = (op == Op::CmpEq) ? eq : !eq;
            break;
        }
        case Op::CmpLt:
        case Op::CmpLe:
        case Op::CmpGt:
        case Op::CmpGe: {
            if (a.is_str() && b.is_str()) {
                int c = a.as_str().compare(b.as_str());
                result = (op == Op::CmpLt && c < 0) || (op == Op::CmpLe && c <= 0) ||
                         (op == Op::CmpGt && c > 0) || (op == Op::CmpGe && c >= 0);
            } else {
                const auto ordered = [op](auto x, auto y) {
                    return (op == Op::CmpLt && x < y) || (op == Op::CmpLe && x <= y) ||
                           (op == Op::CmpGt && x > y) || (op == Op::CmpGe && x >= y);
                };
                result = integral ? ordered(a.widen_integral(), b.widen_integral())
                                  : ordered(a.widen_double(), b.widen_double());
            }
            break;
        }
        default:
            throw VmError("bad comparison op");
    }
    return Value::of_bool(result);
}

// The out-of-line opcode bodies below are [[gnu::noinline]] so they stay
// out of execute()'s frame even when the optimizer would merge them back.

[[gnu::noinline]] void Interpreter::op_misc(const Instruction& i,
                                            std::vector<Value>& stack) {
    auto pop = [&] {
        Value v = std::move(stack.back());
        stack.pop_back();
        return v;
    };
    switch (i.op) {
        case Op::Mul:
        case Op::Div:
        case Op::Rem: {
            Value b = pop(), a = pop();
            stack.push_back(arith(i.op, a, b));
            break;
        }
        case Op::Neg: {
            // Two's-complement negation through unsigned, so INT_MIN wraps
            // to itself (JVM ineg/lneg) instead of overflowing.
            Value a = pop();
            if (a.is_int())
                stack.push_back(Value::of_int(
                    static_cast<std::int32_t>(0u - static_cast<std::uint32_t>(a.as_int()))));
            else if (a.is_long())
                stack.push_back(Value::of_long(static_cast<std::int64_t>(
                    std::uint64_t{0} - static_cast<std::uint64_t>(a.as_long()))));
            else
                stack.push_back(Value::of_double(-a.as_double()));
            break;
        }
        case Op::And: {
            Value b = pop(), a = pop();
            stack.push_back(Value::of_bool(a.as_bool() && b.as_bool()));
            break;
        }
        case Op::Or: {
            Value b = pop(), a = pop();
            stack.push_back(Value::of_bool(a.as_bool() || b.as_bool()));
            break;
        }
        case Op::Not: {
            Value a = pop();
            stack.push_back(Value::of_bool(!a.as_bool()));
            break;
        }
        case Op::Conv: {
            // JVM conversions: an int or long narrows (l2i keeps the low 32
            // bits) or sign-extends without a trip through double; a double
            // saturates at the target's range, with NaN -> 0 (d2i, d2l).
            Value a = pop();
            switch (static_cast<Kind>(i.a)) {
                case Kind::Int:
                    stack.push_back(Value::of_int(
                        a.is_double() ? saturate<std::int32_t>(a.as_double())
                                      : static_cast<std::int32_t>(a.widen_integral())));
                    break;
                case Kind::Long:
                    stack.push_back(Value::of_long(a.is_double()
                                                       ? saturate<std::int64_t>(a.as_double())
                                                       : a.widen_integral()));
                    break;
                case Kind::Double:
                    stack.push_back(Value::of_double(a.widen_double()));
                    break;
                default:
                    throw VmError("bad conv target");
            }
            break;
        }
        default: {  // Op::Concat
            Value b = pop(), a = pop();
            push_concat(a, b, stack);
            break;
        }
    }
}

[[gnu::noinline]] void Interpreter::op_array(const Instruction& i,
                                             std::vector<Value>& stack) {
    auto pop = [&] {
        Value v = std::move(stack.back());
        stack.pop_back();
        return v;
    };
    switch (i.op) {
        case Op::NewArray: {
            std::int32_t len = pop().as_int();
            if (len < 0) throw VmError("negative array length");
            ++counters_.allocations;
            const ObjId id = heap_.alloc_array(model::TypeDesc::parse(i.desc),
                                               static_cast<std::size_t>(len));
            if (observer_)
                observer_->on_alloc_array(id, i.desc, static_cast<std::size_t>(len));
            stack.push_back(Value::of_ref(id));
            break;
        }
        case Op::ALoad: {
            std::int32_t idx = pop().as_int();
            Object& arr = heap_.get(pop().as_ref());
            if (!arr.is_array) throw VmError("aload on non-array");
            if (idx < 0 || static_cast<std::size_t>(idx) >= arr.fields.size())
                throw VmError("array index out of bounds: " + std::to_string(idx));
            ++counters_.field_reads;
            stack.push_back(arr.fields[static_cast<std::size_t>(idx)]);
            break;
        }
        case Op::AStore: {
            Value v = pop();
            std::int32_t idx = pop().as_int();
            const ObjId aid = pop().as_ref();
            Object& arr = heap_.get(aid);
            if (!arr.is_array) throw VmError("astore on non-array");
            if (idx < 0 || static_cast<std::size_t>(idx) >= arr.fields.size())
                throw VmError("array index out of bounds: " + std::to_string(idx));
            ++counters_.field_writes;
            if (observer_)
                observer_->on_array_put(aid, static_cast<std::size_t>(idx), v);
            arr.fields[static_cast<std::size_t>(idx)] = std::move(v);
            break;
        }
        default: {  // Op::ALen
            Object& arr = heap_.get(pop().as_ref());
            if (!arr.is_array) throw VmError("alen on non-array");
            stack.push_back(Value::of_int(static_cast<std::int32_t>(arr.fields.size())));
            break;
        }
    }
}

// The invoke bodies are out of line too, but unlike the cold helpers they
// sit ON the recursion path: one of them is live per guest frame.  That is
// still a win — inlined, execute() would hold the temporaries of all three
// shapes at once, in every frame.  Each moves its operands straight into
// the callee's frame buffers (next_frame), so a warm call allocates nothing.

[[gnu::noinline]] void Interpreter::op_invoke_virtual(const Instruction& i,
                                                      SiteCache& sc,
                                                      std::vector<Value>& stack) {
    const std::uint64_t gen = cache_gen();
    int nargs_i = sc.nargs;
    bool ret_void = sc.ret_void;
    if (sc.gen != gen) {
        const model::MethodShape shape = MethodSig::shape_of(i.desc);
        nargs_i = static_cast<int>(shape.params);
        ret_void = !shape.returns_value;
    }
    Frame& callee = next_frame();
    take_args(stack, static_cast<std::size_t>(nargs_i) + 1, callee.locals);
    Object& recv = heap_.get(callee.locals[0].as_ref());
    const ClassFile* dyn;
    const Method* target;
    if (sc.gen == gen && sc.cls == recv.cls) {
        ++counters_.ic_invoke_hits;
        dyn = sc.cls;
        target = sc.target;
    } else {
        ++counters_.ic_invoke_misses;
        if (recv.is_array) throw VmError("class_of on an array");
        dyn = recv.cls;
        target = &virtual_target(*pool_, *dyn, i.member, i.desc);
        sc.cls = dyn;
        sc.target = target;
        sc.nargs = nargs_i;
        sc.ret_void = ret_void;
        sc.gen = gen;
    }
    if (i.op == Op::InvokeVirtual) ++counters_.invokes_virtual;
    else ++counters_.invokes_interface;
    Value r = invoke(*dyn, *target, callee);
    if (!ret_void) stack.push_back(std::move(r));
}

[[gnu::noinline]] void Interpreter::op_invoke_static(const Instruction& i,
                                                     SiteCache& sc,
                                                     std::vector<Value>& stack) {
    if (sc.gen != cache_gen()) {
        ++counters_.ic_invoke_misses;
        const model::MethodShape shape = MethodSig::shape_of(i.desc);
        ensure_initialized(i.owner);
        const Method* target = pool_->resolve_static(i.owner, i.member, i.desc);
        if (!target) throw VmError("unresolved static " + i.owner + "." + i.member);
        sc.cls = &pool_->get(i.owner);
        sc.target = target;
        sc.nargs = static_cast<int>(shape.params);
        sc.ret_void = !shape.returns_value;
        sc.gen = cache_gen();
    } else {
        ++counters_.ic_invoke_hits;
    }
    Frame& callee = next_frame();
    take_args(stack, static_cast<std::size_t>(sc.nargs), callee.locals);
    ++counters_.invokes_static;
    Value r = invoke(*sc.cls, *sc.target, callee);
    if (!sc.ret_void) stack.push_back(std::move(r));
}

[[gnu::noinline]] void Interpreter::op_invoke_special(const Instruction& i,
                                                      SiteCache& sc,
                                                      std::vector<Value>& stack) {
    if (sc.gen != cache_gen()) {
        ++counters_.ic_invoke_misses;
        const model::MethodShape shape = MethodSig::shape_of(i.desc);
        const ClassFile& owner = pool_->get(i.owner);
        const Method* ctor = owner.find_method(i.member, i.desc);
        if (!ctor) throw VmError("unresolved ctor " + i.owner + i.desc);
        sc.cls = &owner;
        sc.target = ctor;
        sc.nargs = static_cast<int>(shape.params);
        sc.ret_void = true;
        sc.gen = cache_gen();
    } else {
        ++counters_.ic_invoke_hits;
    }
    Frame& callee = next_frame();
    take_args(stack, static_cast<std::size_t>(sc.nargs) + 1, callee.locals);
    ++counters_.invokes_special;
    invoke(*sc.cls, *sc.target, callee);
}

[[gnu::noinline]] void Interpreter::push_concat(const Value& a, const Value& b,
                                                std::vector<Value>& stack) {
    stack.push_back(Value::of_str(a.display() + b.display()));
}

[[gnu::noinline]] void Interpreter::op_throw(std::vector<Value>& stack) {
    Value thrown = std::move(stack.back());
    stack.pop_back();
    if (!thrown.is_ref()) throw VmError("throw of non-reference");
    throw GuestThrow{std::move(thrown)};
}

[[gnu::noinline]] bool Interpreter::dispatch_guest_throw(GuestThrow& gt,
                                                         const Method& m, int& pc,
                                                         std::vector<Value>& stack) {
    // Search this frame's handlers; the caller re-throws to unwind otherwise.
    const ClassFile& thrown_cls = class_of(gt.thrown.as_ref());
    for (const model::Handler& h : m.code.handlers) {
        if (pc >= h.start && pc < h.end &&
            pool_->is_subtype(thrown_cls.name, h.class_name)) {
            stack.clear();
            stack.push_back(std::move(gt.thrown));
            pc = h.target;
            return true;
        }
    }
    return false;
}

[[gnu::noinline]] void Interpreter::throw_pc_range(const ClassFile& cls,
                                                   const Method& m) {
    throw VmError("pc out of range in " + cls.name + "." + m.name);
}

Value Interpreter::execute(const ClassFile& cls, const Method& m, MethodMemo& memo,
                           Frame& frame) {
    const std::vector<Instruction>& code = m.code.instrs;
    SiteCache* const sites = memo.sites.data();
    std::vector<Value>& locals = frame.locals;
    std::vector<Value>& stack = frame.stack;
    stack.clear();
    stack.reserve(8);
    int pc = 0;

    auto pop = [&] {
        Value v = std::move(stack.back());
        stack.pop_back();
        return v;
    };

    while (true) {
        if (static_cast<std::size_t>(pc) >= code.size())  // negative wraps huge
            throw_pc_range(cls, m);
        const Instruction& i = code[pc];
        ++counters_.instructions;
        try {
            switch (i.op) {
                case Op::Nop:
                    break;
                case Op::Const: {
                    switch (i.k.index()) {  // alternative order fixed in model::Instr
                        case 0: stack.push_back(Value::null()); break;
                        case 1: stack.push_back(Value::of_bool(std::get<bool>(i.k))); break;
                        case 2:
                            stack.push_back(Value::of_int(std::get<std::int32_t>(i.k)));
                            break;
                        case 3:
                            stack.push_back(Value::of_long(std::get<std::int64_t>(i.k)));
                            break;
                        case 4:
                            stack.push_back(Value::of_double(std::get<double>(i.k)));
                            break;
                        default:
                            stack.push_back(Value::of_str(std::get<std::string>(i.k)));
                            break;
                    }
                    break;
                }
                case Op::Load:
                    stack.push_back(locals[static_cast<std::size_t>(i.a)]);
                    break;
                case Op::Store:
                    locals[static_cast<std::size_t>(i.a)] = pop();
                    break;
                case Op::Dup:
                    stack.push_back(stack.back());
                    break;
                case Op::Pop:
                    stack.pop_back();
                    break;
                case Op::Swap:
                    std::swap(stack[stack.size() - 1], stack[stack.size() - 2]);
                    break;
                case Op::Add:
                case Op::Sub: {
                    Value b = pop(), a = pop();
                    // Same-width add/sub inline (wraparound matches arith());
                    // strings concatenate, mirroring Java's +; everything
                    // else (mixed widths, doubles) takes the general path.
                    if (a.is_long() && b.is_long()) {
                        const std::uint64_t ux = static_cast<std::uint64_t>(a.as_long());
                        const std::uint64_t uy = static_cast<std::uint64_t>(b.as_long());
                        stack.push_back(Value::of_long(static_cast<std::int64_t>(
                            i.op == Op::Add ? ux + uy : ux - uy)));
                    } else if (a.is_int() && b.is_int()) {
                        const std::uint32_t ux = static_cast<std::uint32_t>(a.as_int());
                        const std::uint32_t uy = static_cast<std::uint32_t>(b.as_int());
                        stack.push_back(Value::of_int(static_cast<std::int32_t>(
                            i.op == Op::Add ? ux + uy : ux - uy)));
                    } else if (i.op == Op::Add && (a.is_str() || b.is_str())) {
                        push_concat(a, b, stack);
                    } else {
                        stack.push_back(arith(i.op, a, b));
                    }
                    break;
                }
                case Op::Mul:
                case Op::Div:
                case Op::Rem:
                case Op::Neg:
                    op_misc(i, stack);
                    break;
                case Op::CmpEq:
                case Op::CmpNe:
                case Op::CmpLt:
                case Op::CmpLe:
                case Op::CmpGt:
                case Op::CmpGe: {
                    Value b = pop(), a = pop();
                    // int/int dominates loop headers; compare() widens
                    // through double, which is exact for 32-bit ints, so
                    // the inline path is equivalent.
                    bool res;
                    if (a.is_int() && b.is_int()) {
                        const std::int32_t x = a.as_int(), y = b.as_int();
                        switch (i.op) {
                            case Op::CmpEq: res = x == y; break;
                            case Op::CmpNe: res = x != y; break;
                            case Op::CmpLt: res = x < y; break;
                            case Op::CmpLe: res = x <= y; break;
                            case Op::CmpGt: res = x > y; break;
                            default: res = x >= y; break;
                        }
                    } else {
                        res = compare(i.op, a, b).as_bool();
                    }
                    stack.push_back(Value::of_bool(res));
                    break;
                }
                case Op::And:
                case Op::Or:
                case Op::Not:
                case Op::Conv:
                case Op::Concat:
                    op_misc(i, stack);
                    break;
                case Op::Goto:
                    pc = i.a;
                    continue;
                case Op::IfTrue: {
                    const bool t = stack.back().as_bool();
                    stack.pop_back();
                    if (t) {
                        pc = i.a;
                        continue;
                    }
                    break;
                }
                case Op::IfFalse: {
                    const bool t = stack.back().as_bool();
                    stack.pop_back();
                    if (!t) {
                        pc = i.a;
                        continue;
                    }
                    break;
                }
                case Op::New: {
                    SiteCache& sc = sites[pc];
                    if (sc.gen == cache_gen()) {
                        stack.push_back(Value::of_ref(allocate_with(*sc.cls, *sc.layout)));
                    } else {
                        ensure_initialized(i.owner);
                        stack.push_back(Value::of_ref(allocate(i.owner)));
                        sc.cls = &pool_->get(i.owner);
                        sc.layout = &pool_->layout_of(i.owner);
                        sc.gen = cache_gen();
                    }
                    break;
                }
                case Op::GetField: {
                    const ObjId recv = stack.back().as_ref();
                    stack.pop_back();
                    Object& o = heap_.get(recv);
                    SiteCache& sc = sites[pc];
                    if (sc.cls == o.cls && sc.gen == cache_gen()) {
                        ++counters_.ic_field_hits;
                    } else {
                        sc.slot = pool_->layout_of(o.cls->name).index_of(i.member);
                        sc.cls = o.cls;
                        sc.gen = cache_gen();
                        ++counters_.ic_field_misses;
                    }
                    ++counters_.field_reads;
                    stack.push_back(o.fields[static_cast<std::size_t>(sc.slot)]);
                    break;
                }
                case Op::PutField: {
                    Value v = pop();
                    const ObjId recv = stack.back().as_ref();
                    stack.pop_back();
                    Object& o = heap_.get(recv);
                    SiteCache& sc = sites[pc];
                    if (sc.cls == o.cls && sc.gen == cache_gen()) {
                        ++counters_.ic_field_hits;
                    } else {
                        sc.slot = pool_->layout_of(o.cls->name).index_of(i.member);
                        sc.cls = o.cls;
                        sc.gen = cache_gen();
                        ++counters_.ic_field_misses;
                    }
                    ++counters_.field_writes;
                    if (observer_)
                        observer_->on_field_put(recv, static_cast<std::size_t>(sc.slot), v);
                    o.fields[static_cast<std::size_t>(sc.slot)] = std::move(v);
                    break;
                }
                case Op::GetStatic: {
                    SiteCache& sc = sites[pc];
                    if (sc.gen == cache_gen()) {
                        ++counters_.ic_static_hits;
                        ++counters_.static_reads;
                        stack.push_back((*sc.statics)[static_cast<std::size_t>(sc.slot)]);
                    } else {
                        ++counters_.ic_static_misses;
                        // The slow path runs <clinit> if needed and
                        // reconciles storage; fill the cache afterwards.
                        stack.push_back(get_static_field(i.owner, i.member));
                        const ClassFile* declaring =
                            pool_->resolve_static_field(i.owner, i.member);
                        sc.statics = &statics_of(declaring->name);
                        sc.slot =
                            pool_->static_layout_of(declaring->name).index_of(i.member);
                        sc.cls = declaring;
                        sc.gen = cache_gen();
                    }
                    break;
                }
                case Op::PutStatic: {
                    SiteCache& sc = sites[pc];
                    if (sc.gen == cache_gen()) {
                        ++counters_.ic_static_hits;
                        ++counters_.static_writes;
                        Value v = pop();
                        if (observer_)
                            observer_->on_static_put(sc.cls->name, i.member, v);
                        (*sc.statics)[static_cast<std::size_t>(sc.slot)] = std::move(v);
                    } else {
                        ++counters_.ic_static_misses;
                        set_static_field(i.owner, i.member, pop());
                        const ClassFile* declaring =
                            pool_->resolve_static_field(i.owner, i.member);
                        sc.statics = &statics_of(declaring->name);
                        sc.slot =
                            pool_->static_layout_of(declaring->name).index_of(i.member);
                        sc.cls = declaring;
                        sc.gen = cache_gen();
                    }
                    break;
                }
                case Op::InvokeVirtual:
                case Op::InvokeInterface:
                    op_invoke_virtual(i, sites[pc], stack);
                    break;
                case Op::InvokeStatic:
                    op_invoke_static(i, sites[pc], stack);
                    break;
                case Op::InvokeSpecial:
                    op_invoke_special(i, sites[pc], stack);
                    break;
                case Op::Return:
                    return Value::null();
                case Op::ReturnValue:
                    return pop();
                case Op::Throw:
                    op_throw(stack);  // [[noreturn]]
                case Op::NewArray:
                case Op::ALoad:
                case Op::AStore:
                case Op::ALen:
                    op_array(i, stack);
                    break;
            }
        } catch (GuestThrow& gt) {
            if (dispatch_guest_throw(gt, m, pc, stack)) continue;
            throw;  // unwind to the caller's frame (or the API boundary)
        }
        ++pc;
    }
}

// -- Restart + restore (DESIGN.md §20) ----------------------------------

void Interpreter::reset_vm_state() {
    heap_.clear();
    statics_.clear();
    initialized_.clear();
    initializing_.clear();
    output_.clear();
    // Every SiteCache, method memo and the statics epoch were tied to the
    // old incarnation; bumping it makes them all miss lazily.  The
    // dangling SiteCache::statics pointers into the cleared map are never
    // dereferenced: the fast paths re-check `gen == cache_gen()` first.
    ++incarnation_;
}

ObjId Interpreter::restore_object(const std::string& class_name) {
    const ClassFile& cls = pool_->get(class_name);
    const model::Layout& layout = pool_->layout_of(class_name);
    ObjId id = heap_.alloc(cls, static_cast<std::size_t>(layout.size()));
    Object& obj = heap_.get(id);
    for (int i = 0; i < layout.size(); ++i)
        obj.fields[static_cast<std::size_t>(i)] = default_value(layout.slots[i].type);
    return id;
}

ObjId Interpreter::restore_array(const std::string& elem_desc, std::size_t length) {
    return heap_.alloc_array(model::TypeDesc::parse(elem_desc), length);
}

void Interpreter::restore_field(ObjId obj, std::size_t slot, Value v) {
    Object& o = heap_.get(obj);
    if (slot >= o.fields.size())
        throw VmError("restore_field slot out of range: " + std::to_string(slot));
    o.fields[slot] = std::move(v);
}

void Interpreter::restore_static(const std::string& class_name,
                                 const std::string& field, Value v) {
    std::vector<Value>& values = statics_of(class_name);
    const model::Layout& layout = pool_->static_layout_of(class_name);
    values[static_cast<std::size_t>(layout.index_of(field))] = std::move(v);
}

void Interpreter::mark_initialized(const std::string& class_name) {
    initialized_.insert(class_name);
}

void Interpreter::visit_statics(
    const std::function<void(const std::string&, const std::string&, const Value&)>&
        fn) const {
    std::vector<const std::pair<const std::string, StaticSlots>*> entries;
    entries.reserve(statics_.size());
    for (const auto& e : statics_) entries.push_back(&e);
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    for (const auto* e : entries)
        for (std::size_t k = 0; k < e->second.names.size(); ++k)
            fn(e->first, e->second.names[k], e->second.values[k]);
}

void Interpreter::visit_initialized(
    const std::function<void(const std::string&)>& fn) const {
    std::vector<std::string> names(initialized_.begin(), initialized_.end());
    std::sort(names.begin(), names.end());
    for (const std::string& n : names) fn(n);
}

}  // namespace rafda::vm
