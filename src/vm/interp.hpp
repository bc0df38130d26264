// The RIR interpreter — one instance per address space.
//
// Executes verified code from a ClassPool against its own heap and static
// storage.  Three features exist specifically for the RAFDA middleware
// built on top:
//
//   * native methods: a method flagged `native` dispatches to a registered
//     C++ function.  Proxy classes generated by the transformation pipeline
//     consist entirely of native methods whose implementations marshal the
//     call to a remote node (runtime::Node wires these up);
//   * class-level native handlers: one handler may serve every native
//     method of a class, so the runtime can service arbitrary generated
//     proxies without registering each method;
//   * counters: instruction/dispatch accounting that the benchmark harness
//     reads to report overhead factors independent of wall-clock noise.
//
// The hot path is quickened: every symbolic field/invoke/static site keeps
// a monomorphic inline cache in a side table parallel to the method's code,
// validated against ClassPool::generation() so in-place transformation,
// Heap::transmute and late class registration stay semantically exact
// (DESIGN.md §11).
//
// Guest exceptions (Throw/handlers) are implemented with a C++ exception
// carrying the thrown object; an uncaught guest throw surfaces to the
// embedder as GuestException.
#pragma once

#include <deque>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "model/classpool.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "vm/heap.hpp"
#include "vm/observer.hpp"
#include "vm/value.hpp"

namespace rafda::vm {

/// A guest-level exception that escaped to the embedder.
class GuestException : public Error {
public:
    GuestException(std::string class_name, std::string message, ObjId obj)
        : Error("uncaught guest exception " + class_name + ": " + message),
          class_name_(std::move(class_name)),
          message_(std::move(message)),
          obj_(obj) {}

    const std::string& class_name() const noexcept { return class_name_; }
    const std::string& message() const noexcept { return message_; }
    ObjId obj() const noexcept { return obj_; }

private:
    std::string class_name_;
    std::string message_;
    ObjId obj_;
};

/// Dispatch and work accounting.
struct Counters {
    std::uint64_t instructions = 0;
    std::uint64_t invokes_virtual = 0;
    std::uint64_t invokes_interface = 0;
    std::uint64_t invokes_static = 0;
    std::uint64_t invokes_special = 0;
    std::uint64_t field_reads = 0;
    std::uint64_t field_writes = 0;
    std::uint64_t static_reads = 0;
    std::uint64_t static_writes = 0;
    std::uint64_t allocations = 0;
    std::uint64_t native_calls = 0;
    // Inline-cache effectiveness, per site kind (DESIGN.md §11).  A "miss"
    // is any execution that had to fall back to symbolic resolution —
    // first execution, receiver-class change at a polymorphic site, or a
    // pool-generation bump.
    std::uint64_t ic_field_hits = 0;
    std::uint64_t ic_field_misses = 0;
    std::uint64_t ic_invoke_hits = 0;
    std::uint64_t ic_invoke_misses = 0;
    std::uint64_t ic_static_hits = 0;
    std::uint64_t ic_static_misses = 0;

    std::uint64_t total_invokes() const {
        return invokes_virtual + invokes_interface + invokes_static + invokes_special;
    }
    std::uint64_t ic_hits() const {
        return ic_field_hits + ic_invoke_hits + ic_static_hits;
    }
    std::uint64_t ic_misses() const {
        return ic_field_misses + ic_invoke_misses + ic_static_misses;
    }
};

class Interpreter {
public:
    /// Native method: receives the interpreter, the receiver (null Value
    /// for static natives) and the arguments; returns the result.  The
    /// receiver and the span view the native's own frame, which stays put
    /// until it returns, even when it calls back into the interpreter.
    using NativeFn =
        std::function<Value(Interpreter&, const Value& receiver, std::span<const Value> args)>;
    /// Class-level native handler: additionally receives the method.  It
    /// owns its arguments: the frame they live in is discarded when it
    /// returns, so it may move them out.
    using ClassNativeFn =
        std::function<Value(Interpreter&, const model::Method& method, const Value& receiver,
                            std::span<Value> args)>;

    /// The pool must outlive the interpreter and should be verified.
    explicit Interpreter(const model::ClassPool& pool);
    ~Interpreter();
    Interpreter(const Interpreter&) = delete;
    Interpreter& operator=(const Interpreter&) = delete;

    const model::ClassPool& pool() const noexcept { return *pool_; }
    Heap& heap() noexcept { return heap_; }
    const Heap& heap() const noexcept { return heap_; }

    /// Binds natives.  Either call may replace an earlier binding at any
    /// time, even after the method ran: the next call uses the new one.
    void register_native(const std::string& owner, const std::string& name,
                         const std::string& desc, NativeFn fn);
    void register_class_native(const std::string& owner, ClassNativeFn fn);

    /// Allocates an instance of `class_name` (no constructor run).
    ObjId allocate(const std::string& class_name);

    /// new + constructor with the given descriptor.
    Value construct(const std::string& class_name, const std::string& ctor_desc,
                    std::vector<Value> args);

    /// Calls a static method.
    Value call_static(const std::string& owner, const std::string& name,
                      const std::string& desc, std::vector<Value> args = {});

    /// Virtual dispatch on `receiver` (must be a ref).
    Value call_virtual(const Value& receiver, const std::string& name,
                       const std::string& desc, std::vector<Value> args = {});
    /// The same, moving `args` straight into the callee's frame, so a
    /// caller that reuses its own argument buffer builds no vector.  The
    /// buffer's values are left moved-from.
    Value call_virtual(const Value& receiver, const std::string& name,
                       const std::string& desc, std::span<Value> args);

    /// Static field access (runs <clinit> first if needed).
    Value get_static_field(const std::string& owner, const std::string& field);
    void set_static_field(const std::string& owner, const std::string& field, Value v);

    /// Instance field access by name (for natives / the runtime).
    Value get_field(ObjId obj, const std::string& field);
    /// Reads `fields[slot]` of `obj`, a slot of its class's
    /// ClassPool::layout_of; counts as a field read like get_field.
    Value get_field_at(ObjId obj, std::size_t slot);
    void set_field(ObjId obj, const std::string& field, Value v);

    /// Class of a heap object.
    const model::ClassFile& class_of(ObjId obj) const;

    /// Runs <clinit> of `class_name` if it has not run yet.
    void ensure_initialized(const std::string& class_name);

    /// Raises a guest-level exception carrying `thrown` (a ref).  For use
    /// by native methods (e.g. remote proxies surfacing a remote fault as
    /// a guest throwable).
    [[noreturn]] void throw_guest(Value thrown);

    /// Builds the embedder-facing exception for a guest throwable object.
    GuestException make_guest_exception(ObjId obj);

    const Counters& counters() const noexcept { return counters_; }
    void reset_counters() { counters_ = Counters{}; }

    /// Mirrors this VM's work counters into `registry` as probes named
    /// `<prefix>.instructions`, `.invokes`, `.native_calls`, `.allocations`,
    /// `.field_accesses` (sampled at snapshot time — the interpreter's hot
    /// loop keeps its plain struct increments).  Pass nullptr to detach.
    /// The registry must outlive this interpreter.
    void attach_metrics(obs::Registry* registry, std::string prefix);

    /// Opt-in per-method profiling: records a histogram
    /// `<prefix>.method_instr.<Cls>.<method>` of *inclusive* instructions
    /// per non-native call, found through the method's memo.  Off by
    /// default — it reads the instruction counter twice and records once
    /// per invoke; `rafdac stats` and tests enable it explicitly.
    /// Requires attach_metrics first.
    void set_method_profiling(bool on) { profile_methods_ = on && metrics_; }

    /// Guest console: natives like Sys.print append here.
    const std::string& output() const noexcept { return output_; }
    void append_output(const std::string& s) { output_ += s; }
    void clear_output() { output_.clear(); }

    /// Monotonic logical time, advanced by the distributed runtime; guests
    /// read it via the Sys.time native.
    std::int64_t logical_time() const noexcept { return logical_time_; }
    void advance_time(std::int64_t delta) { logical_time_ += delta; }

    /// Durability hook (DESIGN.md §20): when set, every heap allocation,
    /// field/element/static write and class initialisation is reported.
    /// Null (the default) costs one predictable branch per mutation.
    void set_observer(MutationObserver* obs) { observer_ = obs; }
    MutationObserver* observer() const noexcept { return observer_; }

    /// Wipes all VM state — heap, statics, initialised classes, guest
    /// output — modelling a process restart of this address space.  Bumps
    /// the incarnation so every inline cache filled before the wipe (which
    /// may hold raw pointers into the discarded static storage) misses and
    /// refills instead of dereferencing stale state.  Natives and the
    /// class pool survive: they are code, not state.
    void reset_vm_state();

    /// Restart epoch of this VM; folded into cache validity (cache_gen).
    std::uint64_t incarnation() const noexcept { return incarnation_; }

    // -- Restore API (WAL/snapshot replay; DESIGN.md §20) --------------
    // These rebuild state without running guest code: no <clinit>, no
    // observer notifications, no work counters.  Replaying records in
    // their original order through these calls reproduces the original
    // heap ids exactly (the arena allocates ids sequentially).

    /// Allocates an instance of `class_name` with default-valued fields.
    ObjId restore_object(const std::string& class_name);
    /// Allocates an array of `length` default-valued `elem_desc` elements.
    ObjId restore_array(const std::string& elem_desc, std::size_t length);
    /// Writes `fields[slot]` (or array element `slot`) of `obj` directly.
    void restore_field(ObjId obj, std::size_t slot, Value v);
    /// Writes static `class_name.field` without triggering <clinit>.
    void restore_static(const std::string& class_name, const std::string& field,
                        Value v);
    /// Marks <clinit> of `class_name` as already run (its effects were
    /// replayed as individual records).
    void mark_initialized(const std::string& class_name);
    /// Visits every populated static slot as (class, field, value), and
    /// every initialised class, in sorted order — snapshot writers need a
    /// deterministic iteration over the unordered containers.
    void visit_statics(
        const std::function<void(const std::string&, const std::string&,
                                 const Value&)>& fn) const;
    void visit_initialized(const std::function<void(const std::string&)>& fn) const;

private:
    struct GuestThrow {  // internal unwinding token
        Value thrown;
    };

    /// One quickening slot: the memoized resolution of one symbolic
    /// instruction site (GetField/PutField, the invokes, GetStatic/
    /// PutStatic, New).  Slots live in a side table parallel to each
    /// method's code so model::Instr stays immutable.  A slot is valid
    /// only while `gen == pool_->generation()` (and, for receiver-keyed
    /// sites, while `cls` matches the receiver's class); `gen` starts at
    /// 0, which the pool never reports, so empty slots always miss.  An
    /// invoke site's operand shape is its `target`'s `sig`, resolved from
    /// the site's own descriptor.
    struct SiteCache {
        std::uint64_t gen = 0;
        const model::ClassFile* cls = nullptr;  // receiver class (fields,
                                                // virtual invokes) or
                                                // resolved owner (statics,
                                                // New, InvokeStatic/Special)
        int slot = -1;                          // field/static slot index
        const model::Method* target = nullptr;  // invoke target
        std::vector<Value>* statics = nullptr;  // declaring class's statics
        const model::Layout* layout = nullptr;  // New: instance layout
    };

    /// The buffers of one live frame: a guest frame's locals and operand
    /// stack, or a native frame's receiver and arguments (in `locals`).
    /// frames_[k] serves every k-th live frame in turn, so a warmed-up call
    /// reuses the capacity the last frame at its depth left behind.
    struct Frame {
        std::vector<Value> locals;
        std::vector<Value> stack;
    };
    /// The buffers for the next frame, `locals` emptied for the caller to
    /// fill; invoke() claims them.
    Frame& next_frame();

    /// Everything the interpreter memoizes about one method, found once
    /// per invoke.  `sites` is the quickening side table, one SiteCache per
    /// instruction; each slot checks its own `gen`, because a pool bump can
    /// land while the method still runs.  The native binding and the
    /// profile histogram hold while `gen == cache_gen()` (a rewrite may
    /// hand this Method's address to another method), the binding also
    /// while `natives_gen == natives_gen_`.  At most one of `fn` /
    /// `class_fn` is set; both point into natives_/class_natives_, whose
    /// nodes stay put.
    struct MethodMemo {
        std::uint64_t gen = 0;
        std::uint64_t natives_gen = 0;
        const NativeFn* fn = nullptr;
        const ClassNativeFn* class_fn = nullptr;
        obs::Histogram* hist = nullptr;
        std::vector<SiteCache> sites;
    };
    /// The memo of `m`: binding and histogram dropped when stale, the site
    /// table sized to the code.
    MethodMemo& memo_of(const model::Method& m);
    void bind_native(const model::ClassFile& cls, const model::Method& m, MethodMemo& memo);

    template <class Body>
    Value at_api_boundary(Body&& body);
    Value execute(const model::ClassFile& cls, const model::Method& m, MethodMemo& memo,
                  Frame& frame);
    /// Runs `m` in `frame`, which must be next_frame() with the receiver
    /// and arguments in `locals`.
    Value invoke(const model::ClassFile& cls, const model::Method& m, Frame& frame);
    std::vector<Value>& statics_of(const std::string& class_name);
    ObjId allocate_with(const model::ClassFile& cls, const model::Layout& layout);
    /// Re-keys the static storage to the current pool generation: classes
    /// that vanished are dropped, surviving fields keep their values by
    /// name, new fields appear zeroed.
    void reconcile_statics();

    Value arith(model::Op op, const Value& a, const Value& b);
    Value compare(model::Op op, const Value& a, const Value& b);

    /// Cache validity epoch: the pool generation plus the VM incarnation.
    /// Both only ever increase, so any cache filled before a pool mutation
    /// OR a reset_vm_state() fails the equality check and refills — this
    /// is what keeps SiteCache::statics (a raw pointer into statics_) from
    /// being dereferenced across a restart (DESIGN.md §20).
    std::uint64_t cache_gen() const noexcept {
        return pool_->generation() + incarnation_;
    }

    /// Cold opcode bodies, out of line so their locals do not enlarge
    /// execute()'s frame: guest recursion is bounded by the native stack
    /// (kMaxCallDepth frames of execute+invoke must fit), and under ASan
    /// every in-frame local costs redzone space in all of them at once.
    void op_misc(const model::Instruction& i, std::vector<Value>& stack);
    void op_array(const model::Instruction& i, std::vector<Value>& stack);
    void op_invoke_virtual(const model::Instruction& i, SiteCache& sc,
                           std::vector<Value>& stack);
    void op_invoke_static(const model::Instruction& i, SiteCache& sc,
                          std::vector<Value>& stack);
    void op_invoke_special(const model::Instruction& i, SiteCache& sc,
                           std::vector<Value>& stack);
    Value invoke_native_entry(const model::ClassFile& cls, const model::Method& m,
                              MethodMemo& memo, Frame& frame);
    /// True when the *native* stack is close to exhaustion.  The guest
    /// depth guard (kMaxCallDepth) assumes native frames are small; under
    /// instrumented builds (ASan redzones) they are not, and the process
    /// would fault before the guard fires.  Measured against the stack
    /// pointer captured at recursion depth 1.
    bool native_stack_exhausted();
    [[noreturn]] void throw_stack_overflow(const model::ClassFile& cls,
                                           const model::Method& m);
    void push_concat(const Value& a, const Value& b, std::vector<Value>& stack);
    [[noreturn]] void op_throw(std::vector<Value>& stack);
    /// Searches this frame's handler table; true = handled (pc/stack set).
    bool dispatch_guest_throw(GuestThrow& gt, const model::Method& m, int& pc,
                              std::vector<Value>& stack);
    [[noreturn]] void throw_pc_range(const model::ClassFile& cls,
                                     const model::Method& m);

    void record_method_profile(const model::ClassFile& cls, const model::Method& m,
                               MethodMemo& memo, std::uint64_t instructions);

    const model::ClassPool* pool_;
    Heap heap_;
    Counters counters_;
    MutationObserver* observer_ = nullptr;
    std::uint64_t incarnation_ = 0;  // bumped by reset_vm_state()
    obs::Registry* metrics_ = nullptr;
    std::string metrics_prefix_;
    bool profile_methods_ = false;
    std::string output_;
    std::int64_t logical_time_ = 0;
    int call_depth_ = 0;                // live guest frames
    std::uintptr_t stack_base_ = 0;     // see native_stack_exhausted()
    /// Frame buffers by depth; a deque, so growing it never moves the
    /// buffers of a live frame.  frames_live_ counts the live guest and
    /// native frames: a native holds its own frame, so a call it makes
    /// back into the interpreter fills the next one, not its arguments.
    std::deque<Frame> frames_;
    std::size_t frames_live_ = 0;

    /// Static storage of one class.  `names` remembers which field each
    /// slot held so values survive a pool mutation that reorders or
    /// extends the statics (reconcile_statics).
    struct StaticSlots {
        std::vector<std::string> names;
        std::vector<Value> values;
    };
    std::unordered_map<std::string, StaticSlots> statics_;
    std::uint64_t statics_gen_ = 0;
    std::unordered_set<std::string> initialized_;
    std::unordered_set<std::string> initializing_;
    std::unordered_map<std::string, NativeFn> natives_;
    std::unordered_map<std::string, ClassNativeFn> class_natives_;
    /// Bumped by every register_native / register_class_native, so a
    /// re-registration invalidates the bindings already resolved.
    std::uint64_t natives_gen_ = 0;
    /// One memo per method (see MethodMemo).  Entries invalidate lazily,
    /// so a pool mutation costs nothing here until a stale method runs.
    std::unordered_map<const model::Method*, MethodMemo> memos_;
};

}  // namespace rafda::vm
