#include "runtime/replica.hpp"

#include <algorithm>

#include "model/classfile.hpp"
#include "model/classpool.hpp"
#include "model/instr.hpp"

namespace rafda::runtime {

namespace {

/// True when the field table of `cf` declares `field` (any staticness —
/// the generated accessors cover both families).
bool has_field(const model::ClassFile& cf, std::string_view field) {
    for (const model::Field& f : cf.fields)
        if (f.name == field) return true;
    return false;
}

}  // namespace

bool ReplicaManager::method_is_readonly(const std::string& cls,
                                        const std::string& method) const {
    auto it = readonly_cache_.find(MethodKeyLess::View(cls, method));
    if (it != readonly_cache_.end()) return it->second;
    std::vector<std::string> in_progress;
    const bool ro = method_is_readonly_rec(cls, method, in_progress);
    readonly_cache_.emplace(std::pair(cls, method), ro);
    return ro;
}

bool ReplicaManager::method_is_readonly_rec(
    const std::string& cls, const std::string& method,
    std::vector<std::string>& in_progress) const {
    if (!pool_) return false;
    const model::ClassFile* cf = pool_->find(cls);
    if (!cf) return false;

    const auto bodies = cf->methods_named(method);
    if (bodies.empty()) {
        // Generated property accessors never exist on the original class;
        // classify them by prefix against the original field table.
        if (method.rfind("get_", 0) == 0 && has_field(*cf, method.substr(4)))
            return true;
        return false;  // set_f, get_me, and anything else unknown: a write
    }

    // Cycle guard: a recursive method under classification is assumed
    // read-only; any write on the cycle is caught by the frame that sees
    // the offending instruction.
    const std::string key = cls + "." + method;
    if (std::find(in_progress.begin(), in_progress.end(), key) != in_progress.end())
        return true;
    in_progress.push_back(key);

    bool ro = true;
    for (const model::Method* m : bodies) {
        if (m->is_native || m->is_abstract) {
            ro = false;
            break;
        }
        for (const model::Instruction& ins : m->code.instrs) {
            switch (ins.op) {
                case model::Op::PutField:
                case model::Op::PutStatic:
                case model::Op::AStore:
                case model::Op::New:
                case model::Op::NewArray:
                case model::Op::Throw:
                    ro = false;
                    break;
                case model::Op::InvokeVirtual:
                case model::Op::InvokeInterface:
                case model::Op::InvokeStatic:
                case model::Op::InvokeSpecial:
                    // Only same-class calls can stay inside the replica's
                    // state; anything else might touch the world.
                    if (ins.owner != cls ||
                        !method_is_readonly_rec(cls, ins.member, in_progress))
                        ro = false;
                    break;
                default:
                    break;  // loads, arithmetic, control flow, reads: fine
            }
            if (!ro) break;
        }
        if (!ro) break;
    }
    in_progress.pop_back();
    return ro;
}

void ReplicaManager::put(net::NodeId primary_node, std::uint64_t primary_oid,
                         const std::string& cls, Replica r) {
    Entry& e = entries_[{primary_node, primary_oid}];
    e.cls = cls;
    e.copies[r.node] = r;
}

Replica* ReplicaManager::find(net::NodeId primary_node, std::uint64_t primary_oid,
                              net::NodeId reader) {
    auto it = entries_.find({primary_node, primary_oid});
    if (it == entries_.end()) return nullptr;
    auto cit = it->second.copies.find(reader);
    return cit == it->second.copies.end() ? nullptr : &cit->second;
}

std::vector<Replica*> ReplicaManager::invalidate(net::NodeId primary_node,
                                                 std::uint64_t primary_oid) {
    std::vector<Replica*> flipped;
    auto it = entries_.find({primary_node, primary_oid});
    if (it == entries_.end()) return flipped;
    for (auto& [_, r] : it->second.copies) {
        if (!r.valid) continue;
        r.valid = false;
        flipped.push_back(&r);
    }
    return flipped;
}

void ReplicaManager::drop_primary(net::NodeId primary_node,
                                  std::uint64_t primary_oid) {
    entries_.erase({primary_node, primary_oid});
}

std::vector<std::pair<net::NodeId, std::uint64_t>>
ReplicaManager::primaries_of_class(const std::string& cls) const {
    std::vector<std::pair<net::NodeId, std::uint64_t>> out;
    for (const auto& [key, e] : entries_)
        if (e.cls == cls) out.push_back(key);
    return out;
}

}  // namespace rafda::runtime
