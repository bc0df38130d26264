// ReplicaManager — read-mostly replication state for the adaptation
// engine (DESIGN.md §19).
//
// A replica is a node-local copy of a remote object's state, installed by
// the adaptation engine when an object's observation window shows a
// read/write ratio above policy.  The proxy dispatcher consults this
// registry on every call *only once replicas exist* (`active()` is an
// empty-map check, so the default path stays untouched): read-only
// methods are served from the local copy, anything else forwards to the
// primary and invalidates every copy (write-invalidate — see the
// consistency contract in DESIGN.md §19).
//
// The read/write classification runs on the ORIGINAL class's bytecode —
// the pre-transformation truth about what a method touches — and is
// conservative: a method is read-only iff every instruction in its body
// (and in every same-class method it invokes, to a fixpoint) only reads.
// Generated property accessors (`get_f`/`set_f`) classify by prefix
// against the original field table.  Anything unknown is a write.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/network.hpp"

namespace rafda::model {
class ClassPool;
}

namespace rafda::runtime {

/// One node-local copy of a primary object.
struct Replica {
    net::NodeId node = 0;    // where the copy lives
    std::uint64_t oid = 0;   // copy's object id on `node`
    bool valid = false;      // false = stale; next read refreshes
};

class ReplicaManager {
public:
    /// The original (pre-transformation) pool the read/write classifier
    /// consults; must outlive the manager.
    void configure(const model::ClassPool* original) { pool_ = original; }

    /// True once any replica exists — the single branch the hot dispatch
    /// path pays while replication is unused.
    bool active() const noexcept { return !entries_.empty(); }

    /// Conservative read-only classification of `method` on original
    /// class `cls` (see file comment).  Memoized per (cls, method).
    bool method_is_readonly(const std::string& cls, const std::string& method) const;

    /// Registers (or overwrites) reader-node `r` as a copy of the primary
    /// at (primary_node, primary_oid) of original class `cls`.
    void put(net::NodeId primary_node, std::uint64_t primary_oid,
             const std::string& cls, Replica r);

    /// The copy held by `reader`, nullptr when none.
    Replica* find(net::NodeId primary_node, std::uint64_t primary_oid,
                  net::NodeId reader);

    bool has_replicas(net::NodeId primary_node, std::uint64_t primary_oid) const {
        return entries_.count({primary_node, primary_oid}) != 0;
    }

    /// Marks every copy of the primary stale; returns the copies that
    /// *transitioned* valid -> stale (already-stale copies are skipped, so
    /// write bursts are charged one invalidation round, not one per write).
    std::vector<Replica*> invalidate(net::NodeId primary_node,
                                     std::uint64_t primary_oid);

    /// Forgets every copy of the primary (migration barrier: the primary
    /// moved, the copies' provenance is gone).
    void drop_primary(net::NodeId primary_node, std::uint64_t primary_oid);

    /// Primaries of original class `cls`, in (node, oid) order — the
    /// local-discover invalidation hook resolves "someone on the home node
    /// just got a raw reference to the singleton of cls" through this.
    std::vector<std::pair<net::NodeId, std::uint64_t>> primaries_of_class(
        const std::string& cls) const;

private:
    bool method_is_readonly_rec(const std::string& cls, const std::string& method,
                                std::vector<std::string>& in_progress) const;

    struct Entry {
        std::string cls;
        std::map<net::NodeId, Replica> copies;
    };

    const model::ClassPool* pool_ = nullptr;
    std::map<std::pair<net::NodeId, std::uint64_t>, Entry> entries_;
    /// Orders (class, method) keys and compares them with string_view
    /// pairs, so a lookup builds no string.
    struct MethodKeyLess {
        using is_transparent = void;
        using View = std::pair<std::string_view, std::string_view>;
        static View view(const auto& k) { return {k.first, k.second}; }
        bool operator()(const auto& a, const auto& b) const { return view(a) < view(b); }
    };
    mutable std::map<std::pair<std::string, std::string>, bool, MethodKeyLess>
        readonly_cache_;
};

}  // namespace rafda::runtime
