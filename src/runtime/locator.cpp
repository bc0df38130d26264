#include "runtime/locator.hpp"

#include <algorithm>

#include "runtime/system.hpp"
#include "support/error.hpp"

namespace rafda::runtime {

void Locator::enable_directory(DirectoryPolicy policy) {
    const std::size_t nodes = system_.node_count();
    const std::size_t shards =
        policy.shards == 0 ? nodes : std::min<std::size_t>(policy.shards, nodes);
    if (shards == 0) throw RuntimeError("enable_directory requires at least one node");
    directory_.configure(shards);
    obs::Registry& metrics = system_.metrics();
    lookups_ = &metrics.counter("directory.lookups");
    remote_ = &metrics.counter("directory.remote");
    cache_hits_ = &metrics.counter("directory.cache_hits");
    updates_ = &metrics.counter("directory.updates");
    entries_ = &metrics.gauge("directory.entries");
}

Placement Locator::singleton_home(const std::string& cls, net::NodeId asker) {
    Placement p = policy_.singleton_placement(cls);
    if (!directory_.enabled()) return p;
    lookups_->add();
    // A cached answer holds only while the policy still gives it: a home
    // rewritten through System::policy(), which publishes nothing, costs a
    // fresh lookup, as a published move does.
    const Placement* cached = directory_.cached_singleton(asker, cls);
    if (cached && *cached == p) {
        cache_hits_->add();
        return p;
    }
    const net::NodeId owner = directory_.singleton_owner(cls);
    if (owner != asker) control_trip(asker, owner);
    directory_.cache_singleton(asker, cls, p);
    return p;
}

std::pair<net::NodeId, vm::ObjId> Locator::resolve(net::NodeId asker, net::NodeId node,
                                                   vm::ObjId oid) {
    if (!directory_.enabled())
        throw RuntimeError("directory_resolve requires enable_directory()");
    lookups_->add();
    const net::NodeId owner = directory_.object_owner(node, oid);
    if (owner != asker) control_trip(asker, owner);
    return directory_.chase_object(node, oid);
}

void Locator::publish() {
    if (!directory_.enabled()) return;
    directory_.invalidate_caches();
    updates_->add();
    entries_->set(static_cast<std::int64_t>(directory_.total_entries()));
}

void Locator::control_trip(net::NodeId asker, net::NodeId owner) {
    remote_->add();
    Node& a = system_.node(asker);
    Node& o = system_.node(owner);
    net::SimNetwork& network = system_.network();
    net::Delivery query = network.transfer_at(asker, owner, kDirectoryLookupBytes, a.clock_us());
    o.reconcile_clock(query.at_us);
    // Serving the lookup costs the shard node CPU — the serialization a
    // single-shard directory concentrates and the ring spreads.
    o.advance_clock(kDirectoryLookupCpuUs);
    net::Delivery answer =
        network.transfer_at(owner, asker, kDirectoryLookupBytes, o.clock_us());
    a.reconcile_clock(answer.at_us);
}

}  // namespace rafda::runtime
