#include "runtime/directory.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace rafda::runtime {
namespace {

std::uint64_t fnv1a(const char* data, std::size_t len,
                    std::uint64_t h = 1469598103934665603ULL) noexcept {
    for (std::size_t i = 0; i < len; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ULL;
    }
    return h;
}

// FNV-1a's avalanche is weak in the high-order bits for short inputs, and
// ring placement compares full 64-bit values (high bits first) — without a
// finalizer the ring points cluster and a handful of shards own nearly
// every key.  Murmur3's fmix64 spreads them.
std::uint64_t fmix64(std::uint64_t h) noexcept {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

}  // namespace

std::uint64_t ShardedDirectory::hash_key(const std::string& key) noexcept {
    return fmix64(fnv1a(key.data(), key.size()));
}

void ShardedDirectory::configure(std::vector<net::NodeId> owners) {
    owners_ = std::move(owners);
    ring_.clear();
    tables_.clear();
    caches_.clear();
    if (owners_.empty()) return;
    std::sort(owners_.begin(), owners_.end());
    owners_.erase(std::unique(owners_.begin(), owners_.end()), owners_.end());
    ring_.reserve(owners_.size() * kDirectoryVnodes);
    for (net::NodeId owner : owners_) {
        // Ring points hash (owner, replica) so the layout depends only on
        // the owner set — never on insertion order or host pointers.
        std::uint64_t h = fnv1a(reinterpret_cast<const char*>(&owner), sizeof(owner));
        for (std::uint32_t r = 0; r < kDirectoryVnodes; ++r) {
            std::uint64_t point =
                fmix64(fnv1a(reinterpret_cast<const char*>(&r), sizeof(r), h));
            ring_.emplace_back(point, owner);
        }
        tables_[owner];  // materialize the shard table, even if it stays empty
    }
    std::sort(ring_.begin(), ring_.end());
}

net::NodeId ShardedDirectory::owner(const std::string& key) const {
    if (ring_.empty()) throw RuntimeError("ShardedDirectory::owner: directory disabled");
    const std::uint64_t h = hash_key(key);
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), std::make_pair(h, net::NodeId{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (it == ring_.end()) it = ring_.begin();  // wrap clockwise past the top
    return it->second;
}

std::map<std::string, DirLocation>& ShardedDirectory::table_for(const std::string& key) {
    return tables_[owner(key)];
}

void ShardedDirectory::put_singleton(const std::string& cls, net::NodeId home,
                                     const std::string& protocol) {
    DirLocation loc;
    loc.node = home;
    loc.protocol = protocol;
    table_for("S/" + cls)["S/" + cls] = std::move(loc);
}

const DirLocation* ShardedDirectory::find_singleton(const std::string& cls) const {
    const std::string key = "S/" + cls;
    auto shard = tables_.find(owner(key));
    if (shard == tables_.end()) return nullptr;
    auto it = shard->second.find(key);
    return it == shard->second.end() ? nullptr : &it->second;
}

namespace {
std::string object_key(net::NodeId node, std::uint64_t oid) {
    return "O/" + std::to_string(node) + "/" + std::to_string(oid);
}
}  // namespace

void ShardedDirectory::put_object(net::NodeId node, std::uint64_t oid,
                                  net::NodeId to, std::uint64_t new_oid) {
    DirLocation loc;
    loc.node = to;
    loc.oid = new_oid;
    table_for(object_key(node, oid))[object_key(node, oid)] = std::move(loc);
}

std::pair<net::NodeId, std::uint64_t> ShardedDirectory::chase_object(
    net::NodeId node, std::uint64_t oid) const {
    // Bounded chase: each recorded hop is one past migration, and migrations
    // are finite; the bound guards against a (buggy) relocation cycle.
    for (int hops = 0; hops < 64; ++hops) {
        const std::string key = object_key(node, oid);
        auto shard = tables_.find(owner(key));
        if (shard == tables_.end()) return {node, oid};
        auto it = shard->second.find(key);
        if (it == shard->second.end()) return {node, oid};
        node = it->second.node;
        oid = it->second.oid;
    }
    return {node, oid};
}

void ShardedDirectory::visit_shards(
    const std::function<void(net::NodeId, std::size_t)>& fn) const {
    for (const auto& [owner, table] : tables_) fn(owner, table.size());
}

std::size_t ShardedDirectory::total_entries() const noexcept {
    std::size_t n = 0;
    for (const auto& [owner, table] : tables_) n += table.size();
    return n;
}

const DirLocation* ShardedDirectory::cached_singleton(net::NodeId asker,
                                                      const std::string& cls) const {
    auto node_cache = caches_.find(asker);
    if (node_cache == caches_.end()) return nullptr;
    auto it = node_cache->second.find("S/" + cls);
    return it == node_cache->second.end() ? nullptr : &it->second;
}

void ShardedDirectory::cache_singleton(net::NodeId asker, const std::string& cls,
                                       const DirLocation& loc) {
    caches_[asker]["S/" + cls] = loc;
}

void ShardedDirectory::invalidate_caches() { caches_.clear(); }

}  // namespace rafda::runtime
