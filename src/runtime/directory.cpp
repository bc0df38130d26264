#include "runtime/directory.hpp"

#include <algorithm>
#include <tuple>

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

std::string object_key(net::NodeId node, std::uint64_t oid) {
    return "O/" + std::to_string(node) + "/" + std::to_string(oid);
}

}  // namespace

void ShardedDirectory::configure(std::size_t shards) {
    ring_.clear();
    relocations_.clear();
    caches_.clear();
    ring_.reserve(shards * kDirectoryVnodes);
    for (net::NodeId owner = 0; static_cast<std::size_t>(owner) < shards; ++owner) {
        // Ring points hash (owner, replica) so the layout depends only on
        // the owner set — never on insertion order or host pointers.
        std::uint64_t h = fnv1a(reinterpret_cast<const char*>(&owner), sizeof(owner));
        for (std::uint32_t r = 0; r < kDirectoryVnodes; ++r) {
            std::uint64_t point =
                fmix64(fnv1a(reinterpret_cast<const char*>(&r), sizeof(r), h));
            ring_.emplace_back(point, owner);
        }
    }
    std::sort(ring_.begin(), ring_.end());
}

net::NodeId ShardedDirectory::object_owner(net::NodeId node, std::uint64_t oid) const {
    return owner(object_key(node, oid));
}

net::NodeId ShardedDirectory::owner(const std::string& key) const {
    if (ring_.empty()) throw RuntimeError("ShardedDirectory::owner: directory disabled");
    const std::uint64_t h = fmix64(fnv1a(key.data(), key.size()));
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), std::make_pair(h, net::NodeId{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (it == ring_.end()) it = ring_.begin();  // wrap clockwise past the top
    return it->second;
}

void ShardedDirectory::put_object(net::NodeId node, std::uint64_t oid,
                                  net::NodeId to, std::uint64_t new_oid) {
    relocations_[object_key(node, oid)] = {to, new_oid};
}

std::pair<net::NodeId, std::uint64_t> ShardedDirectory::chase_object(
    net::NodeId node, std::uint64_t oid) const {
    // Bounded chase: each recorded hop is one past migration, and migrations
    // are finite; the bound guards against a (buggy) relocation cycle.
    for (int hops = 0; hops < 64; ++hops) {
        const auto it = relocations_.find(object_key(node, oid));
        if (it == relocations_.end()) break;
        std::tie(node, oid) = it->second;
    }
    return {node, oid};
}

const Placement* ShardedDirectory::cached_singleton(net::NodeId asker,
                                                    const std::string& cls) const {
    auto node_cache = caches_.find(asker);
    if (node_cache == caches_.end()) return nullptr;
    auto it = node_cache->second.find(cls);
    return it == node_cache->second.end() ? nullptr : &it->second;
}

void ShardedDirectory::cache_singleton(net::NodeId asker, const std::string& cls,
                                       const Placement& p) {
    caches_[asker][cls] = p;
}

void ShardedDirectory::invalidate_caches() { caches_.clear(); }

}  // namespace rafda::runtime
