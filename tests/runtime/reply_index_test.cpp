// The WAL's request-id index (runtime/reply_index.hpp) against
// std::unordered_map: a seeded mix of inserts, overwrites, finds and
// erases over ids that are sequential (as RpcPath numbers requests), that
// are all equal modulo every table size the index reaches, and that are
// arbitrary 64-bit values.  The live set swings between empty and a few
// hundred entries, so the table grows several times, and a table at up
// to half load has long probe runs for erases to land inside.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "runtime/reply_index.hpp"

namespace rafda::runtime {
namespace {

struct Lcg {
    std::uint64_t state;
    std::uint64_t next() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 11;
    }
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

void expect_same(const ReplyIndex& index,
                 const std::unordered_map<std::uint64_t, std::uint64_t>& model,
                 const char* ids, int step) {
    ASSERT_EQ(index.size(), model.size()) << ids << " step " << step;
    for (const auto& [id, offset] : model) {
        const std::uint64_t* at = index.find(id);
        ASSERT_NE(at, nullptr) << ids << " step " << step << " lost id " << id;
        ASSERT_EQ(*at, offset) << ids << " step " << step << " id " << id;
    }
}

TEST(ReplyIndex, MatchesAnUnorderedMapUnderSeededOps) {
    enum class Ids { Sequential, SameModuloTable, Arbitrary };
    for (const Ids kind : {Ids::Sequential, Ids::SameModuloTable, Ids::Arbitrary}) {
        const char* name = kind == Ids::Sequential        ? "sequential"
                           : kind == Ids::SameModuloTable ? "same-modulo-table"
                                                          : "arbitrary";
        Lcg rng{0x5EED0000u + static_cast<std::uint64_t>(kind)};
        ReplyIndex index;
        std::unordered_map<std::uint64_t, std::uint64_t> model;
        std::vector<std::uint64_t> live;  // the model's ids, for picking one
        std::uint64_t next_id = 1;
        const auto fresh_id = [&]() -> std::uint64_t {
            switch (kind) {
                case Ids::Sequential: return next_id++;
                // 2^20 is a multiple of every table size the index reaches.
                case Ids::SameModuloTable: return 7 + (next_id++ << 20);
                case Ids::Arbitrary: break;
            }
            return rng.next() * 0x9E37u ^ rng.next() << 40;
        };
        // The live set drifts up to ~400 entries, back to empty, and up.
        std::size_t target = 400;
        for (int step = 0; step < 20000; ++step) {
            if (live.size() >= target) target = 0;
            if (live.empty()) target = 50 + rng.below(400);
            const bool grow = live.size() < target;
            const std::size_t op = rng.below(10);
            const std::uint64_t offset = rng.next();
            if (op < 4 && grow) {
                const std::uint64_t id = fresh_id();
                if (model.emplace(id, offset).second) live.push_back(id);
                model[id] = offset;
                index.insert_or_assign(id, offset);
            } else if (op < 5 && !live.empty()) {  // overwrite
                const std::uint64_t id = live[rng.below(live.size())];
                model[id] = offset;
                index.insert_or_assign(id, offset);
            } else if (op < 8 && !live.empty()) {  // erase, usually mid-run
                const std::size_t pick = rng.below(live.size());
                const std::uint64_t id = live[pick];
                // A stale offset erases nothing.
                ASSERT_FALSE(index.erase(id, model[id] + 1)) << name << " step " << step;
                ASSERT_TRUE(index.erase(id, model[id])) << name << " step " << step;
                model.erase(id);
                live[pick] = live.back();
                live.pop_back();
            } else {  // find: a live id or, as often, an absent one
                const std::uint64_t id =
                    live.empty() || rng.below(2) ? fresh_id() : live[rng.below(live.size())];
                const auto it = model.find(id);
                const std::uint64_t* at = index.find(id);
                ASSERT_EQ(at != nullptr, it != model.end()) << name << " step " << step;
                if (at) {
                    ASSERT_EQ(*at, it->second) << name << " step " << step;
                }
            }
            if (step % 97 == 0) expect_same(index, model, name, step);
            if (step % 5003 == 5002) {  // a restart re-indexes from scratch
                index.clear();
                for (const auto& [id, off] : model) index.insert_or_assign(id, off);
            }
        }
        expect_same(index, model, name, -1);
    }
}

TEST(ReplyIndex, FifoEvictionKeepsEveryLaterIdReachable) {
    // The reply cache's own pattern: append the next id, evict the oldest
    // once `capacity` are live, look up every live id.
    for (const std::size_t capacity : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                       std::size_t{1024}}) {
        ReplyIndex index;
        for (std::uint64_t id = 1; id <= 4 * capacity + 100; ++id) {
            if (id > capacity) {
                ASSERT_TRUE(index.erase(id - capacity, 10 * (id - capacity)));
            }
            index.insert_or_assign(id, 10 * id);
            ASSERT_EQ(index.size(), std::min<std::uint64_t>(id, capacity));
            for (std::uint64_t live = id > capacity ? id - capacity + 1 : 1; live <= id;
                 live += 1 + live % 5) {
                const std::uint64_t* at = index.find(live);
                ASSERT_NE(at, nullptr) << "capacity " << capacity << " id " << live;
                ASSERT_EQ(*at, 10 * live);
            }
            ASSERT_FALSE(index.contains(id + 1));
        }
    }
}

}  // namespace
}  // namespace rafda::runtime
