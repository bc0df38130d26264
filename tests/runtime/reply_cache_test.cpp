// A node's dedup cache against a reference FIFO (DESIGN.md §15, §20).
//
// The model is a plain deque of (request id, reply) with the cache's
// documented semantics: a request id already cached keeps its first
// reply, an insert evicts the oldest entries down to one below the
// current capacity, capacity 0 caches nothing (and looks nothing up), a
// volatile restart clears the cache, and a durable restart keeps its
// newest `capacity` entries.  A seeded walk drives a server with dedup on
// through inserts (evicted ids included), hits, capacity changes down to
// 0 and back, checkpoints and restarts, on a volatile and a durable
// node.  At every step each hit must return the model's reply, and a
// durable node's reply stream must decode to exactly the model's
// contents: eviction trims the stream, not the next checkpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

constexpr const char* kApp = R"(
class Service {
  ctor ()V {
    return
  }
}
)";

using Fifo = std::deque<std::pair<std::uint64_t, net::CallReply>>;

struct ReplyCacheModel : ::testing::Test {
    model::ClassPool original;
    std::unique_ptr<System> system;

    void make_system(bool durable) {
        system.reset();
        original = model::ClassPool();
        vm::install_prelude(original);
        model::assemble_into(original, kApp);
        model::verify_pool(original);
        SystemOptions options;
        options.durability.enabled = durable;
        options.reliability.dedup = true;
        system = std::make_unique<System>(original, options);
        system->add_node();  // 0: client
        system->add_node();  // 1: server
        system->policy().set_instance_home("Service", 1, "RMI");
    }

    Node& server() { return system->node(1); }

    std::uint64_t hits() { return system->metrics().counter("rpc.dedup_hits").value(); }

    /// A Create: every execution allocates a fresh object, so a cached
    /// reply and a re-execution return different oids.
    net::CallReply send_create(std::uint64_t request_id) {
        net::CallRequest req;
        req.kind = net::RequestKind::Create;
        req.cls = "Service";
        req.request_id = request_id;
        req.src_node = 0;
        RpcPath& path = system->rpc_path();
        return path.rpc(0, 1, path.protocol("RMI"), req);
    }

    /// The durable server's reply stream, decoded in order.
    Fifo stream() {
        WalImage img;
        EXPECT_TRUE(Wal::replay(server().wal()->replies(), img).clean);
        return Fifo(img.replies.begin(), img.replies.end());
    }

    void run(bool durable, std::uint64_t seed) {
        make_system(durable);
        std::size_t& capacity = system->rpc_path().reliability().dedup_capacity;
        capacity = 4;
        Fifo model;
        std::uint64_t restarts = 0;
        std::uint64_t lcg = seed;
        for (int step = 0; step < 1500; ++step) {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            const std::uint64_t draw = lcg >> 33;
            const std::uint64_t action = draw % 100;
            if (action < 80) {
                // Ids from a range a few capacities wide: some are cached,
                // some were evicted and execute again.
                const std::uint64_t id = 1 + (draw >> 8) % 24;
                const auto cached = std::find_if(model.begin(), model.end(),
                                                 [&](const auto& e) { return e.first == id; });
                const std::uint64_t hits_before = hits();
                const net::CallReply reply = send_create(id);
                if (capacity > 0 && cached != model.end()) {
                    ASSERT_EQ(hits(), hits_before + 1) << "step " << step << " id " << id;
                    ASSERT_EQ(reply, cached->second) << "step " << step << " id " << id;
                } else {
                    ASSERT_EQ(hits(), hits_before) << "step " << step << " id " << id;
                    if (cached != model.end()) {
                        ASSERT_NE(reply.result.ref_oid, cached->second.result.ref_oid)
                            << "step " << step << " id " << id;
                    }
                    if (capacity > 0) {
                        while (model.size() >= capacity) model.pop_front();
                        model.emplace_back(id, reply);
                    }
                }
            } else if (action < 88) {
                constexpr std::size_t kCapacities[] = {0, 1, 2, 3, 5, 8};
                capacity = kCapacities[(draw >> 8) % std::size(kCapacities)];
            } else if (action < 94) {
                server().take_snapshot();
            } else {
                server().apply_restarts(++restarts);
                if (!durable) model.clear();
                while (model.size() > capacity) model.pop_front();
            }
            if (durable) {
                ASSERT_EQ(stream(), model) << "step " << step;
            }
        }
        if (durable) {
            EXPECT_EQ(server().wal()->stats().recoveries, restarts);
        }
    }
};

TEST_F(ReplyCacheModel, VolatileNodeMatchesTheReferenceFifo) {
    run(/*durable=*/false, 0x5EED1);
}

TEST_F(ReplyCacheModel, DurableNodeMatchesTheReferenceFifo) {
    run(/*durable=*/true, 0x5EED2);
}

TEST_F(ReplyCacheModel, HitAfterManyEvictionsReturnsTheOriginalReply) {
    // 64 live replies while 2,000 are evicted: the stream compacts its
    // dead prefix many times, and each survivor is still found and decoded
    // as it was first cached, on either kind of node.
    for (const bool durable : {false, true}) {
        make_system(durable);
        system->rpc_path().reliability().dedup_capacity = 64;
        Fifo model;
        for (std::uint64_t id = 1; id <= 2064; ++id) {
            model.emplace_back(id, send_create(id));
            if (model.size() > 64) model.pop_front();
        }
        const std::uint64_t before = hits();
        for (const auto& [id, reply] : model) EXPECT_EQ(send_create(id), reply) << id;
        EXPECT_EQ(hits(), before + 64);
        if (durable) {
            EXPECT_EQ(stream(), model);
        }
    }
}

}  // namespace
}  // namespace rafda::runtime
