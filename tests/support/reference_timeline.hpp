// Reference timeline: the virtual-time rules for clients calling one
// server, stated from scratch as an oracle for System runs.  It shares no
// code with src/: from link parameters, frame sizes and the codec's cost
// rate it computes when each request is sent, arrives, starts service,
// dispatches and has its reply arrive.
//
// The rules it states:
//   * Each directed link is a pipe.  A frame departs when the channel is
//     free, holds it for size/bandwidth and arrives one latency later.
//     Frames sent before the channel frees up form a chain whose charged
//     serialization is the rounded running total of the exact times, so
//     sub-µs frames add up; a frame sent to an idle channel opens a new
//     chain.  A lost frame is timed like any other, and its loss is seen
//     when it would have arrived.
//   * Codec CPU for an n-byte frame is llround(2 · rate · n / 1000) µs;
//     the encoding node pays the floor half and the decoding node the rest.
//   * The server serves requests one at a time in arrival order (ties by
//     client, then call), starting each at max(arrival, server free).
//   * A client runs its calls in bursts of up to `depth`.  A burst of one
//     waits for its reply, then decodes it.  In a longer burst the client
//     encodes, sends and decodes each call without waiting, and waits once
//     at the end for the latest reply.  A lost request ends its call: the
//     client's clock moves to the loss time, inside a burst too.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

namespace rafda::reference {

/// One directed pipe link.
struct PipeLink {
    std::uint64_t latency_us = 100;
    double bytes_per_us = 125.0;  // 0: serialization is free
    /// The open chain of back-to-back frames: when it started and the
    /// exact serialization time sent in it so far.
    std::uint64_t chain_start_us = 0;
    double chain_exact_us = 0.0;

    /// When the channel is free, in whole microseconds.
    std::uint64_t free_us() const {
        return chain_start_us + static_cast<std::uint64_t>(std::llround(chain_exact_us));
    }

    struct Hop {
        std::uint64_t depart_us;
        std::uint64_t arrive_us;
    };
    Hop send(std::uint64_t t_us, std::size_t bytes) {
        const std::uint64_t depart = std::max(t_us, free_us());
        if (static_cast<double>(t_us) >=
            static_cast<double>(chain_start_us) + chain_exact_us) {
            chain_start_us = t_us;  // idle channel: a new chain
            chain_exact_us = 0.0;
        }
        if (bytes_per_us > 0) chain_exact_us += static_cast<double>(bytes) / bytes_per_us;
        return {depart, free_us() + latency_us};
    }
};

/// A codec's CPU cost rate.
struct CodecCost {
    double ns_per_byte = 0.5;
    std::uint64_t total(std::size_t bytes) const {
        return static_cast<std::uint64_t>(
            std::llround(2.0 * ns_per_byte * static_cast<double>(bytes) / 1000.0));
    }
    std::uint64_t encode(std::size_t bytes) const { return total(bytes) / 2; }
    std::uint64_t decode(std::size_t bytes) const { return total(bytes) - encode(bytes); }
};

struct Call {
    std::size_t request_bytes = 0;
    std::size_t reply_bytes = 0;
    bool request_lost = false;
};

struct Client {
    PipeLink up;    // client -> server
    PipeLink down;  // server -> client
    std::uint64_t clock_us = 0;  // when the first call starts encoding
    std::size_t depth = 1;
    std::vector<Call> calls;
};

/// One call's timeline.  A lost request has only send_us and arrive_us
/// (the loss time).
struct Request {
    std::uint64_t send_us = 0;
    std::uint64_t arrive_us = 0;
    std::uint64_t service_us = 0;   // the server starts decoding
    std::uint64_t dispatch_us = 0;  // decoded: the method runs
    std::uint64_t reply_us = 0;     // the reply reaches the client
    bool lost = false;
};

struct Timeline {
    std::vector<std::vector<Request>> requests;  // [client][call]
    std::vector<std::uint64_t> finish_us;        // each client's last clock
};

inline Timeline run(std::vector<Client> clients, std::uint64_t server_clock_us,
                    CodecCost codec) {
    const std::size_t n = clients.size();
    Timeline out;
    out.requests.resize(n);
    for (std::size_t c = 0; c < n; ++c) out.requests[c].resize(clients[c].calls.size());
    std::vector<std::size_t> next(n, 0), outstanding(n, 0);
    std::vector<bool> pipelined(n, false);
    std::vector<std::uint64_t> horizon(n, 0);
    // Sent, not yet served: (arrival, client, call).
    std::set<std::tuple<std::uint64_t, std::size_t, std::size_t>> pending;

    // Sends client c's next burst; a burst whose requests were all lost
    // ends at once, and the next one follows.
    auto send_burst = [&](std::size_t c) {
        Client& cl = clients[c];
        while (next[c] < cl.calls.size() && outstanding[c] == 0) {
            const std::size_t burst =
                std::min(std::max<std::size_t>(1, cl.depth), cl.calls.size() - next[c]);
            pipelined[c] = burst > 1;
            horizon[c] = 0;
            for (std::size_t k = 0; k < burst; ++k, ++next[c]) {
                const Call& call = cl.calls[next[c]];
                Request& r = out.requests[c][next[c]];
                cl.clock_us += codec.encode(call.request_bytes);
                r.send_us = cl.clock_us;
                r.arrive_us = cl.up.send(r.send_us, call.request_bytes).arrive_us;
                if (call.request_lost) {
                    r.lost = true;
                    cl.clock_us = std::max(cl.clock_us, r.arrive_us);
                    continue;
                }
                pending.insert({r.arrive_us, c, next[c]});
                ++outstanding[c];
                if (pipelined[c]) cl.clock_us += codec.decode(call.reply_bytes);
            }
        }
    };
    for (std::size_t c = 0; c < n; ++c) send_burst(c);

    std::uint64_t server = server_clock_us;
    while (!pending.empty()) {
        const auto [arrive, c, i] = *pending.begin();
        pending.erase(pending.begin());
        Client& cl = clients[c];
        const Call& call = cl.calls[i];
        Request& r = out.requests[c][i];
        r.service_us = std::max(arrive, server);
        r.dispatch_us = r.service_us + codec.decode(call.request_bytes);
        server = r.dispatch_us + codec.encode(call.reply_bytes);
        r.reply_us = cl.down.send(server, call.reply_bytes).arrive_us;
        if (pipelined[c])
            horizon[c] = std::max(horizon[c], r.reply_us);
        else
            cl.clock_us = std::max(cl.clock_us, r.reply_us) + codec.decode(call.reply_bytes);
        if (--outstanding[c] == 0) {
            if (pipelined[c]) cl.clock_us = std::max(cl.clock_us, horizon[c]);
            send_burst(c);
        }
    }
    for (const Client& cl : clients) out.finish_us.push_back(cl.clock_us);
    return out;
}

}  // namespace rafda::reference
