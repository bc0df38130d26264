// Reliability policy for the RPC path (DESIGN.md §15).
//
// The defaults are the legacy at-most-once semantics: one attempt, no
// deadline, no dedup, no breaker — every knob here is opt-in, so existing
// experiments (and their wire traffic) are untouched until a caller or a
// `.cfg` policy file turns something on.
#pragma once

#include <cstdint>
#include <string>

namespace rafda::runtime {

struct RetryPolicy {
    /// Total attempts per logical call; 1 = legacy fail-on-first-loss.
    std::uint32_t attempts = 1;
    /// Delay before retry k (k >= 1) is base * multiplier^(k-1), clamped
    /// to `backoff_cap_us`, plus a jitter draw in [0, jitter_us] from a
    /// dedicated seeded stream (deterministic across replays).
    std::uint64_t backoff_base_us = 200;
    double backoff_multiplier = 2.0;
    std::uint64_t backoff_cap_us = 20'000;
    std::uint64_t jitter_us = 0;
    /// System-wide retry budget: total retries allowed across all calls
    /// (0 = unlimited).  A budget stops retry storms from amplifying an
    /// outage: once spent, failures surface immediately.
    std::uint64_t retry_budget = 0;
    /// Per-call deadline in virtual µs, measured from the first attempt
    /// (0 = none).  Carried on the wire as an absolute time so the callee
    /// can refuse to execute an already-expired request.
    std::uint64_t deadline_us = 0;
    /// Exactly-once upgrade: each node keeps a bounded request-id → reply
    /// cache, so a retry of an already-executed call replays the reply
    /// instead of re-executing (this is what makes reply-loss retries
    /// safe — see the §12 instance-leak discussion).
    bool dedup = false;
    std::size_t dedup_capacity = 1024;
    /// Circuit breaker, per (destination node, protocol): after
    /// `breaker_threshold` consecutive transport failures the breaker
    /// opens and calls fail fast (no wire traffic) until
    /// `breaker_cooldown_us` of virtual time has passed, when one
    /// half-open probe is allowed through.  0 = disabled.
    std::uint32_t breaker_threshold = 0;
    std::uint64_t breaker_cooldown_us = 10'000;
};

/// Per-link call batching for the RPC path (DESIGN.md §17).  Off by
/// default: with it off the wire schedule — and every E5/E8 byte — is
/// exactly the per-frame behaviour.  With it on, a request finding its
/// directed link still occupied by an earlier request frame of the same
/// protocol is appended to that frame as a compact continuation entry
/// (protocols without batch framing keep per-call frames and only share
/// the pooled buffers).  Batching changes *when* bytes travel, never
/// what executes: retries, dedup and deadlines see identical semantics
/// per logical call.
struct BatchPolicy {
    bool enabled = false;
    /// Calls per frame ceiling, opener included; a full frame forces the
    /// next call to open (and queue behind) a fresh frame.
    std::uint32_t max_frame_calls = 32;
};

/// Closed/open/half-open breaker state for one (node, protocol) edge.
/// RpcPath samples the state through a registry probe so `rafdac faults`
/// and tests can observe transitions without poking at internals.
struct CircuitBreaker {
    enum class State : std::int64_t { Closed = 0, Open = 1, HalfOpen = 2 };

    State state = State::Closed;
    std::uint32_t consecutive_failures = 0;
    std::uint64_t opened_at_us = 0;

    /// A reply came back (fault replies count too: the transport works).
    void record_success() {
        consecutive_failures = 0;
        state = State::Closed;
    }

    /// A transport-level failure (drop, down link, crashed node).
    /// Returns true when this failure opened (or re-opened) the breaker.
    bool record_failure(std::uint32_t threshold, std::uint64_t now_us) {
        ++consecutive_failures;
        if (state == State::HalfOpen ||
            (state == State::Closed && consecutive_failures >= threshold)) {
            opened_at_us = now_us;
            state = State::Open;
            return true;
        }
        return false;
    }
};

const char* breaker_state_name(CircuitBreaker::State s);

}  // namespace rafda::runtime
