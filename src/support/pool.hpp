// BufferPool — a free-list pool of message buffers for the RPC hot path —
// and DepthStack, one reusable object per nesting depth of a re-entrant
// call path (the RPC path's decoded and outgoing requests, a node's
// imported arguments; DESIGN.md §11).
//
// Every remote call used to allocate (and free) a fresh std::vector for
// the request frame and another for the reply; at steady state those
// vectors have the same handful of sizes, so the allocations are pure
// churn.  The pool keeps retired buffers on a LIFO free list (the
// most-recently-used buffer is the one whose capacity — and cache lines —
// best fit the next message) and hands them back cleared but with their
// grown capacity intact, so encode paths that write through a borrowed
// ByteWriter stop allocating entirely once the working set has warmed up
// (DESIGN.md §17; the object-pool idiom follows viper's rt_pool).
//
// The pool is intentionally single-threaded, like the simulator itself:
// the RPC path is host-sequential even when the workload is concurrent in
// virtual time.  Nested leases (a dispatch that issues nested RPCs while
// its own frames are live) simply deepen the pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "support/bytes.hpp"

namespace rafda::support {

class BufferPool {
public:
    /// `max_retained` bounds the free list; buffers released beyond it
    /// are genuinely freed so a one-off burst cannot pin memory forever.
    explicit BufferPool(std::size_t max_retained = 32)
        : max_retained_(max_retained) {}

    /// An empty buffer, reusing retained capacity when available.
    Bytes acquire() {
        ++acquires_;
        if (free_.empty()) return Bytes{};
        ++reuses_;
        Bytes b = std::move(free_.back());
        free_.pop_back();
        b.clear();
        return b;
    }

    /// Retires a buffer, keeping its capacity for the next acquire().
    void release(Bytes&& b) {
        if (free_.size() < max_retained_ && b.capacity() > 0)
            free_.push_back(std::move(b));
    }

    /// Total acquire() calls (pool traffic).
    std::uint64_t acquires() const noexcept { return acquires_; }
    /// Acquires served from the free list instead of a fresh allocation.
    std::uint64_t reuses() const noexcept { return reuses_; }
    /// Buffers currently parked on the free list.
    std::size_t retained() const noexcept { return free_.size(); }

private:
    std::size_t max_retained_;
    std::vector<Bytes> free_;
    std::uint64_t acquires_ = 0;
    std::uint64_t reuses_ = 0;
};

/// RAII lease of one pooled buffer: acquired on construction, returned on
/// destruction.  Typical use wraps it in a borrowing ByteWriter:
///
///   PooledBuffer frame(pool);
///   ByteWriter w(frame.bytes());
///   codec.encode_request_into(req, w);   // writes into the pooled frame
class PooledBuffer {
public:
    explicit PooledBuffer(BufferPool& pool) : pool_(&pool), buf_(pool.acquire()) {}
    ~PooledBuffer() {
        if (pool_) pool_->release(std::move(buf_));
    }
    PooledBuffer(PooledBuffer&& other) noexcept
        : pool_(other.pool_), buf_(std::move(other.buf_)) {
        other.pool_ = nullptr;
    }
    PooledBuffer(const PooledBuffer&) = delete;
    PooledBuffer& operator=(const PooledBuffer&) = delete;
    PooledBuffer& operator=(PooledBuffer&&) = delete;

    Bytes& bytes() noexcept { return buf_; }
    const Bytes& bytes() const noexcept { return buf_; }

private:
    BufferPool* pool_;
    Bytes buf_;
};

/// One reusable object per nesting depth of a re-entrant call path.  A
/// path that may run again while its own object is still in use — a
/// callee's guest code making a nested RPC while its decoded request is
/// live — leases the object of its depth, and a warm call finds the
/// capacity the last lease at that depth left behind.  Entries never
/// move, so a live lease stays valid while deeper ones grow the stack;
/// nothing is allocated before the first lease.
///
///   support::DepthStack<net::CallRequest> decoded;
///   auto req = decoded.lease();   // this depth's request
///   codec.decode_request_into(frame, *req);
template <class T>
class DepthStack {
public:
    class Lease {
    public:
        explicit Lease(DepthStack& stack) : stack_(stack), obj_(stack.enter()) {}
        ~Lease() { --stack_.depth_; }
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;

        T& operator*() const noexcept { return obj_; }
        T* operator->() const noexcept { return &obj_; }

    private:
        DepthStack& stack_;
        T& obj_;
    };

    /// The object for the current depth, held until the lease ends.
    Lease lease() { return Lease(*this); }

private:
    T& enter() {
        if (depth_ == slots_.size()) slots_.push_back(std::make_unique<T>());
        return *slots_[depth_++];
    }

    std::vector<std::unique_ptr<T>> slots_;
    std::size_t depth_ = 0;
};

}  // namespace rafda::support
