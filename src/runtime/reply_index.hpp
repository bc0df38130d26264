// ReplyIndex — a Wal's request-id index (DESIGN.md §15): request id ->
// the stable offset of the id's Reply record in the reply stream.
//
// Open addressing over a power-of-two table of (id, offset) slots with
// linear probing from a multiplicative hash of the id.  The table doubles
// before an insert would fill more than half of it, so probe runs stay
// short, and erase shifts the rest of its probe run back instead of
// leaving a tombstone, so a lookup stops at the first empty slot and the
// table never needs a cleanup pass.  Once the table has grown to the
// cache's size, inserting, erasing and clearing allocate nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rafda::runtime {

class ReplyIndex {
public:
    /// The offset stored under `id`, or null.  Valid until the next insert.
    const std::uint64_t* find(std::uint64_t id) const noexcept {
        if (size_ == 0) return nullptr;
        for (std::size_t i = home(id);; i = (i + 1) & mask()) {
            const Slot& s = slots_[i];
            if (s.empty()) return nullptr;
            if (s.id == id) return &s.offset;
        }
    }
    bool contains(std::uint64_t id) const noexcept { return find(id) != nullptr; }

    /// Maps `id` to `offset`, replacing an older mapping.  `offset` must
    /// not be kEmpty.
    void insert_or_assign(std::uint64_t id, std::uint64_t offset) {
        if (2 * (size_ + 1) > slots_.size()) grow();
        std::size_t i = home(id);
        for (; !slots_[i].empty(); i = (i + 1) & mask()) {
            if (slots_[i].id == id) {
                slots_[i].offset = offset;
                return;
            }
        }
        slots_[i] = {id, offset};
        ++size_;
    }

    /// Removes `id` if it maps to `offset`; true when it did.  The entries
    /// after it in its probe run that may take its slot move back one by
    /// one, so every entry stays reachable from its home slot.
    bool erase(std::uint64_t id, std::uint64_t offset) noexcept {
        if (size_ == 0) return false;
        std::size_t hole = home(id);
        for (;; hole = (hole + 1) & mask()) {
            const Slot& s = slots_[hole];
            if (s.empty()) return false;
            if (s.id == id) break;
        }
        if (slots_[hole].offset != offset) return false;
        for (std::size_t j = (hole + 1) & mask(); !slots_[j].empty(); j = (j + 1) & mask()) {
            // The entry at j may fill the hole when the hole lies on its
            // probe path: at least as far back from j as its home is.
            const std::size_t from_home = (j - home(slots_[j].id)) & mask();
            if (from_home >= ((j - hole) & mask())) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        --size_;
        return true;
    }

    /// Forgets every entry and keeps the table.
    void clear() noexcept {
        for (Slot& s : slots_) s = Slot{};
        size_ = 0;
    }
    std::size_t size() const noexcept { return size_; }

    /// The one offset no entry may hold: it marks an empty slot.
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

private:
    struct Slot {
        std::uint64_t id = 0;
        std::uint64_t offset = kEmpty;
        bool empty() const noexcept { return offset == kEmpty; }
    };

    std::size_t mask() const noexcept { return slots_.size() - 1; }
    /// Fibonacci hashing: the top bits of id * 2^64/phi, so consecutive
    /// ids (RpcPath numbers them so) land far apart.
    std::size_t home(std::uint64_t id) const noexcept {
        return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    void grow() {
        std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
        old.swap(slots_);
        shift_ = 64;
        for (std::size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
        size_ = 0;
        for (const Slot& s : old)
            if (!s.empty()) insert_or_assign(s.id, s.offset);
    }

    std::vector<Slot> slots_;  // empty, or a power of two of at least 16
    std::size_t size_ = 0;
    unsigned shift_ = 64;  // 64 - log2(slots_.size())
};

}  // namespace rafda::runtime
