/**
 * @file
 * Allocation-free window-sized containers for the core's hot path.
 *
 * BoundedRing replaces std::deque where the occupancy is bounded by
 * a configuration constant (store list <= window size, fetch queue
 * <= front-end depth x width): a fixed array with head/count
 * indices, so push/pop never touch the heap and traversal is a
 * dense sequential walk.
 *
 * The bit-plane scan helpers at the bottom are the traversal
 * primitives of the scheduler's issue-window planes
 * (issue_window.hh): the window is a FIFO ring, so scanning the two
 * segments [head, slots) then [0, head) visits set bits in age
 * (= seq = program) order, which is exactly the scheduler's
 * oldest-first priority. Each scan loads a word once and pops set
 * bits with countr_zero (tzcnt), so the per-visited-bit cost is a
 * few branch-free ALU ops instead of a pointer chase.
 */

#ifndef HPA_CORE_CONTAINERS_HH
#define HPA_CORE_CONTAINERS_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hpa::core
{

/** Fixed-capacity FIFO ring; the caller guarantees the bound. */
template <typename T>
class BoundedRing
{
  public:
    BoundedRing() = default;

    /** Discard contents and (re)allocate a fixed capacity. */
    void
    reset(size_t capacity)
    {
        buf_.assign(capacity, T{});
        head_ = 0;
        count_ = 0;
    }

    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }
    size_t capacity() const { return buf_.size(); }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    /** @p i-th element from the front (0 = oldest). */
    T &operator[](size_t i) { return buf_[wrap(head_ + i)]; }
    const T &operator[](size_t i) const
    {
        return buf_[wrap(head_ + i)];
    }

    void
    push_back(const T &v)
    {
        assert(count_ < buf_.size());
        buf_[wrap(head_ + count_)] = v;
        ++count_;
    }

    void
    pop_front()
    {
        assert(count_ > 0);
        head_ = wrap(head_ + 1);
        --count_;
    }

  private:
    /** head_ + i < 2 * capacity always, so one subtract suffices. */
    size_t
    wrap(size_t i) const
    {
        return i >= buf_.size() ? i - buf_.size() : i;
    }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t count_ = 0;
};

// --------------------------------------------------------------------
// Bit-plane scan primitives (issue_window.hh)
// --------------------------------------------------------------------

/** Visit the set bits of word array @p w inside [lo, hi) in
 *  ascending index order. @p fn(bit) returns false to stop.
 *  @return false when the callback stopped the scan. */
template <typename Fn>
inline bool
scanSetBits(const uint64_t *w, unsigned lo, unsigned hi, Fn &&fn)
{
    if (lo >= hi)
        return true;
    unsigned wlo = lo >> 6;
    unsigned whi = (hi - 1) >> 6;
    for (unsigned wi = wlo; wi <= whi; ++wi) {
        uint64_t word = w[wi];
        if (wi == wlo)
            word &= ~uint64_t(0) << (lo & 63);
        if (wi == whi && (hi & 63) != 0)
            word &= ~uint64_t(0) >> (64 - (hi & 63));
        while (word) {
            unsigned bit = unsigned(std::countr_zero(word));
            word &= word - 1;
            if (!fn(wi * 64 + bit))
                return false;
        }
    }
    return true;
}

/** Visit the set bits of @p w over a @p slots-entry ring in age
 *  order from @p head: segment [head, slots), then [0, head).
 *  @p fn(bit) returns false to stop early (select's width budget). */
template <typename Fn>
inline void
scanSetBitsFrom(const uint64_t *w, unsigned slots, unsigned head,
                Fn &&fn)
{
    if (scanSetBits(w, head, slots, fn))
        scanSetBits(w, 0, head, fn);
}

/** Like scanSetBitsFrom over the intersection a & b (or a & ~b when
 *  @p complement_b): select's priority-class split scans
 *  ready & highPrio then ready & ~highPrio, so neither pass visits
 *  the slots of the other class. @p fn(bit) returns false to
 *  stop early (the width budget). */
template <typename Fn>
inline void
scanSetBitsFromAnd(const uint64_t *a, const uint64_t *b,
                   bool complement_b, unsigned slots, unsigned head,
                   Fn &&fn)
{
    auto seg = [&](unsigned lo, unsigned hi) {
        if (lo >= hi)
            return true;
        unsigned wlo = lo >> 6;
        unsigned whi = (hi - 1) >> 6;
        for (unsigned wi = wlo; wi <= whi; ++wi) {
            uint64_t word = a[wi] & (complement_b ? ~b[wi] : b[wi]);
            if (wi == wlo)
                word &= ~uint64_t(0) << (lo & 63);
            if (wi == whi && (hi & 63) != 0)
                word &= ~uint64_t(0) >> (64 - (hi & 63));
            while (word) {
                unsigned bit = unsigned(std::countr_zero(word));
                word &= word - 1;
                if (!fn(wi * 64 + bit))
                    return false;
            }
        }
        return true;
    };
    if (seg(head, slots))
        seg(0, head);
}

/** Like scanSetBitsFrom over the union of two planes (the two
 *  operand rows of a producer's dependency vector): @p fn(bit, in_a,
 *  in_b) says which plane(s) held the bit, so the caller touches
 *  operand 0 before operand 1. */
template <typename Fn>
inline void
scanSetBitsFrom2(const uint64_t *a, const uint64_t *b, unsigned slots,
                 unsigned head, Fn &&fn)
{
    auto seg = [&](unsigned lo, unsigned hi) {
        if (lo >= hi)
            return;
        unsigned wlo = lo >> 6;
        unsigned whi = (hi - 1) >> 6;
        for (unsigned wi = wlo; wi <= whi; ++wi) {
            uint64_t wa = a[wi];
            uint64_t wb = b[wi];
            uint64_t word = wa | wb;
            if (wi == wlo)
                word &= ~uint64_t(0) << (lo & 63);
            if (wi == whi && (hi & 63) != 0)
                word &= ~uint64_t(0) >> (64 - (hi & 63));
            while (word) {
                unsigned bit = unsigned(std::countr_zero(word));
                uint64_t m = word & (~word + 1);
                word &= word - 1;
                fn(wi * 64 + bit, (wa & m) != 0, (wb & m) != 0);
            }
        }
    };
    seg(head, slots);
    seg(0, head);
}

} // namespace hpa::core

#endif // HPA_CORE_CONTAINERS_HH
