/**
 * @file
 * Calendar event queue for the core's cycle-indexed event machinery:
 * a power-of-2 ring of per-cycle buckets (reused vectors, so the
 * steady state allocates nothing) plus an ordered overflow map for
 * events scheduled further ahead than the ring spans. Replaces the
 * red-black-tree std::map<cycle, vector<Event>> on the per-cycle hot
 * path: schedule and drain become an index into the ring instead of
 * a tree walk with node allocation/rebalancing.
 *
 * Buckets are split by delivery rank (NumRanks vectors per cycle
 * slot, rank fixed at schedule time), so draining a cycle is one
 * pass per rank over exactly that rank's events — no per-event rank
 * compares, and no re-scanning the whole bucket once per rank class
 * as the flat layout required.
 *
 * Ordering invariants (the core's bit-identity depends on these):
 *  - Per cycle, events are delivered rank-ascending, and in global
 *    schedule order within a rank. Ring appends preserve the
 *    within-rank order trivially. Overflow entries for cycle c are
 *    only ever scheduled while c is out of ring range (c - now >
 *    mask) and are migrated into the ring by beginCycle() at the
 *    first cycle where c enters range — before any in-range
 *    schedule for c can happen — so migrated entries always precede
 *    ring-path entries, matching schedule order.
 *  - A bucket only ever holds events for one cycle: entries for
 *    cycle c are drained at cycle c, and the earliest a schedule can
 *    target c + ring_size (the same slot) is cycle c itself, which
 *    lands in the overflow map (distance == ring_size > mask).
 *  - The bucket being drained is never appended to: schedules target
 *    strictly-future cycles, and for 1 <= when - now <= mask the
 *    slot index (when & mask) never equals (now & mask).
 */

#ifndef HPA_CORE_EVENT_QUEUE_HH
#define HPA_CORE_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
// hpa-nolint(HPA002): overflow map for beyond-horizon events only
#include <map>
#include <vector>

namespace hpa::core
{

template <typename T, unsigned NumRanks = 1>
class CalendarQueue
{
  public:
    /** One cycle's events, one vector per delivery rank. */
    using Bucket = std::array<std::vector<T>, NumRanks>;

    /** @param log2_slots ring size as a power of 2. The default 256
     *  covers every default-config event horizon (memory latency +
     *  L2 + L1 + sched-to-exec is ~65 cycles); longer latencies are
     *  still exact, they just route through the overflow map. */
    explicit CalendarQueue(unsigned log2_slots = 8)
        : slots_(size_t(1) << log2_slots),
          mask_((uint64_t(1) << log2_slots) - 1)
    {}

    /** Pre-size every ring bucket. clear() keeps capacity, so a
     *  bucket never shrinks — but it starts at zero and would
     *  otherwise learn its high-water mark through reallocation,
     *  which leaks allocations into steady-state ticks long after
     *  warm-up (test_hotpath_alloc counts them). A bound-derived
     *  reserve at construction makes the zero-allocation claim
     *  structural instead of empirical. */
    void
    reserveSlots(size_t per_slot)
    {
        for (auto &s : slots_)
            for (auto &r : s)
                r.reserve(per_slot);
    }

    /** Append @p ev for cycle @p when at delivery rank @p rank;
     *  @p now is the current cycle and @p when must be strictly in
     *  the future. */
    void
    schedule(uint64_t when, uint64_t now, const T &ev,
             unsigned rank = 0)
    {
        ++pending_;
        ++scheduled_;
        if (when - now <= mask_)
            slots_[when & mask_][rank].push_back(ev);
        else
            overflow_[when][rank].push_back(ev);
    }

    /**
     * Advance to cycle @p now: migrate far-future events that just
     * came into ring range, then return @p now's bucket for
     * processing. Must be called once per cycle, before any
     * schedule() at that cycle, and followed by endCycle() once the
     * bucket has been handled. The reference stays valid while
     * handlers schedule new events (they can never land in it).
     */
    Bucket &
    beginCycle(uint64_t now)
    {
        while (!overflow_.empty()
               && overflow_.begin()->first - now <= mask_) {
            auto it = overflow_.begin();
            Bucket &dst = slots_[it->first & mask_];
            for (unsigned r = 0; r < NumRanks; ++r)
                dst[r].insert(dst[r].end(), it->second[r].begin(),
                              it->second[r].end());
            overflow_.erase(it);
        }
        return slots_[now & mask_];
    }

    /** Release cycle-@p now's processed bucket (keeps capacity). */
    void
    endCycle(uint64_t now)
    {
        Bucket &b = slots_[now & mask_];
        for (auto &r : b) {
            pending_ -= r.size();
            r.clear();
        }
    }

    /** Events scheduled and not yet drained. */
    size_t pending() const { return pending_; }

    /** Events scheduled since construction (an exact work count). */
    uint64_t scheduled() const { return scheduled_; }

    /** Events currently parked beyond the ring horizon. */
    size_t
    overflowPending() const
    {
        size_t n = 0;
        for (const auto &[when, evs] : overflow_)
            for (const auto &r : evs)
                n += r.size();
        return n;
    }

  private:
    std::vector<Bucket> slots_;
    uint64_t mask_;
    size_t pending_ = 0;
    uint64_t scheduled_ = 0;
    /** when -> events, for when - now > mask_ at schedule time.
     *  Only touched when an event outruns the 256-cycle ring horizon
     *  (the default config never does); correctness needs the
     *  ordered walk in beginCycle(). */
    // hpa-nolint(HPA002): beyond-horizon overflow path, not per-cycle
    std::map<uint64_t, Bucket> overflow_;
};

} // namespace hpa::core

#endif // HPA_CORE_EVENT_QUEUE_HH
