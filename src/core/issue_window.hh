/**
 * @file
 * Hot per-slot state of the issue window: the scheduler's bit planes
 * and the structure-of-arrays slot fields the pipeline phases read
 * every cycle. The per-slot cold record (timestamps, latencies,
 * characterization bookkeeping) lives in slot_record.hh.
 *
 *  - occupancy / ready / issued / highPrio: one bit per window slot.
 *    The ready plane is the one record of which unissued entries are
 *    scheduler-ready; select is a tzcnt scan of it in age order
 *    (containers.hh scan helpers). The issued plane holds every
 *    issued entry until it commits or is squashed; the replay-shadow
 *    candidates of squash recovery are its members whose
 *    completeCycle has not passed. highPrio caches the
 *    loads-and-branches-first select class, fixed at dispatch, so
 *    each select pass scans only its own class (ready & highPrio,
 *    then ready & ~highPrio).
 *
 *  - dep[2]: the dependency matrix, one producer -> consumers
 *    bit-vector per window slot and source-operand plane. Bit s of
 *    dep[k].row(p) means window slot s's operand k names the
 *    instruction in slot p as its producer. A broadcast visits
 *    row(p) with one OR of a few words; an instruction's two
 *    scheduling operands always name distinct producers (one
 *    destination per instruction), so a consumer appears in at most
 *    one plane per producer.
 *
 *  - slowPend: the sequential-wakeup slow plane. The fast broadcast
 *    records here which consumers still owe their tag match to the
 *    slow bus (the slow-side operands); the SlowWake event one
 *    cycle later ORs exactly those bits back through the ready-plane
 *    update instead of re-walking every consumer.
 *
 *  - WindowSlots: seq, issue token, issue/complete/wake-broadcast
 *    cycles and the record pointer, one array per field, plus the
 *    hot per-slot operand record (SlotOperands) that wakeup, repair,
 *    the readiness predicate and read-port counting touch.
 *    Completion is slot state, not an event: completeCycle is set
 *    at every (re)issue, and an entry is complete once the cycle has
 *    passed it.
 *
 * Lifetime invariant (why no seq-staleness checks are needed on the
 * wake path): commit is in order and a consumer is strictly
 * younger than its producer, so while a producer is in the window
 * every one of its dependency bits still names the consumer it was
 * set for — and that consumer's operand names exactly this producer.
 * A producer's rows are cleared when its slot is re-dispatched
 * (clearProducer); the stale rows a committed slot leaves behind are
 * harmless in between, because only an in-window producer's rows are
 * ever scanned, and a consumer bit cannot go stale while its
 * producer is still in the window (the strictly younger consumer
 * commits later).
 *
 * The oracle for these planes is Core::planeDivergence(): it
 * re-derives the ready/issued/occupancy sets and the store ring by
 * brute force from the slot state and checks that every in-window
 * producer -> consumer dependence has its dep bit (ReadyMaskFuzz and
 * --check-interval run it).
 *
 * Everything lives in flat vectors sized once at reset();
 * steady-state operation is allocation-free (test_hotpath_alloc).
 */

#ifndef HPA_CORE_ISSUE_WINDOW_HH
#define HPA_CORE_ISSUE_WINDOW_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/containers.hh"

namespace hpa::func
{
struct ExecRecord;
}

namespace hpa::core
{

/** Invalid cycle sentinel. */
constexpr uint64_t NO_CYCLE = ~0ull;
/** Invalid sequence number sentinel; also the seq of an empty or
 *  committed window slot, so seq[slot] == s means s is in the
 *  window at that slot. */
constexpr uint64_t NO_SEQ = ~0ull;

/** One bit per window slot, with age-ordered scans. */
class SlotMask
{
  public:
    void
    reset(unsigned slots)
    {
        slots_ = slots;
        words_.assign(wordCount(slots), 0);
    }

    bool
    test(unsigned s) const
    {
        return (words_[s >> 6] >> (s & 63)) & 1;
    }

    void set(unsigned s) { words_[s >> 6] |= uint64_t(1) << (s & 63); }

    void
    clear(unsigned s)
    {
        words_[s >> 6] &= ~(uint64_t(1) << (s & 63));
    }

    /** Test-only corruption hook: toggle membership of @p s, which
     *  diverges from the re-derived window state whichever way the
     *  bit was. */
    void
    testFlip(unsigned s)
    {
        words_[s >> 6] ^= uint64_t(1) << (s & 63);
    }

    const uint64_t *words() const { return words_.data(); }
    unsigned capacity() const { return slots_; }

    /** Number of members (cold diagnostics). */
    unsigned
    count() const
    {
        unsigned n = 0;
        for (uint64_t w : words_)
            n += unsigned(std::popcount(w));
        return n;
    }

    /** Visit members in age order from @p head; @p fn(slot) returns
     *  false to stop. */
    template <typename Fn>
    void
    forEachFrom(unsigned head, Fn &&fn) const
    {
        scanSetBitsFrom(words_.data(), slots_, head, fn);
    }

    /** Materialize the members in age order (cold diagnostics). */
    std::vector<unsigned>
    toVector(unsigned head) const
    {
        std::vector<unsigned> v;
        forEachFrom(head, [&](unsigned s) {
            v.push_back(s);
            return true;
        });
        return v;
    }

    static size_t
    wordCount(unsigned slots)
    {
        return (size_t(slots) + 63) / 64;
    }

  private:
    std::vector<uint64_t> words_;
    unsigned slots_ = 0;
};

/** One slot-mask row per window slot, stored flat. */
class DepMatrix
{
  public:
    void
    reset(unsigned slots)
    {
        slots_ = slots;
        rowWords_ = SlotMask::wordCount(slots);
        bits_.assign(rowWords_ * slots, 0);
    }

    const uint64_t *
    row(unsigned slot) const
    {
        return bits_.data() + size_t(slot) * rowWords_;
    }

    void
    set(unsigned row_slot, unsigned bit)
    {
        bits_[size_t(row_slot) * rowWords_ + (bit >> 6)] |=
            uint64_t(1) << (bit & 63);
    }

    bool
    test(unsigned row_slot, unsigned bit) const
    {
        return (bits_[size_t(row_slot) * rowWords_ + (bit >> 6)]
                >> (bit & 63))
            & 1;
    }

    void
    clearRow(unsigned row_slot)
    {
        uint64_t *r = bits_.data() + size_t(row_slot) * rowWords_;
        for (size_t i = 0; i < rowWords_; ++i)
            r[i] = 0;
    }

  private:
    std::vector<uint64_t> bits_;
    size_t rowWords_ = 0;
    unsigned slots_ = 0;
};

/** The issue window's full plane set, sized to the window. */
struct IssueWindowMasks
{
    SlotMask occupancy; ///< in-window slots (dispatch .. commit)
    SlotMask ready;     ///< unissued, scheduler-ready (select scan)
    SlotMask issued;    ///< issued, until commit or squash
    SlotMask highPrio;  ///< loads/branches (pass-0 select class)
    DepMatrix dep[2];   ///< producer -> consumers, per operand plane
    DepMatrix slowPend; ///< slow-bus re-delivery plane (seq wakeup)

    void
    reset(unsigned slots)
    {
        occupancy.reset(slots);
        ready.reset(slots);
        issued.reset(slots);
        highPrio.reset(slots);
        dep[0].reset(slots);
        dep[1].reset(slots);
        slowPend.reset(slots);
    }

    /** Drop every dependency bit owned by @p slot (slot reuse at
     *  dispatch). */
    void
    clearProducer(unsigned slot)
    {
        dep[0].clearRow(slot);
        dep[1].clearRow(slot);
        slowPend.clearRow(slot);
    }
};

/** Wakeup state of one scheduling source operand. */
struct SrcOperand
{
    /** Cycle the value is available (scoreboard view): the
     *  producer's broadcast, or the insert cycle for a register-file
     *  value. NO_CYCLE until then. */
    uint64_t dataReadyCycle = NO_CYCLE;
    /** Tag match observed (per-model bus timing applied); implies
     *  the value is available. */
    bool ready = false;
    /** Sequential wakeup: the operand listens to the slow bus. */
    bool slowSide = false;
    /** Tag elimination: the operand has a comparator on the bus. */
    bool watched = true;
    /** Operand prefetch buffer holds the value (PrefetchBuffer RF
     *  policy): costs no issue-time read port. Only set for operands
     *  with no in-flight producer, so replay repair can never
     *  invalidate a prefetched value. */
    bool prefetched = false;
    /** Named an in-flight producer at insert: the value arrives on a
     *  broadcast (bypass-capturable), not from the register file. */
    bool fromProducer = false;

    bool dataReady() const { return dataReadyCycle != NO_CYCLE; }
};

/** The hot per-slot record: both scheduling operands and the
 *  readiness flags. Wakeup, replay repair, the readiness predicate
 *  and read-port counting read nothing else of a consumer. */
struct SlotOperands
{
    SrcOperand src[2];
    /** Scheduling operands (unique, non-zero source registers). */
    uint8_t numSrc = 0;
    /** Tag elimination: after a mis-schedule the scoreboard gates
     *  re-issue on full operand availability. */
    bool requireDataReady = false;
    /** Two operands were pending at insert and the second data
     *  wakeup has not arrived yet: the last-arrival bookkeeping
     *  (SlotCold) is still open. */
    bool lapOpen = false;
};
// The stride select, wakeup and repair walk; a new field must earn
// its bytes here or go to the cold record (slot_record.hh).
static_assert(sizeof(SlotOperands) == 40,
              "hot per-slot operand record grew");

/** Hot per-slot fields, one array per field, sized to the window. */
struct WindowSlots
{
    /** Committed-path record; points into the instruction source's
     *  stable storage (see InstSource's lifetime contract). */
    std::vector<const func::ExecRecord *> rec;
    /** NO_SEQ while the slot is empty (never dispatched or
     *  committed). */
    std::vector<uint64_t> seq;
    /** Incremented on every (re)issue and squash; cancels stale
     *  events. */
    std::vector<uint32_t> issueToken;
    /** Cycle of the latest issue (valid while issued). */
    std::vector<uint64_t> issueCycle;
    /** Cycle the value is bypassed (execution done), set at every
     *  issue; NO_CYCLE while unissued. */
    std::vector<uint64_t> completeCycle;
    /** Cycle the destination tag broadcasts on the fast bus (the
     *  issue cycle when nothing broadcasts); NO_CYCLE while
     *  unissued. */
    std::vector<uint64_t> wakeCycle;
    std::vector<SlotOperands> ops;

    void
    reset(unsigned slots)
    {
        rec.assign(slots, nullptr);
        seq.assign(slots, NO_SEQ);
        issueToken.assign(slots, 0);
        issueCycle.assign(slots, NO_CYCLE);
        completeCycle.assign(slots, NO_CYCLE);
        wakeCycle.assign(slots, NO_CYCLE);
        ops.assign(slots, SlotOperands{});
    }
};

} // namespace hpa::core

#endif // HPA_CORE_ISSUE_WINDOW_HH
