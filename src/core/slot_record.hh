/**
 * @file
 * Cold per-slot state of an in-window instruction: what only
 * dispatch, issue, the rare recovery paths, the characterization
 * statistics and the commit listener read. The hot state that
 * select, wakeup and commit walk every cycle is structure-of-arrays
 * in issue_window.hh.
 */

#ifndef HPA_CORE_SLOT_RECORD_HH
#define HPA_CORE_SLOT_RECORD_HH

#include <cstdint>

#include "core/issue_window.hh"
#include "func/emulator.hh"

namespace hpa::core
{

/** The cold per-slot record. Dispatch writes only the fields the
 *  new tenant reads; each field below says when it is set. */
struct SlotCold
{
    // --- Set at dispatch. ---
    uint64_t fetchCycle = NO_CYCLE;
    uint64_t dispatchCycle = NO_CYCLE;
    /** In-flight producer of each scheduling operand, NO_SEQ when
     *  the value came from the register file (selective-recovery
     *  taint, plane cross-check). */
    uint64_t producerSeq[2] = {NO_SEQ, NO_SEQ};
    /** Stores: in-flight producer of the store-data register (gates
     *  store-to-load forwarding; not a scheduling operand). */
    uint64_t storeDataProducerSeq = NO_SEQ;
    int storeDataProducerSlot = -1;
    /** Format position: the operand came from the left (ra) field. */
    bool leftField[2] = {true, true};
    /** The operand's value was available at insert. */
    bool readyAtInsert[2] = {false, false};

    // --- Last-arrival bookkeeping (Figures 6, 7, 14; Table 3), set
    //     at dispatch and read only while SlotOperands::lapOpen. ---
    /** Main predictor's prediction: true = right field last. */
    bool predRightLast = false;
    /** Shadow predictor predictions per monitored table size. */
    uint8_t shadowPredBits = 0;
    /** Number of operand data-wakeups observed so far. */
    uint8_t wakesSeen = 0;
    /** The first data wakeup was the left-field operand. */
    bool firstWakeWasLeft = false;
    /** Data-arrival cycle of the first operand wakeup. */
    uint64_t firstWakeCycle = NO_CYCLE;

    // --- Set at every issue. ---
    /** Actual execution latency. */
    unsigned latency = 1;
    /** Actual memory-system latency (loads). */
    unsigned memLatency = 0;
    /** Issued with the sequential-register-access penalty. */
    bool seqRegAccess = false;
    /** Load issued assuming a DL1 hit but missed. */
    bool loadMissReplay = false;
    /** Tag elimination: issued before an unwatched operand was
     *  data-ready (mis-schedule); cleared by the squash. */
    bool tagElimMisissue = false;
};

/** What a commit listener sees of a retiring instruction: its
 *  record and its full pipeline timestamps. */
struct CommittedInst
{
    const func::ExecRecord *rec;
    uint64_t seq;
    uint64_t fetchCycle;
    uint64_t dispatchCycle;
    uint64_t issueCycle;
    uint64_t completeCycle;
    /** Bumped at every issue and every squash, so a replayed
     *  instruction retires with a value above 1. */
    uint32_t issueToken;
    bool seqRegAccess;
    bool loadMissReplay;
};

} // namespace hpa::core

#endif // HPA_CORE_SLOT_RECORD_HH
