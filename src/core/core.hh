/**
 * @file
 * Cycle-level out-of-order core implementing the paper's base machine
 * (speculative scheduling with non-selective recovery, RUU-style
 * unified window, Table 1 resources) and the half-price techniques:
 * sequential wakeup (Section 3.3), sequential register access
 * (Section 4.3), tag elimination (Section 3.1 reference scheme), the
 * extra-RF-stage and half-ports+crossbar register files (Section 5.2),
 * and selective recovery (Figure 5). Two follow-on designs,
 * load-delay-tracking wakeup and an operand-prefetch-buffer register
 * file, sit beside them. Like recovery and rename, the wakeup and
 * register-file organizations are CoreConfig enums: the constructor
 * reads them once into plain members, and dispatch writes the wakeup
 * scheme into each operand's slowSide/watched bits, which are all
 * later stages consult (see DESIGN.md "Policy API").
 *
 * Per-slot state is split by access frequency: the hot fields are
 * structure-of-arrays beside the bit planes (issue_window.hh), the
 * rest is one cold record per slot (slot_record.hh). Completion is
 * slot state: an instruction is complete once the cycle passes the
 * completeCycle set when it issued, so only wakeups and recovery
 * detections travel through the event calendar.
 *
 * Timing conventions (cycle numbers are select-eligibility times):
 *  - Wakeup and select are atomic: an instruction woken at cycle t can
 *    be selected at cycle t.
 *  - A producer selected at cycle s with effective latency L
 *    broadcasts on the fast bus at cycle s+L; slow-bus (sequential
 *    wakeup) consumers see the tag at s+L+1.
 *  - SCHED->EXE occupies schedToExec() stages; an op selected at s
 *    completes (value bypassed) at s + schedToExec() + L - 1.
 *  - Loads are scheduled assuming a DL1 hit (1 agen + DL1 latency);
 *    a miss squashes `replay_shadow` cycles of issue.
 */

#ifndef HPA_CORE_CORE_HH
#define HPA_CORE_CORE_HH

// hpa-nolint(HPA007): wall-clock watchdog support (setWallDeadline); guard-only
#include <chrono>
#include <functional>
#include <ostream>
// hpa-nolint(HPA002): wakeup-order history, bounded by static PCs
#include <unordered_map>
#include <vector>

#include "bpred/bpred.hh"
#include "core/config.hh"
#include "core/containers.hh"
#include "core/event_queue.hh"
#include "core/fu_pool.hh"
#include "core/inst_source.hh"
#include "core/issue_window.hh"
#include "core/last_arrival.hh"
#include "core/slot_record.hh"
#include "mem/hierarchy.hh"
#include "sim/error.hh"
#include "stats/stats.hh"

namespace hpa::core
{

/** Aggregate statistics exported by a core run. */
struct CoreStats
{
    stats::Counter committed{"core.committed", "committed instructions"};
    stats::Counter cycles{"core.cycles", "simulated cycles"};
    stats::Counter dispatched{"core.dispatched",
        "instructions inserted into the window"};
    stats::Counter issued{"core.issued",
        "issue events (including re-issues)"};
    stats::Counter squashedIssues{"core.squashed_issues",
        "issued instructions pulled back by recovery"};
    stats::Counter loadMissReplays{"core.load_miss_replays",
        "loads that triggered scheduling recovery"};
    stats::Counter tagElimMisissues{"core.tagelim_misissues",
        "tag-elimination premature issues"};
    stats::Counter seqRegAccesses{"core.seq_reg_accesses",
        "issues that took the sequential register access penalty"};
    stats::Counter seqWakeupDelayed{"core.seq_wakeup_delayed",
        "issues delayed because the last tag arrived on the slow bus"};
    stats::Counter renameStalls{"core.rename_stalls",
        "dispatch groups split by rename-port exhaustion"};
    stats::Counter branchMispredicts{"core.branch_mispredicts",
        "mispredicted control instructions"};
    stats::Counter fetchedControl{"core.fetched_control",
        "control instructions fetched"};

    // --- Characterization (Figures 2-4, 6, 10, Table 3). ---
    stats::Counter fmt2srcInsts{"fmt.two_source_format",
        "committed non-store 2-source-format instructions"};
    stats::Counter fmtStores{"fmt.stores", "committed stores"};
    stats::Counter fmtOther{"fmt.other",
        "committed 0/1-source-format instructions"};
    stats::Counter fmtNops{"fmt.nops",
        "2-source-format nops (zero-register destinations)"};
    stats::Counter fmtOneUnique{"fmt.one_unique",
        "2-source-format with one unique source (zero reg/identical)"};
    stats::Counter fmtTwoUnique{"fmt.two_unique",
        "2-source instructions (two unique non-zero sources)"};

    stats::Distribution readyAtInsert{"sched.ready_at_insert",
        "ready operands of 2-source insts at window insert", 2};
    stats::Distribution wakeupSlack{"sched.wakeup_slack",
        "cycles between the two operand wakeups (2-pending insts)", 4};

    stats::Counter orderSame{"sched.wakeup_order_same",
        "2-pending insts whose wakeup order matched last time at PC"};
    stats::Counter orderDiff{"sched.wakeup_order_diff",
        "2-pending insts whose wakeup order differed"};
    stats::Counter leftLast{"sched.left_last",
        "2-pending insts whose left operand arrived last"};
    stats::Counter rightLast{"sched.right_last",
        "2-pending insts whose right operand arrived last"};

    stats::Counter rfBackToBack{"rf.back_to_back",
        "2-source issues with >=1 operand off the bypass"};
    stats::Counter rfTwoReady{"rf.two_ready",
        "2-source issues needing 2 ports (both ready at insert)"};
    stats::Counter rfNonBackToBack{"rf.non_back_to_back",
        "2-source issues needing 2 ports (issued late)"};

    // --- Per-policy counters (policy zoo). ---
    stats::Counter dltSaturated{"sched.dlt_saturated",
        "wake broadcasts deferred to completion by delay-counter "
        "saturation (load-delay-tracking wakeup)"};
    stats::Counter prefetchHits{"rf.prefetch_hits",
        "operands prefetched into the operand buffer at dispatch"};
    stats::Counter prefetchMisses{"rf.prefetch_misses",
        "prefetch-eligible operands denied by prefetch bandwidth"};
    stats::Counter rfPortStalls{"rf.port_stalls",
        "select attempts deferred by read-port arbitration"};

    void regStats(stats::Registry &reg);
};

/**
 * The out-of-order core. Construct with a configuration and a
 * committed-path instruction source, then run().
 */
class Core
{
  public:
    Core(const CoreConfig &cfg, InstSource &source);

    /** Advance one cycle. */
    void tick();

    /**
     * Run to completion (source drained and window empty).
     * @param max_cycles optional safety bound (0 = unbounded)
     * @return committed instruction count
     */
    uint64_t run(uint64_t max_cycles = 0);

    bool
    done() const
    {
        return sourceDone_ && windowCount_ == 0 && fetchQueue_.empty();
    }

    uint64_t cycle() const { return cycle_; }
    double
    ipc() const
    {
        return cycle_ == 0 ? 0.0
            : double(stats_.committed.value()) / double(cycle_);
    }

    const CoreStats &stats() const { return stats_; }

    /** Events the calendar has scheduled so far: an exact,
     *  host-independent work count. Deliberately not a registered
     *  statistic, so it adds nothing to hpa.stats.v1 documents. */
    uint64_t eventsScheduled() const { return events_.scheduled(); }

    const CoreConfig &config() const { return cfg_; }
    const LastArrivalMonitor &lapMonitor() const { return lapMon_; }
    mem::Hierarchy &hierarchy() { return hier_; }
    bpred::BranchPredictor &branchPredictor() { return bp_; }

    /** Register core + memory + bpred statistics. */
    void regStats(stats::Registry &reg);

    /**
     * Install a commit observer: called once per committed
     * instruction, with its full pipeline timestamps still intact
     * (fetch/dispatch/issue/complete cycles, replay flags). Used by
     * the pipeline viewer and by tests.
     */
    void
    setCommitListener(
        std::function<void(const CommittedInst &, uint64_t commit_cycle)>
            fn)
    {
        commitListener_ = std::move(fn);
    }

    // --- Testing hooks (scheduler data-structure invariants). ---

    /** Snapshot of the incremental ready set: window slots of
     *  unissued, scheduler-ready instructions, oldest first. */
    std::vector<unsigned>
    readyListSnapshot() const
    {
        return masks_.ready.toVector(head_);
    }

    /** Snapshot of the issued set (issued, not yet committed or
     *  squashed), oldest first. */
    std::vector<unsigned>
    issuedListSnapshot() const
    {
        return masks_.issued.toVector(head_);
    }

    /** The issue window's bit planes (ReadyMaskFuzz inspection). */
    const IssueWindowMasks &issueMasks() const { return masks_; }

    /**
     * Check the issue window's planes against a brute-force
     * re-derivation from the slot state: the ready plane against
     * the readiness predicate (same members, oldest-first order),
     * the issued and occupancy planes and the store ring against
     * the window, and the dependency matrix for every in-window
     * producer -> consumer bit. Used by the fuzz tests; O(window),
     * never called on the hot path.
     */
    bool planesConsistent() const;

    /**
     * Like planesConsistent(), but on mismatch throws
     * hpa::InvariantViolation naming the diverged plane and carrying
     * a pipeline-state dump. This is the periodic release-mode
     * cross-validation pass run by tick() every
     * CoreConfig::check_interval cycles.
     */
    void crossValidatePlanes() const;

    /**
     * Pipeview-style snapshot of the pipeline state: cycle, commit
     * progress, window occupancy and the oldest in-flight window
     * entries with their per-stage timestamps. Attached to
     * Deadlock/InvariantViolation context dumps.
     */
    std::string dumpPipelineState() const;

    /**
     * Cooperative wall-clock budget: once set, the run loop checks
     * the deadline every few thousand cycles and throws hpa::Timeout
     * when it has passed. @p seconds is measured from now.
     */
    void
    setWallDeadline(double seconds)
    {
        // hpa-nolint(HPA007): converts the caller's wall budget to a watchdog deadline; guard-only
        deadline_ = std::chrono::steady_clock::now()
            + std::chrono::duration_cast<
                  std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
        hasDeadline_ = true;
        nextGuardCycle_ = 0; // re-arm the guard gate
    }

    // --- Test-only fault injection (sim/sweep fault hooks). ---

    /** At @p cycle, corrupt the ready plane (toggle the head slot's
     *  bit) — the periodic cross-validation must then report an
     *  InvariantViolation. Test-only. */
    void
    testCorruptSchedulerAt(uint64_t cycle)
    {
        corruptAt_ = cycle;
        nextGuardCycle_ = 0; // re-arm the guard gate
    }

    /** After @p cycle, commit() retires nothing — forward progress
     *  stops and the watchdog must report a Deadlock. Test-only. */
    void
    testBlockCommitAfter(uint64_t cycle)
    {
        blockCommitAfter_ = cycle;
    }

  private:
    // --- Event machinery. ---
    enum class EventKind : uint8_t
    {
        FastWake,       ///< producer tag on the fast wakeup bus
        SlowWake,       ///< re-broadcast on the slow bus (seq wakeup)
        LoadMissDetect, ///< latency misprediction detected
        TagElimDetect,  ///< scoreboard flags a premature issue
    };

    /** 16 bytes — 1.6 events per simulated cycle flow through the
     *  calendar (4-wide gzip, 50k insts: EventCount pins the count),
     *  so the packed layout is worth the int16 slot. */
    struct Event
    {
        uint64_t seq;
        uint32_t token;
        int16_t slot;
        EventKind kind;
    };

    struct FetchedInst
    {
        const func::ExecRecord *rec;
        uint64_t earliestDispatch;
        bool mispredicted;
        uint64_t fetchCycle;
    };

    /** Same-cycle delivery order of coincident events: detections
     *  (recovery) first, wakeups second. Events of equal rank process
     *  in schedule order. A detection at cycle c counts an
     *  instruction completing at c as incomplete (completeCycle >= c),
     *  so its squash can still pull that instruction back. */
    static unsigned
    eventRank(EventKind k)
    {
        return k == EventKind::LoadMissDetect
                || k == EventKind::TagElimDetect
            ? 0 : 1;
    }

    // --- Pipeline phases (in intra-cycle order). ---
    void commit();
    void processEvents();
    void select();
    void dispatch();
    void fetch();

    // --- Helpers. ---
    bool windowFull() const { return windowCount_ == cfg_.ruu_size; }

    /** SimContext for a failure raised now: cycle, commit progress
     *  and the pipeline-state dump. */
    hpa::SimContext invariantContext() const;
    /** Re-derive the ready/issued/occupancy planes, the store ring
     *  and the dependency matrix from the slot state and describe the
     *  first divergence (empty string = consistent). */
    std::string planeDivergence() const;
    /** Watchdog / deadline / cross-check / fault-injection hooks;
     *  everything rare-but-per-cycle, kept out of tick()'s hot
     *  path body. */
    void tickGuards();

    /** Fill the new tenant's operands and dependency bits.
     *  @return two operands were pending at insert. */
    bool setupOperands(unsigned slot);
    void updateReadySlot(unsigned slot);
    bool lsqAllowsLoad(unsigned slot) const;
    unsigned computeRfPorts(const SlotOperands &ops) const;
    /** One select-candidate attempt; issues on success.
     *  @return false when the width budget is spent. */
    bool selectTry(unsigned slot, unsigned &avail, unsigned &ports_left,
                   bool arbitrated);
    /** @p ports is the candidate's computeRfPorts() value, computed
     *  once by selectTry (the arbitrated path already needs it). */
    void issueInst(unsigned slot, unsigned ports);
    void scheduleEvent(uint64_t cycle, Event ev);
    void handleFastWake(const Event &ev);
    void handleSlowWake(const Event &ev);
    void handleLoadMiss(const Event &ev);
    void handleTagElim(const Event &ev);
    bool wakeOperand(unsigned slot, unsigned k, bool slow_bus);
    void noteSecondWake(unsigned slot);

    /** Model readiness predicate: no watched operand lacks its tag
     *  match, and after a tag-elimination mis-issue every value is
     *  truly available. Excludes the per-cycle issue conditions (FUs,
     *  LSQ, ports) checked at select. Pure function of the hot
     *  operand record, so the periodic cross-validation pass can
     *  re-derive the ready plane from the window. Every wakeup scheme
     *  but tag elimination watches all operands and never sets
     *  requireDataReady, so there it is "every tag matched". */
    static bool schedReady(const SlotOperands &ops);
    /** Write the wakeup scheme into the operands' slowSide/watched
     *  bits at dispatch. */
    void placeOperands(unsigned slot, bool two_pending);
    /** Operand prefetch buffer: claim per-cycle prefetch bandwidth
     *  (@p left ports remain this cycle) for the operands already in
     *  the architectural register file at dispatch. */
    void prefetchOperands(unsigned slot, unsigned &left);
    /** Load-delay tracking: a @p wake broadcast the delay counters
     *  cannot represent is deferred to the @p complete broadcast. */
    uint64_t trackedWake(uint64_t wake, uint64_t complete);

    void squashWindow(uint64_t first_cycle, uint64_t last_cycle,
                      uint64_t trigger_seq, bool selective);
    void repairConsumersOf(unsigned slot);
    void commitFormatStats(const isa::StaticInst &si);

    CoreConfig cfg_;
    InstSource &source_;
    mem::Hierarchy hier_;
    bpred::BranchPredictor bp_;
    FuPool fu_;
    LastArrivalPredictor lap_;
    LastArrivalMonitor lapMon_;
    CoreStats stats_;

    // --- Wakeup and register-file organization, read once from
    //     cfg.wakeup / cfg.regfile at construction. ---
    /** Sequential wakeup: every fast broadcast re-runs on the slow
     *  bus one cycle later. */
    bool slowBus_ = false;
    /** Tag elimination: a scoreboard audits each issue for operands
     *  that were not truly data-ready. */
    bool tagElim_ = false;
    /** Load-delay tracking: a wake further than DLT_MAX_DELAY
     *  cycles ahead saturates and defers to the completion. */
    bool delayTracking_ = false;
    /** Sequential register access: an issue reading two register-
     *  file ports takes +1 cycle and blocks one slot next cycle. */
    bool seqRegAccess_ = false;
    /** Read ports arbitrated across each select group (~0u =
     *  unconstrained). */
    unsigned portBudget_ = ~0u;
    /** Operand-prefetch ports per cycle (0 = no prefetch buffer). */
    unsigned prefetchBandwidth_ = 0;

    uint64_t cycle_ = 0;
    uint64_t nextSeq_ = 0;

    // Window: ring buffer of slots, oldest at head_. Hot fields are
    // per-field arrays (slots_), the rest one cold record per slot.
    WindowSlots slots_;
    std::vector<SlotCold> cold_;
    unsigned head_ = 0;
    unsigned tail_ = 0;
    unsigned windowCount_ = 0;
    unsigned lsqCount_ = 0;

    // --- Incrementally maintained scheduler indices. ---
    // Select, wakeup broadcast and replay candidate collection walk
    // these instead of the whole window, so each pipeline phase
    // touches only the instructions it acts on. Age order from
    // head_ equals seq (= program) order, the window being a FIFO,
    // so every scan preserves oldest-first priority.

    /** An in-window store as the LSQ overlap searches see it. */
    struct StoreEntry
    {
        uint64_t seq;
        uint64_t lo; ///< first byte written
        uint64_t hi; ///< one past the last byte written
        unsigned slot;
    };
    /** In-window stores in program order, caching seq and address
     *  range so overlap scans read no slot state or ExecRecord;
     *  occupancy bounded by the window size. */
    BoundedRing<StoreEntry> stores_;

    /** Ready/issued/priority bit planes, the dependency matrix and
     *  the slow-bus plane (issue_window.hh). */
    IssueWindowMasks masks_;

    // squashWindow() scratch, members so recovery (a steady-state
    // occurrence under speculative scheduling) stops allocating
    // once the reserved capacities are warm.
    std::vector<int> squashCandidates_;
    std::vector<int> squashList_;
    std::vector<uint64_t> squashTainted_;
    std::vector<char> squashIn_;

    /** Youngest in-flight producer per unified register. */
    struct ProducerRef
    {
        uint64_t seq = NO_SEQ;
        int slot = -1;
    };
    ProducerRef lastProducer_[isa::NUM_UNIFIED_REGS];

    /** Rank-split calendar: one vector per (cycle, delivery rank),
     *  rank fixed at schedule time (eventRank), so processEvents()
     *  drains each rank in one compare-free pass. */
    CalendarQueue<Event, 2> events_;

    // Front end; occupancy bounded by front_end_depth x width.
    BoundedRing<FetchedInst> fetchQueue_;
    uint64_t fetchResumeCycle_ = 0;
    /** Fetch waits for a mispredicted branch to complete; its window
     *  slot is known once it dispatches (-1 until then). */
    bool fetchStalledOnBranch_ = false;
    int stalledBranchSlot_ = -1;
    bool sourceDone_ = false;
    const func::ExecRecord *lookahead_ = nullptr;

    /** Issue slots blocked this cycle by sequential register access
     *  issues of the previous cycle. */
    unsigned blockedSlots_ = 0;
    unsigned blockedSlotsNext_ = 0;

    /** Wakeup-order history per PC (Table 3). Keyed by static PC,
     *  so the map stops growing after the first iteration of a
     *  kernel's loop; the warm steady state performs lookups only
     *  (test_hotpath_alloc proves it). */
    // hpa-nolint(HPA002): bounded by static PCs, lookup-only when warm
    std::unordered_map<uint64_t, uint8_t> orderHistory_;

    uint64_t lastCommitCycle_ = 0;

    /** Earliest cycle any tickGuards() condition can fire next; 0
     *  forces a (re)evaluation on the next tick. */
    uint64_t nextGuardCycle_ = 0;

    /** Wall-clock deadline (setWallDeadline); checked every 4096
     *  cycles when armed. */
    // hpa-nolint(HPA007): watchdog deadline storage; guard-only
    std::chrono::steady_clock::time_point deadline_{};
    bool hasDeadline_ = false;

    /** Test-only fault injection (NO_CYCLE = disarmed). */
    uint64_t corruptAt_ = NO_CYCLE;
    uint64_t blockCommitAfter_ = NO_CYCLE;

    std::function<void(const CommittedInst &, uint64_t)> commitListener_;
};

} // namespace hpa::core

#endif // HPA_CORE_CORE_HH
