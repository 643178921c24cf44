#include "core/core.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace hpa::core
{

CoreConfig
fourWideConfig()
{
    CoreConfig c;
    c.width = 4;
    c.ruu_size = 64;
    c.lsq_size = 32;
    c.num_int_alu = 4;
    c.num_fp_alu = 2;
    c.num_int_muldiv = 2;
    c.num_fp_muldiv = 2;
    c.num_mem_ports = 2;
    return c;
}

CoreConfig
eightWideConfig()
{
    CoreConfig c;
    c.width = 8;
    c.ruu_size = 128;
    c.lsq_size = 64;
    c.num_int_alu = 8;
    c.num_fp_alu = 4;
    c.num_int_muldiv = 4;
    c.num_fp_muldiv = 4;
    c.num_mem_ports = 4;
    return c;
}

void
CoreStats::regStats(stats::Registry &reg)
{
    reg.add(&committed);
    reg.add(&cycles);
    reg.add(&dispatched);
    reg.add(&issued);
    reg.add(&squashedIssues);
    reg.add(&loadMissReplays);
    reg.add(&tagElimMisissues);
    reg.add(&seqRegAccesses);
    reg.add(&seqWakeupDelayed);
    reg.add(&renameStalls);
    reg.add(&branchMispredicts);
    reg.add(&fetchedControl);
    reg.add(&fmt2srcInsts);
    reg.add(&fmtStores);
    reg.add(&fmtOther);
    reg.add(&fmtNops);
    reg.add(&fmtOneUnique);
    reg.add(&fmtTwoUnique);
    reg.add(&readyAtInsert);
    reg.add(&wakeupSlack);
    reg.add(&orderSame);
    reg.add(&orderDiff);
    reg.add(&leftLast);
    reg.add(&rightLast);
    reg.add(&rfBackToBack);
    reg.add(&rfTwoReady);
    reg.add(&rfNonBackToBack);
    reg.add(&dltSaturated);
    reg.add(&prefetchHits);
    reg.add(&prefetchMisses);
    reg.add(&rfPortStalls);
}

Core::Core(const CoreConfig &cfg, InstSource &source)
    : cfg_(cfg), source_(source), hier_(cfg.mem), bp_(cfg.bpred),
      fu_(cfg), lap_(cfg.lap_entries), cold_(cfg.ruu_size)
{
    // Every hot-path container is sized to its configuration bound
    // here so steady-state simulation allocates nothing: the bit
    // planes and the dependency matrix are window-sized, stores
    // never outnumber window slots, and the fetch queue is capped by
    // the front-end depth.
    HPA_CHECK(cfg.ruu_size > 0 && cfg.ruu_size <= 32767,
              "ruu_size must fit Event::slot (int16)");
    stores_.reset(cfg.ruu_size);
    fetchQueue_.reset(size_t(cfg.front_end_depth) * cfg.width);
    masks_.reset(cfg.ruu_size);
    slots_.reset(cfg.ruu_size);
    slowBus_ = cfg.sequentialWakeup();
    tagElim_ = cfg.wakeup == WakeupModel::TagElimination;
    delayTracking_ = cfg.wakeup == WakeupModel::LoadDelayTracking;
    seqRegAccess_ = cfg.regfile == RegfileModel::SequentialAccess;
    if (cfg.regfile == RegfileModel::HalfPortCrossbar
        || cfg.regfile == RegfileModel::PrefetchBuffer)
        portBudget_ = cfg.width;
    if (cfg.regfile == RegfileModel::PrefetchBuffer)
        prefetchBandwidth_ = cfg.width / 2 ? cfg.width / 2 : 1;
    squashCandidates_.reserve(cfg.ruu_size);
    squashList_.reserve(cfg.ruu_size);
    squashTainted_.reserve(size_t(cfg.ruu_size) + 1);
    squashIn_.reserve(cfg.ruu_size);
    // A cycle's event bucket delivers wake/detect events keyed to
    // window slots; with only a few events in flight per in-window
    // instruction, ruu_size + width bounds any single cycle's bucket
    // comfortably. Exceeding it is still correct
    // (the vector grows), just no longer allocation-free —
    // test_hotpath_alloc guards the contract.
    events_.reserveSlots(size_t(cfg.ruu_size) + cfg.width);
    lookahead_ = source_.next();
    if (!lookahead_)
        sourceDone_ = true;
}

// --------------------------------------------------------------------
// Scheduler side sets
// --------------------------------------------------------------------

bool
Core::schedReady(const SlotOperands &ops)
{
    for (unsigned i = 0; i < ops.numSrc; ++i)
        if (ops.src[i].watched && !ops.src[i].ready)
            return false;
    if (!ops.requireDataReady)
        return true;
    // After a detected mis-issue the tag-elimination scoreboard holds
    // the entry until every value is truly available.
    for (unsigned i = 0; i < ops.numSrc; ++i)
        if (!ops.src[i].dataReady())
            return false;
    return true;
}

/** Reconcile an in-window slot's ready-plane bit with its state.
 *  Call after any transition that can change schedReady() or the
 *  issued bit. */
void
Core::updateReadySlot(unsigned slot)
{
    if (!masks_.issued.test(slot) && schedReady(slots_.ops[slot]))
        masks_.ready.set(slot);
    else
        masks_.ready.clear(slot);
}

namespace
{

std::string
listText(const char *name, const std::vector<unsigned> &have,
         const std::vector<unsigned> &want)
{
    std::ostringstream os;
    os << name << " diverged: have {";
    for (size_t i = 0; i < have.size(); ++i)
        os << (i ? " " : "") << have[i];
    os << "} want {";
    for (size_t i = 0; i < want.size(); ++i)
        os << (i ? " " : "") << want[i];
    os << "}";
    return os.str();
}

} // namespace

std::string
Core::planeDivergence() const
{
    std::vector<unsigned> want_ready, want_issued, want_stores,
        want_occupied;
    unsigned idx = head_;
    for (unsigned n = 0; n < windowCount_; ++n) {
        want_occupied.push_back(idx);
        bool issued = slots_.completeCycle[idx] != NO_CYCLE;
        if (issued)
            want_issued.push_back(idx);
        else if (schedReady(slots_.ops[idx]))
            want_ready.push_back(idx);
        if (slots_.rec[idx]->inst.isStore())
            want_stores.push_back(idx);
        idx = (idx + 1) % cfg_.ruu_size;
    }
    std::vector<unsigned> have_ready = readyListSnapshot();
    if (want_ready != have_ready)
        return listText("ready plane", have_ready, want_ready);
    std::vector<unsigned> have_issued = issuedListSnapshot();
    if (want_issued != have_issued)
        return listText("issued plane", have_issued, want_issued);
    std::vector<unsigned> have_occupied =
        masks_.occupancy.toVector(head_);
    if (want_occupied != have_occupied)
        return listText("occupancy plane", have_occupied,
                        want_occupied);
    std::vector<unsigned> have_stores;
    have_stores.reserve(stores_.size());
    for (size_t i = 0; i < stores_.size(); ++i) {
        const StoreEntry &st = stores_[i];
        const func::ExecRecord &rec = *slots_.rec[st.slot];
        if (st.seq != slots_.seq[st.slot] || st.lo != rec.effAddr
            || st.hi != rec.effAddr + rec.inst.memSize())
            return "store ring entry " + std::to_string(i)
                + " does not match slot " + std::to_string(st.slot);
        have_stores.push_back(st.slot);
    }
    if (want_stores != have_stores)
        return listText("store ring", have_stores, want_stores);
    // Dependency-matrix completeness: every scheduling operand whose
    // producer is still in the window must have its bit in that
    // producer's row, or the producer's broadcast would miss it.
    // Dispatch hands out consecutive seqs and only commit (at the
    // head) removes entries, so seq - head seq is the age offset.
    const uint64_t head_seq = slots_.seq[head_];
    idx = head_;
    for (unsigned n = 0; n < windowCount_; ++n) {
        for (unsigned k = 0; k < slots_.ops[idx].numSrc; ++k) {
            uint64_t pseq = cold_[idx].producerSeq[k];
            if (pseq == NO_SEQ || pseq < head_seq)
                continue; // no producer, or it has committed
            unsigned p = unsigned((head_ + (pseq - head_seq))
                                  % cfg_.ruu_size);
            if (slots_.seq[p] != pseq)
                return "slot " + std::to_string(idx) + " operand "
                    + std::to_string(k) + " names producer seq "
                    + std::to_string(pseq)
                    + ", which is not at its window position";
            if (!masks_.dep[k].test(p, idx))
                return "dependency matrix misses slot "
                    + std::to_string(idx) + " operand "
                    + std::to_string(k) + " in producer slot "
                    + std::to_string(p) + "'s row (seq "
                    + std::to_string(pseq) + ")";
        }
        idx = (idx + 1) % cfg_.ruu_size;
    }
    return {};
}

bool
Core::planesConsistent() const
{
    return planeDivergence().empty();
}

void
Core::crossValidatePlanes() const
{
    std::string diverged = planeDivergence();
    if (!diverged.empty())
        throw hpa::InvariantViolation(
            "scheduler cross-validation: " + diverged,
            invariantContext());
}

hpa::SimContext
Core::invariantContext() const
{
    hpa::SimContext ctx;
    ctx.cycle = cycle_;
    ctx.committed = stats_.committed.value();
    ctx.lastCommitCycle = lastCommitCycle_;
    ctx.dump = dumpPipelineState();
    return ctx;
}

std::string
Core::dumpPipelineState() const
{
    std::ostringstream os;
    os << "pipeline state @cycle " << cycle_ << ": committed="
       << stats_.committed.value()
       << " last_commit_cycle=" << lastCommitCycle_ << " window="
       << windowCount_ << "/" << cfg_.ruu_size << " head=" << head_
       << " tail=" << tail_ << " lsq=" << lsqCount_
       << " fetchq=" << fetchQueue_.size()
       << " ready=" << masks_.ready.count()
       << " issued=" << masks_.issued.count()
       << " stores=" << stores_.size()
       << " events_pending=" << events_.pending() << "\n";
    os << "  slot      seq         pc  disp  issue  compl  "
          "state  disasm\n";
    // The oldest entries explain a stall: dump the head of the
    // window (the commit blocker is always the head slot).
    const unsigned MAX_ROWS = 16;
    unsigned idx = head_;
    for (unsigned n = 0; n < windowCount_ && n < MAX_ROWS; ++n) {
        const SlotCold &cold = cold_[idx];
        const bool issued = masks_.issued.test(idx);
        char buf[64];
        std::snprintf(buf, sizeof buf, "  %4u %8llu %10llx", idx,
                      static_cast<unsigned long long>(slots_.seq[idx]),
                      static_cast<unsigned long long>(
                          slots_.rec[idx]->pc));
        os << buf;
        auto cyc = [&](uint64_t c) {
            char b[32];
            if (c == NO_CYCLE)
                std::snprintf(b, sizeof b, " %5s", "-");
            else
                std::snprintf(b, sizeof b, " %5llu",
                              static_cast<unsigned long long>(c));
            os << b;
        };
        cyc(cold.dispatchCycle);
        cyc(issued ? slots_.issueCycle[idx] : NO_CYCLE);
        cyc(slots_.completeCycle[idx]);
        std::string state;
        state += issued ? 'I' : '.';
        state += slots_.completeCycle[idx] <= cycle_ ? 'C' : '.';
        state += masks_.ready.test(idx) ? 'R' : '.';
        state += issued && cold.loadMissReplay ? 'M' : '.';
        os << "  " << state << "   "
           << slots_.rec[idx]->inst.disassemble() << "\n";
        idx = (idx + 1) % cfg_.ruu_size;
    }
    if (windowCount_ > MAX_ROWS)
        os << "  ... " << (windowCount_ - MAX_ROWS)
           << " younger entries elided\n";
    return os.str();
}

void
Core::regStats(stats::Registry &reg)
{
    stats_.regStats(reg);
    hier_.regStats(reg);
    bp_.regStats(reg);
}

uint64_t
Core::run(uint64_t max_cycles)
{
    while (!done()) {
        tick();
        if (max_cycles && cycle_ >= max_cycles)
            break;
    }
    return stats_.committed.value();
}

void
Core::tick()
{
    ++cycle_;
    ++stats_.cycles;

    commit();
    processEvents();
    select();
    dispatch();
    fetch();

    tickGuards();
}

/** Everything rare-but-checked-every-cycle: the deadlock watchdog,
 *  the periodic scheduler cross-validation, the cooperative
 *  wall-clock deadline and the test-only fault injections. At
 *  default settings this is four predictable compares per cycle. */
void
Core::tickGuards()
{
    // Every guard below is time-predictable, so the common case is a
    // single compare: nextGuardCycle_ under-approximates the next
    // cycle any guard could fire (a too-early visit merely re-arms;
    // a fire is never missed — the fault setters reset the gate).
    if (cycle_ < nextGuardCycle_)
        return;

    if (cycle_ == corruptAt_) {
        // Test hook: corrupt the ready plane so the periodic
        // cross-validation must diverge whatever the window holds.
        // Toggling the head slot's ready bit diverges either way.
        masks_.ready.testFlip(head_);
    }

    if (cfg_.check_interval && cycle_ % cfg_.check_interval == 0)
        crossValidatePlanes();

    if (cfg_.watchdog_cycles && windowCount_ > 0
        && cycle_ - lastCommitCycle_ > cfg_.watchdog_cycles)
        throw hpa::Deadlock(
            "no commit in " + std::to_string(cfg_.watchdog_cycles)
                + " cycles with a non-empty window",
            invariantContext());

    if (hasDeadline_ && (cycle_ & 0xFFF) == 0
        // hpa-nolint(HPA007): watchdog wall-budget check; throws Timeout, never feeds simulated state
        && std::chrono::steady_clock::now() > deadline_)
        throw hpa::Timeout("wall-clock budget exceeded",
                           invariantContext());

    // Re-arm: the earliest cycle any guard can fire next. The
    // watchdog term uses the current lastCommitCycle_; commits in
    // the meantime only push the real deadline later, so the visit
    // at the recorded cycle finds nothing and re-arms — exact fire
    // timing, at most one spare visit per watchdog period.
    uint64_t next = NO_CYCLE;
    if (corruptAt_ != NO_CYCLE && corruptAt_ > cycle_)
        next = std::min(next, corruptAt_);
    if (cfg_.check_interval)
        next = std::min(next, cycle_ + cfg_.check_interval
                                  - cycle_ % cfg_.check_interval);
    if (cfg_.watchdog_cycles)
        next = std::min(next,
                        lastCommitCycle_ + cfg_.watchdog_cycles + 1);
    if (hasDeadline_)
        next = std::min(next, (cycle_ | 0xFFF) + 1);
    nextGuardCycle_ = next;
}

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

void
Core::commitFormatStats(const isa::StaticInst &si)
{
    if (si.isStore()) {
        ++stats_.fmtStores;
        return;
    }
    if (!si.isTwoSourceFormat()) {
        ++stats_.fmtOther;
        return;
    }
    ++stats_.fmt2srcInsts;
    if (si.isNop())
        ++stats_.fmtNops;
    else if (si.uniqueSrcRegs().count == 2)
        ++stats_.fmtTwoUnique;
    else
        ++stats_.fmtOneUnique;
}

// hpa-prove-allow(P3): the commit-listener hook is a std::function
// observer used by pipeview/trace tooling; the indirect call is
// gated on a listener being installed and is empty in measurement
// runs
void
Core::commit()
{
    if (cycle_ > blockCommitAfter_)
        return; // test hook: simulate a wedged commit stage
    unsigned budget = cfg_.width;
    while (budget > 0 && windowCount_ > 0) {
        const unsigned slot = head_;
        // Complete once the cycle has passed completeCycle (NO_CYCLE
        // while unissued): commit follows completion by a cycle.
        if (slots_.completeCycle[slot] >= cycle_)
            break;
        const func::ExecRecord &rec = *slots_.rec[slot];
        const uint64_t seq = slots_.seq[slot];

        if (rec.inst.isStore())
            hier_.dataAccess(rec.effAddr, true);

        isa::RegIndex dest = rec.inst.destReg();
        if (dest != isa::NO_REG && !isa::isZeroReg(dest)
            && lastProducer_[dest].seq == seq)
            lastProducer_[dest] = ProducerRef{};

        commitFormatStats(rec.inst);
        if (commitListener_) {
            const SlotCold &c = cold_[slot];
            commitListener_(
                CommittedInst{&rec, seq, c.fetchCycle, c.dispatchCycle,
                              slots_.issueCycle[slot],
                              slots_.completeCycle[slot],
                              slots_.issueToken[slot], c.seqRegAccess,
                              c.loadMissReplay},
                cycle_);
        }
        // The producer's dependency rows are left stale: commit is
        // in order and every consumer is younger, so a committed
        // slot's rows can never be scanned again before its
        // re-dispatch clears them (deferring the row clear keeps
        // commit row-free). Invalidating the seq makes every
        // seq-match test (event staleness, producer lookups) see
        // the slot as empty.
        masks_.occupancy.clear(slot);
        masks_.issued.clear(slot);
        slots_.seq[slot] = NO_SEQ;
        if (rec.inst.isStore()) {
            HPA_CHECK_CTX(!stores_.empty()
                              && stores_.front().slot == slot,
                          "committing store at head slot "
                              + std::to_string(slot)
                              + " not at front of the store ring",
                          invariantContext());
            stores_.pop_front();
        }
        if (rec.inst.isMemRef())
            --lsqCount_;
        ++stats_.committed;
        lastCommitCycle_ = cycle_;

        if (++head_ == cfg_.ruu_size)
            head_ = 0;
        --windowCount_;
        --budget;
    }
}

// --------------------------------------------------------------------
// Events
// --------------------------------------------------------------------

// hpa-prove-allow(P1,P2): events beyond the calendar ring's horizon
// go to the sorted overflow std::map (cold arm, node insert);
// steady-state quiescence is proven dynamically by
// tests/test_hotpath_alloc.cc
void
Core::scheduleEvent(uint64_t when, Event ev)
{
    HPA_CHECK_CTX(when > cycle_,
                  "event scheduled for cycle " + std::to_string(when)
                      + ", not in the future",
                  invariantContext());
    events_.schedule(when, cycle_, ev, eventRank(ev.kind));
}

// hpa-prove-allow(P1,P2): beginCycle() migrates far-future events
// out of the overflow std::map back into the ring (cold arm:
// node erase/insert and bucket growth during warm-up only; see
// tests/test_hotpath_alloc.cc for the dynamic quiescence proof)
void
Core::processEvents()
{
    // beginCycle() must run every cycle (it migrates far-future
    // events into ring range before anything can schedule at this
    // cycle), even when this cycle's bucket turns out empty.
    auto &bucket = events_.beginCycle(cycle_);

    // The calendar splits each cycle's events by rank at schedule
    // time, so delivery is one compare-free pass per rank class
    // (rank ascending, schedule order within a rank). Handlers only
    // schedule strictly-future events, so no vector is appended to
    // mid-iteration. The staleness filter runs at delivery time: a
    // committed slot's seq is NO_SEQ, a re-dispatched one holds a
    // new seq, and every squash and re-issue bumps the token.
    for (size_t rank = 0; rank < bucket.size(); ++rank) {
        for (const Event &ev : bucket[rank]) {
            const unsigned s = unsigned(ev.slot);
            if (slots_.seq[s] != ev.seq
                || slots_.issueToken[s] != ev.token)
                continue;
            switch (ev.kind) {
              case EventKind::FastWake: handleFastWake(ev); break;
              case EventKind::SlowWake: handleSlowWake(ev); break;
              case EventKind::LoadMissDetect:
                handleLoadMiss(ev);
                break;
              case EventKind::TagElimDetect:
                handleTagElim(ev);
                break;
            }
        }
    }
    events_.endCycle(cycle_);
}

// hpa-prove-allow(P1,P2): the wakeup-order history is an
// unordered_map keyed by static PC — bounded by the benchmark's
// static footprint, so inserts and rehashes die out after warm-up
// (cross-checked dynamically by tests/test_hotpath_alloc.cc)
void
Core::noteSecondWake(unsigned slot)
{
    // Called when the second operand data-wakeup of a 2-pending
    // instruction is observed: record Figure 6 / Table 3 samples and
    // train the last-arrival predictors.
    const SlotCold &c = cold_[slot];
    const uint64_t pc = slots_.rec[slot]->pc;
    uint64_t slack = cycle_ - c.firstWakeCycle;
    stats_.wakeupSlack.sample(
        static_cast<unsigned>(std::min<uint64_t>(slack, 4)));

    bool simultaneous = slack == 0;
    // The operand waking *now* is the last-arriving one; on a
    // simultaneous wakeup the order is undefined.
    bool right_last = !simultaneous && c.firstWakeWasLeft;

    if (!simultaneous) {
        if (right_last)
            ++stats_.rightLast;
        else
            ++stats_.leftLast;

        auto [hist, inserted] =
            orderHistory_.try_emplace(pc, right_last ? 1 : 0);
        if (!inserted) {
            if ((hist->second != 0) == right_last)
                ++stats_.orderSame;
            else
                ++stats_.orderDiff;
            hist->second = right_last ? 1 : 0;
        }
        lap_.update(pc, right_last);
    }
    lapMon_.resolve(pc, c.shadowPredBits, simultaneous, right_last);

    // Sequential wakeup: the tag of the last-arriving operand is
    // visible one cycle late when it landed on the slow side; a
    // simultaneous wakeup always pays the slow-bus cycle (one side is
    // always slow). slowSide is only ever set under sequential wakeup.
    const SlotOperands &ops = slots_.ops[slot];
    for (unsigned i = 0; i < ops.numSrc; ++i) {
        if (ops.src[i].slowSide
            && (simultaneous || c.leftField[i] != c.firstWakeWasLeft)) {
            ++stats_.seqWakeupDelayed;
            break;
        }
    }
}

/** Deliver a broadcast to operand @p k of the consumer in @p slot.
 *  @return true when any operand state changed — the caller only
 *  needs to reconcile the ready plane (updateReadySlot) after a real
 *  transition; schedReady() is a pure function of operand state, so
 *  a no-op broadcast cannot change membership. */
bool
Core::wakeOperand(unsigned slot, unsigned k, bool slow_bus)
{
    SlotOperands &ops = slots_.ops[slot];
    SrcOperand &op = ops.src[k];
    if (slow_bus) {
        // Slow-bus re-broadcast: only slow-side operands gain their
        // tag match here; data availability was recorded at the fast
        // broadcast.
        if (op.slowSide && !op.ready && op.dataReady()) {
            op.ready = true;
            return true;
        }
        return false;
    }

    bool changed = false;
    if (!op.dataReady()) {
        changed = true;
        op.dataReadyCycle = cycle_;

        if (ops.lapOpen) {
            SlotCold &c = cold_[slot];
            if (c.wakesSeen == 0) {
                c.wakesSeen = 1;
                c.firstWakeCycle = cycle_;
                c.firstWakeWasLeft = c.leftField[k];
            } else {
                c.wakesSeen = 2;
                ops.lapOpen = false;
                noteSecondWake(slot);
            }
        }
    }

    // Tag visibility on the fast bus: a slow-side operand waits for
    // the re-broadcast, an unwatched one has no comparator.
    if (!op.slowSide && op.watched && !op.ready) {
        op.ready = true;
        changed = true;
    }
    return changed;
}

void
Core::handleFastWake(const Event &ev)
{
    // Dependency-vector broadcast: one scan of the producer's two
    // operand rows in age order from head_ (a consumer matches a
    // given producer in at most one plane). The producer passed the
    // event staleness check, so — commit being in order — every bit
    // still names the consumer it was set for: no per-entry seq
    // guards needed.
    const unsigned p = unsigned(ev.slot);
    bool need_slow = false;
    if (slowBus_)
        masks_.slowPend.clearRow(p);
    scanSetBitsFrom2(
        masks_.dep[0].row(p), masks_.dep[1].row(p), cfg_.ruu_size,
        head_, [&](unsigned s, bool in0, bool in1) {
            for (unsigned k = 0; k < 2; ++k) {
                if (!(k == 0 ? in0 : in1))
                    continue;
                if (wakeOperand(s, k, false))
                    updateReadySlot(s);
                // File the slow-plane residue: consumers whose tag
                // match arrives only on the +1 re-broadcast (under
                // sequential wakeup a fast-woken operand still
                // lacking its tag is a slow-side one).
                const SrcOperand &op = slots_.ops[s].src[k];
                if (slowBus_ && !op.ready && op.dataReady()) {
                    masks_.slowPend.set(p, s);
                    need_slow = true;
                }
            }
        });
    // An empty slow plane makes the +1 re-broadcast a provable no-op
    // (no consumer can become slow-eligible in between: a later
    // dispatch against an already-broadcast producer inserts fully
    // ready), so the event is only scheduled when a consumer still
    // owes its tag match to the slow bus.
    if (need_slow)
        scheduleEvent(cycle_ + 1,
                      Event{ev.seq, ev.token, ev.slot,
                            EventKind::SlowWake});
}

void
Core::handleSlowWake(const Event &ev)
{
    // The slow plane recorded at fast-broadcast time holds exactly
    // the consumers whose tag match is still owed; the wake condition
    // is re-verified per visit (a detection-rank repair this very
    // cycle may have cleared dataReady).
    const unsigned p = unsigned(ev.slot);
    scanSetBitsFrom(
        masks_.slowPend.row(p), cfg_.ruu_size, head_, [&](unsigned s) {
            for (unsigned k = 0; k < 2; ++k) {
                if (!masks_.dep[k].test(p, s))
                    continue;
                if (wakeOperand(s, k, true))
                    updateReadySlot(s);
            }
            return true;
        });
}

void
Core::repairConsumersOf(unsigned slot)
{
    // Un-wake every operand this producer woke. Under the dependency
    // matrix's lifetime invariant each visited operand names this
    // producer, so an operand holding a value got it from this
    // producer's broadcast.
    auto repairOp = [&](unsigned s, unsigned k) {
        SlotOperands &ops = slots_.ops[s];
        SrcOperand &op = ops.src[k];
        if (!op.dataReady())
            return;
        if (ops.lapOpen) {
            // Un-record the speculative wakeup observation.
            SlotCold &c = cold_[s];
            if (c.wakesSeen > 0)
                --c.wakesSeen;
        }
        op.ready = false;
        op.dataReadyCycle = NO_CYCLE;
        updateReadySlot(s);
    };

    scanSetBitsFrom2(
        masks_.dep[0].row(slot), masks_.dep[1].row(slot), cfg_.ruu_size,
        head_, [&](unsigned s, bool in0, bool in1) {
            if (in0)
                repairOp(s, 0);
            if (in1)
                repairOp(s, 1);
        });
}

// hpa-prove-allow(P1,P2): squash-list vector growth, fully inlined
// by GCC (so the _M_realloc_insert amortized-growth wall does not
// catch it); capacity is bounded by the window size and growth is
// quiescent at steady state (tests/test_hotpath_alloc.cc)
void
Core::squashWindow(uint64_t first_cycle, uint64_t last_cycle,
                   uint64_t trigger_seq, bool selective)
{
    // Collect issued-in-shadow instructions. The issued plane holds
    // the issued window entries; those still incomplete are the
    // candidates. Detections are handled first in a cycle, so an
    // entry completing this very cycle still counts as incomplete
    // (completeCycle >= cycle_). Scanning from head_
    // visits them oldest first, the same order as a head-to-tail
    // window scan. The scratch vectors are members (capacity
    // reserved at window size), so recovery allocates nothing once
    // warm.
    std::vector<int> &candidates = squashCandidates_;
    candidates.clear();
    masks_.issued.forEachFrom(head_, [&](unsigned slot) {
        uint64_t issue = slots_.issueCycle[slot];
        if (slots_.completeCycle[slot] >= cycle_
            && slots_.seq[slot] != trigger_seq && issue >= first_cycle
            && issue <= last_cycle)
            candidates.push_back(int(slot));
        return true;
    });

    std::vector<int> &squash = squashList_;
    squash.clear();
    if (!selective) {
        squash.assign(candidates.begin(), candidates.end());
    } else {
        // Taint propagation from the trigger through wake producers.
        std::vector<uint64_t> &tainted = squashTainted_;
        tainted.clear();
        tainted.push_back(trigger_seq);
        bool changed = true;
        std::vector<char> &in = squashIn_;
        in.assign(candidates.size(), 0);
        while (changed) {
            changed = false;
            for (size_t i = 0; i < candidates.size(); ++i) {
                if (in[i])
                    continue;
                const unsigned slot = unsigned(candidates[i]);
                const SlotOperands &ops = slots_.ops[slot];
                for (unsigned s = 0; s < ops.numSrc; ++s) {
                    // The producer whose broadcast delivered the
                    // value, if one did.
                    if (!ops.src[s].dataReady()
                        || !ops.src[s].fromProducer)
                        continue;
                    uint64_t wp = cold_[slot].producerSeq[s];
                    if (std::find(tainted.begin(), tainted.end(), wp)
                        != tainted.end()) {
                        in[i] = 1;
                        tainted.push_back(slots_.seq[slot]);
                        changed = true;
                        break;
                    }
                }
            }
        }
        for (size_t i = 0; i < candidates.size(); ++i)
            if (in[i])
                squash.push_back(candidates[i]);
    }

    for (int i : squash) {
        const unsigned slot = unsigned(i);
        ++slots_.issueToken[slot];
        slots_.completeCycle[slot] = NO_CYCLE;
        slots_.wakeCycle[slot] = NO_CYCLE;
        SlotCold &c = cold_[slot];
        if (c.tagElimMisissue) {
            c.tagElimMisissue = false;
            slots_.ops[slot].requireDataReady = true;
        }
        ++stats_.squashedIssues;
        masks_.issued.clear(slot);
        updateReadySlot(slot);
        repairConsumersOf(slot);
    }
}

void
Core::handleLoadMiss(const Event &ev)
{
    const unsigned slot = unsigned(ev.slot);
    const func::ExecRecord &rec = *slots_.rec[slot];
    const SlotCold &c = cold_[slot];
    HPA_CHECK_CTX(rec.inst.isLoad() && c.loadMissReplay,
                  "load-miss event for slot "
                      + std::to_string(ev.slot)
                      + " that is not a replaying load",
                  invariantContext());

    const uint64_t issue = slots_.issueCycle[slot];
    uint64_t assumed_total = 1 + hier_.assumedLoadLatency();
    uint64_t first = issue + assumed_total;
    uint64_t last = first + cfg_.replay_shadow - 1;
    squashWindow(first, last, ev.seq,
                 cfg_.recovery == RecoveryModel::Selective);

    // Cancel the speculative wakeups of the load's own dependents and
    // re-broadcast at the true arrival time. A delay-tracking policy
    // whose counter cannot represent the remaining latency defers
    // the re-broadcast to the load's completion instead.
    repairConsumersOf(slot);
    uint64_t true_wake = issue + 1 + c.memLatency;
    uint64_t load_complete = issue + cfg_.schedToExec() + c.latency - 1;
    true_wake = trackedWake(true_wake, load_complete);
    slots_.wakeCycle[slot] = true_wake;
    isa::RegIndex dest = rec.inst.destReg();
    if (dest != isa::NO_REG && !isa::isZeroReg(dest)
        && true_wake > cycle_)
        scheduleEvent(true_wake,
                      Event{ev.seq, ev.token, ev.slot,
                            EventKind::FastWake});
}

void
Core::handleTagElim(const Event &ev)
{
    const unsigned slot = unsigned(ev.slot);
    if (!cold_[slot].tagElimMisissue)
        return;
    uint64_t first = slots_.issueCycle[slot];
    uint64_t last = first + cfg_.tagelim_detect_delay;
    squashWindow(first, last, NO_SEQ, false);
}

// --------------------------------------------------------------------
// Select / issue
// --------------------------------------------------------------------

bool
Core::lsqAllowsLoad(unsigned slot) const
{
    const func::ExecRecord &rec = *slots_.rec[slot];
    const uint64_t seq = slots_.seq[slot];
    uint64_t lo = rec.effAddr;
    uint64_t hi = lo + rec.inst.memSize();
    // stores_ holds the in-window stores in program order, so the
    // overlap search touches only older stores instead of the whole
    // window.
    for (size_t k = 0; k < stores_.size(); ++k) {
        const StoreEntry &st = stores_[k];
        if (st.seq >= seq)
            break;
        if (st.lo < hi && lo < st.hi) {
            // Overlapping older store: its address must be known
            // (agen issued) and its data produced before the load
            // can obtain a forwarded value.
            if (!masks_.issued.test(st.slot))
                return false;
            const SlotCold &c = cold_[st.slot];
            if (c.storeDataProducerSeq != NO_SEQ) {
                const unsigned p = unsigned(c.storeDataProducerSlot);
                if (slots_.seq[p] == c.storeDataProducerSeq
                    && slots_.completeCycle[p] > cycle_)
                    return false;
            }
        }
    }
    return true;
}

unsigned
Core::computeRfPorts(const SlotOperands &ops) const
{
    // An operand is captured from the bypass network only when its
    // value arrives within the bypass window ending at the issue
    // cycle (Section 4.2 assumes a 1-cycle window); anything older
    // is a register-file read.
    unsigned ports = 0;
    for (unsigned i = 0; i < ops.numSrc; ++i) {
        const SrcOperand &op = ops.src[i];
        // Only values observed arriving on the bypass network
        // qualify; operands read from the architectural register
        // file at insert (no producer broadcast) never do. A value
        // parked in the operand prefetch buffer costs no port
        // either (PrefetchBuffer policy; the flag is never set
        // elsewhere).
        bool bypassed = op.prefetched
            || (op.fromProducer && op.dataReadyCycle <= cycle_
                && cycle_ - op.dataReadyCycle < cfg_.bypass_window);
        if (!bypassed)
            ++ports;
    }
    return ports;
}

void
Core::issueInst(unsigned slot, unsigned ports)
{
    const func::ExecRecord &rec = *slots_.rec[slot];
    const SlotOperands &ops = slots_.ops[slot];
    SlotCold &c = cold_[slot];
    const int16_t ev_slot = int16_t(slot);
    const uint64_t seq = slots_.seq[slot];
    const uint32_t token = ++slots_.issueToken[slot];
    slots_.issueCycle[slot] = cycle_;
    ++stats_.issued;
    masks_.ready.clear(slot);
    masks_.issued.set(slot);
    bool first_issue = token == 1;

    c.seqRegAccess = seqRegAccess_ && ports == 2;
    if (c.seqRegAccess) {
        ++stats_.seqRegAccesses;
        ++blockedSlotsNext_;
    }
    unsigned extra = c.seqRegAccess ? 1 : 0;

    // Figure 10 characterization (first issue only).
    if (first_issue && ops.numSrc == 2) {
        if (ports <= 1) {
            ++stats_.rfBackToBack;
        } else if (c.readyAtInsert[0] && c.readyAtInsert[1]) {
            ++stats_.rfTwoReady;
        } else {
            ++stats_.rfNonBackToBack;
        }
    }

    isa::RegIndex dest = rec.inst.destReg();
    bool broadcasts = dest != isa::NO_REG && !isa::isZeroReg(dest);
    uint64_t wake_cycle;
    uint64_t complete_cycle;

    if (rec.inst.isLoad()) {
        // Determine the actual memory latency: forwarded from an
        // older overlapping store, or from the cache hierarchy.
        bool forwarded = false;
        uint64_t lo = rec.effAddr;
        uint64_t hi = lo + rec.inst.memSize();
        for (size_t k = 0; k < stores_.size(); ++k) {
            const StoreEntry &st = stores_[k];
            if (st.seq >= seq)
                break;
            if (st.lo < hi && lo < st.hi) {
                forwarded = true;
                break;
            }
        }
        unsigned mem_lat = forwarded
            ? hier_.assumedLoadLatency()
            : hier_.dataAccess(rec.effAddr, false);
        c.memLatency = mem_lat;

        unsigned assumed_total = 1 + hier_.assumedLoadLatency();
        unsigned actual_total = 1 + mem_lat;
        c.latency = actual_total;

        wake_cycle = cycle_ + assumed_total;
        complete_cycle = cycle_ + cfg_.schedToExec() + actual_total - 1;

        c.loadMissReplay = actual_total > assumed_total;
        if (c.loadMissReplay) {
            ++stats_.loadMissReplays;
            scheduleEvent(cycle_ + assumed_total + cfg_.replay_shadow,
                          Event{seq, token, ev_slot,
                                EventKind::LoadMissDetect});
        }
    } else {
        unsigned lat = isa::opClassLatency(rec.inst.opClass()) + extra;
        c.latency = lat;
        c.loadMissReplay = false;
        wake_cycle = cycle_ + lat;
        complete_cycle = cycle_ + cfg_.schedToExec() + lat - 1;
    }

    // Completion is this slot's state from here on: commit, the
    // store-data test and squash recovery compare against it, so no
    // event carries it.
    slots_.completeCycle[slot] = complete_cycle;
    if (broadcasts) {
        wake_cycle = trackedWake(wake_cycle, complete_cycle);
        slots_.wakeCycle[slot] = wake_cycle;
        scheduleEvent(wake_cycle,
                      Event{seq, token, ev_slot, EventKind::FastWake});
    } else {
        slots_.wakeCycle[slot] = cycle_;
    }

    // Tag elimination: the scoreboard detects issues whose unwatched
    // operands were not actually data-ready.
    if (tagElim_) {
        bool premature = false;
        for (unsigned i = 0; i < ops.numSrc; ++i)
            if (ops.src[i].dataReadyCycle > cycle_) // NO_CYCLE too
                premature = true;
        c.tagElimMisissue = premature;
        if (premature) {
            ++stats_.tagElimMisissues;
            scheduleEvent(cycle_ + cfg_.tagelim_detect_delay + 1,
                          Event{seq, token, ev_slot,
                                EventKind::TagElimDetect});
        }
    }
}

/** One select-candidate attempt. @return false once the width
 *  budget is spent — the caller stops scanning. The planes already
 *  decided the rest of eligibility: the candidate is in the window,
 *  unissued and scheduler-ready (ready plane), and in this pass's
 *  class (highPrio plane). It was dispatched in an earlier cycle,
 *  since dispatch runs after select within a tick. */
bool
Core::selectTry(unsigned slot, unsigned &avail, unsigned &ports_left,
                bool arbitrated)
{
    const isa::StaticInst &si = slots_.rec[slot]->inst;
    if (si.isLoad() && !lsqAllowsLoad(slot))
        return true;
    unsigned ports = ~0u;
    if (arbitrated) {
        ports = computeRfPorts(slots_.ops[slot]);
        if (ports > ports_left) {
            ++stats_.rfPortStalls;
            return true;
        }
        ports_left -= ports;
    }
    if (!fu_.acquire(si.opClass(), cycle_)) {
        if (arbitrated)
            ports_left += ports;
        return true;
    }
    if (!arbitrated)
        ports = computeRfPorts(slots_.ops[slot]);
    issueInst(slot, ports);
    return --avail > 0;
}

void
Core::select()
{
    blockedSlots_ = blockedSlotsNext_;
    blockedSlotsNext_ = 0;

    unsigned avail = cfg_.width > blockedSlots_
        ? cfg_.width - blockedSlots_ : 0;
    if (avail == 0)
        return;
    unsigned ports_left = portBudget_;
    const bool arbitrated = ports_left != ~0u;

    // Oldest-first, loads and branches prioritized (Section 2.1).
    // The ready plane holds exactly the unissued instructions whose
    // required tag matches have been observed; scanning it in age
    // order from head_ (seq order == window order) reproduces the
    // full-window scan's issue decisions bit-for-bit while touching
    // only ready instructions. issueInst() clears the current bit;
    // nothing is set during select (all wakeups are scheduled for
    // strictly later cycles), and the scan iterates a register copy
    // of each plane word. Each pass scans only its own priority
    // class: the highPrio plane (fixed at dispatch) filters at the
    // word level, so pass 0 never visits a low-priority slot and
    // vice versa.
    for (int pass = 0; pass < 2 && avail > 0; ++pass)
        scanSetBitsFromAnd(
            masks_.ready.words(), masks_.highPrio.words(), pass != 0,
            cfg_.ruu_size, head_, [&](unsigned slot) {
                return selectTry(slot, avail, ports_left, arbitrated);
            });
}

// --------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------

bool
Core::setupOperands(unsigned slot)
{
    const isa::StaticInst &si = slots_.rec[slot]->inst;
    SlotOperands &ops = slots_.ops[slot];
    SlotCold &c = cold_[slot];

    isa::SrcList raw = si.srcRegs();
    isa::SrcList sched;
    if (si.isStore()) {
        // Stores schedule as address generation only; the data move
        // is handled by the store scheduler at commit (Section 2.3).
        sched.push(raw.regs[1]);
        // Track the data producer to gate store-to-load forwarding.
        c.storeDataProducerSeq = NO_SEQ;
        isa::RegIndex data_reg = raw.regs[0];
        if (!isa::isZeroReg(data_reg)) {
            ProducerRef pr = lastProducer_[data_reg];
            if (pr.seq != NO_SEQ) {
                c.storeDataProducerSeq = pr.seq;
                c.storeDataProducerSlot = pr.slot;
            }
        }
        if (isa::isZeroReg(sched.regs[0]))
            sched.count = 0;
    } else {
        sched = si.uniqueSrcRegs();
    }

    ops.numSrc = uint8_t(sched.count);
    ops.requireDataReady = false;
    unsigned pending = 0;
    for (unsigned i = 0; i < sched.count; ++i) {
        SrcOperand &op = ops.src[i];
        const isa::RegIndex reg = sched.regs[i];
        c.leftField[i] = raw.count > 0 && reg == raw.regs[0];

        ProducerRef pr = lastProducer_[reg];
        c.producerSeq[i] = pr.seq;
        op.fromProducer = pr.seq != NO_SEQ;
        // Architectural values read from the register file carry the
        // insert cycle and are excluded from bypass capture in
        // computeRfPorts().
        uint64_t ready_cycle = cycle_;
        if (op.fromProducer) {
            const unsigned p = unsigned(pr.slot);
            HPA_CHECK_CTX(slots_.seq[p] == pr.seq,
                          "stale producer map entry for reg "
                              + std::to_string(unsigned(reg))
                              + ": slot " + std::to_string(pr.slot)
                              + " no longer holds seq "
                              + std::to_string(pr.seq),
                          invariantContext());
            // File the dependence in the producer's dependency-
            // matrix row for operand plane i.
            masks_.dep[i].set(p, slot);
            // The value already broadcast (the wake cycle is NO_CYCLE
            // while the producer is unissued): record its true
            // arrival time, which may still be within a multi-cycle
            // bypass window.
            ready_cycle = slots_.wakeCycle[p];
        }
        const bool ready_now = ready_cycle <= cycle_;
        op.ready = ready_now;
        op.dataReadyCycle = ready_now ? ready_cycle : NO_CYCLE;
        op.slowSide = false;
        op.watched = true;
        op.prefetched = false;
        c.readyAtInsert[i] = ready_now;
        if (!ready_now)
            ++pending;
    }

    const bool two_pending = sched.count == 2 && pending == 2;
    ops.lapOpen = two_pending;

    // Figure 4: ready operands of 2-source instructions at insert.
    if (sched.count == 2)
        stats_.readyAtInsert.sample(2 - pending);

    if (two_pending) {
        const uint64_t pc = slots_.rec[slot]->pc;
        c.predRightLast = lap_.predictRightLast(pc);
        c.shadowPredBits = lapMon_.snapshot(pc);
        c.wakesSeen = 0;
    }
    return two_pending;
}

void
Core::placeOperands(unsigned slot, bool two_pending)
{
    SlotOperands &ops = slots_.ops[slot];
    const SlotCold &c = cold_[slot];
    switch (cfg_.wakeup) {
      case WakeupModel::Sequential:
      case WakeupModel::SequentialNoPred: {
        // Wire the side predicted to arrive last to the fast bus
        // (statically the right-hand one without a predictor); a
        // single pending operand sits on the fast side.
        if (!two_pending)
            break;
        bool right_fast = cfg_.wakeup == WakeupModel::SequentialNoPred
            || c.predRightLast;
        for (unsigned i = 0; i < ops.numSrc; ++i)
            ops.src[i].slowSide = c.leftField[i] == right_fast;
        break;
      }
      case WakeupModel::TagElimination:
        // Only the predicted-last operand (or the one pending
        // operand) keeps a comparator on the bus.
        for (unsigned i = 0; i < ops.numSrc; ++i)
            ops.src[i].watched = two_pending
                ? c.leftField[i] != c.predRightLast
                : !c.readyAtInsert[i];
        break;
      case WakeupModel::Conventional:
      case WakeupModel::LoadDelayTracking:
        break; // every operand watches the one fast bus
    }
}

void
Core::prefetchOperands(unsigned slot, unsigned &left)
{
    if (prefetchBandwidth_ == 0)
        return;
    // Only producer-less operands are eligible: a prefetched value can
    // never be invalidated by replay repair, so the buffer stays
    // trivially coherent.
    SlotOperands &ops = slots_.ops[slot];
    const SlotCold &c = cold_[slot];
    for (unsigned i = 0; i < ops.numSrc; ++i) {
        SrcOperand &op = ops.src[i];
        if (!c.readyAtInsert[i] || op.fromProducer)
            continue;
        if (left > 0) {
            --left;
            op.prefetched = true;
            ++stats_.prefetchHits;
        } else {
            ++stats_.prefetchMisses;
        }
    }
}

uint64_t
Core::trackedWake(uint64_t wake, uint64_t complete)
{
    if (!delayTracking_ || wake - cycle_ <= DLT_MAX_DELAY)
        return wake;
    ++stats_.dltSaturated;
    // The completion broadcast cycle, not a cycle later: commit
    // follows completion by at least one cycle, so this is the latest
    // wake the producer is guaranteed to still be in the window to
    // deliver.
    return complete;
}

void
Core::dispatch()
{
    unsigned budget = cfg_.width;
    // Rename-stage map-table lookup ports: two per slot on the base
    // machine, one per slot in the half-price rename extension.
    unsigned rename_ports = cfg_.rename == RenameModel::HalfPort
        ? cfg_.width : 2 * cfg_.width;
    unsigned prefetch_left = prefetchBandwidth_;
    while (budget > 0 && !fetchQueue_.empty() && !windowFull()) {
        FetchedInst &fi = fetchQueue_.front();
        if (fi.earliestDispatch > cycle_)
            break;
        if (fi.rec->inst.isMemRef() && lsqCount_ >= cfg_.lsq_size)
            break;
        unsigned lookups = fi.rec->inst.uniqueSrcRegs().count;
        if (lookups > rename_ports) {
            ++stats_.renameStalls;
            // The group splits here — unless nothing has dispatched
            // yet this cycle, in which case the lone instruction
            // serializes through the port (guarantees progress on
            // degenerate 1-wide configurations).
            if (budget != cfg_.width)
                break;
            rename_ports = 0;
        } else {
            rename_ports -= lookups;
        }

        // Slot reuse: the previous tenant left its occupancy, ready
        // and issued bits clear on its way out, but its dependency
        // rows stale (commit skips the row clear). Only the fields
        // the new tenant reads are written.
        const unsigned slot = tail_;
        const func::ExecRecord &rec = *fi.rec;
        const uint64_t seq = nextSeq_++;
        masks_.clearProducer(slot);
        masks_.occupancy.set(slot);
        slots_.rec[slot] = fi.rec;
        slots_.seq[slot] = seq;
        slots_.issueToken[slot] = 0;
        slots_.completeCycle[slot] = NO_CYCLE;
        slots_.wakeCycle[slot] = NO_CYCLE;
        SlotCold &c = cold_[slot];
        c.fetchCycle = fi.fetchCycle;
        c.dispatchCycle = cycle_;
        if (fi.mispredicted)
            stalledBranchSlot_ = int(slot);

        // Cache the fixed pass-0 select class (Section 2.1: loads
        // and branches first) in the bit plane.
        if (rec.inst.isLoad() || rec.inst.isControl())
            masks_.highPrio.set(slot);
        else
            masks_.highPrio.clear(slot);

        const bool two_pending = setupOperands(slot);
        placeOperands(slot, two_pending);
        prefetchOperands(slot, prefetch_left);
        updateReadySlot(slot);
        if (rec.inst.isStore())
            stores_.push_back(StoreEntry{
                seq, rec.effAddr, rec.effAddr + rec.inst.memSize(),
                slot});

        isa::RegIndex dest = rec.inst.destReg();
        if (dest != isa::NO_REG && !isa::isZeroReg(dest))
            lastProducer_[dest] = ProducerRef{seq, int(slot)};

        if (rec.inst.isMemRef())
            ++lsqCount_;

        if (++tail_ == cfg_.ruu_size)
            tail_ = 0;
        ++windowCount_;
        ++stats_.dispatched;
        --budget;
        fetchQueue_.pop_front();
    }
}

// --------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------

// hpa-prove-allow(P3): source_.next() is the one sanctioned virtual
// call on the hot path — the InstSource boundary that switches
// between trace replay and the execution-driven emulator; one call
// per fetched instruction, outside the paper's measured loops
void
Core::fetch()
{
    if (sourceDone_ && !lookahead_)
        return;
    if (fetchStalledOnBranch_) {
        // Resume once the mispredicted branch completes (its slot's
        // completeCycle has been reached; it is known from dispatch
        // on): the redirect costs at least min_branch_penalty cycles
        // from the branch's fetch.
        if (stalledBranchSlot_ < 0)
            return;
        const unsigned b = unsigned(stalledBranchSlot_);
        const uint64_t complete = slots_.completeCycle[b];
        if (complete > cycle_)
            return;
        fetchStalledOnBranch_ = false;
        stalledBranchSlot_ = -1;
        fetchResumeCycle_ = std::max(
            complete + 1, cold_[b].fetchCycle + cfg_.min_branch_penalty);
    }
    if (cycle_ < fetchResumeCycle_)
        return;

    unsigned budget = cfg_.width;
    size_t fq_cap = size_t(cfg_.front_end_depth) * cfg_.width;
    uint64_t fetched_line = ~0ull;
    uint64_t line_mask = ~uint64_t(hier_.il1().config().line_bytes - 1);

    while (budget > 0 && fetchQueue_.size() < fq_cap && lookahead_) {
        const func::ExecRecord &rec = *lookahead_;

        uint64_t line = rec.pc & line_mask;
        if (line != fetched_line) {
            unsigned lat = hier_.fetchAccess(rec.pc);
            unsigned hit_lat = hier_.il1().config().latency;
            if (lat > hit_lat) {
                // IL1 miss: fetch stalls for the fill.
                fetchResumeCycle_ = cycle_ + (lat - hit_lat);
                return;
            }
            fetched_line = line;
        }

        FetchedInst fi;
        fi.rec = lookahead_;
        fi.fetchCycle = cycle_;
        fi.earliestDispatch = cycle_ + cfg_.front_end_depth;
        fi.mispredicted = false;

        bool stop_group = false;
        if (rec.inst.isControl()) {
            ++stats_.fetchedControl;
            bpred::Prediction pred = bp_.predict(rec.pc, rec.inst);
            bool mispred = pred.taken != rec.taken
                || (rec.taken
                    && (!pred.targetKnown
                        || pred.target != rec.nextPc));
            bp_.resolve(rec.pc, rec.inst, rec.taken, rec.nextPc);
            if (mispred) {
                ++stats_.branchMispredicts;
                if (rec.inst.isCondBranch()
                    && pred.taken != rec.taken)
                    ++bp_.dirMispredicts;
                else
                    ++bp_.targetMispredicts;
                fi.mispredicted = true;
                fetchStalledOnBranch_ = true;
                stop_group = true;
            } else if (rec.taken) {
                // Fetch stops at the first taken branch in a cycle.
                stop_group = true;
            }
        }

        fetchQueue_.push_back(fi);
        lookahead_ = source_.next();
        if (!lookahead_)
            sourceDone_ = true;
        --budget;
        if (stop_group)
            break;
    }
}

} // namespace hpa::core
