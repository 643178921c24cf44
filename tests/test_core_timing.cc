/** @file Exact-timing litmus tests driven by the commit listener:
 *  per-instruction pipeline timestamps must follow the documented
 *  conventions (back-to-back issue, load-to-use latency, slow-bus
 *  delay, sequential-RF stretch, replay re-issue) and the structural
 *  occupancy invariants (window, LSQ, commit width). */

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulation.hh"

namespace
{

using namespace hpa;
using core::CoreConfig;
using core::CommittedInst;

struct Stamp
{
    uint64_t seq, pc;
    uint64_t fetch, dispatch, issue, complete, commit;
    uint32_t issues;
    bool seq_ra;
    bool is_mem;
};

std::vector<Stamp>
trace(const std::string &src, const CoreConfig &cfg)
{
    auto prog = assembler::assemble(src);
    sim::Simulation s(prog, cfg);
    std::vector<Stamp> out;
    s.core().setCommitListener(
        [&out](const CommittedInst &di, uint64_t commit) {
            out.push_back(Stamp{di.seq, di.rec->pc, di.fetchCycle,
                                di.dispatchCycle, di.issueCycle,
                                di.completeCycle, commit,
                                di.issueToken, di.seqRegAccess,
                                di.rec->inst.isMemRef()});
        });
    s.run(2000000);
    EXPECT_TRUE(s.emulator().halted());
    return out;
}

/** Stamps of the instruction at a given static PC offset (words). */
std::vector<Stamp>
atWord(const std::vector<Stamp> &t, uint64_t word)
{
    std::vector<Stamp> out;
    for (const Stamp &s : t)
        if (s.pc == 0x1000 + 4 * word)
            out.push_back(s);
    return out;
}

TEST(ExactTiming, BackToBackDependentAlusIssueOneApart)
{
    // Straight-line dependent adds (no loop, no branches).
    auto t = trace(R"(
        li  r1, 1
        add r1, #1, r1
        add r1, #1, r1
        add r1, #1, r1
        add r1, #1, r1
        halt)", core::fourWideConfig());
    // Words 1..4 are the chain.
    for (int w = 2; w <= 4; ++w) {
        auto cur = atWord(t, w);
        auto prev = atWord(t, w - 1);
        ASSERT_EQ(cur.size(), 1u);
        EXPECT_EQ(cur[0].issue, prev[0].issue + 1) << "word " << w;
    }
}

TEST(ExactTiming, AluCompletesSchedToExecPlusLatencyMinusOne)
{
    CoreConfig cfg = core::fourWideConfig();
    auto t = trace("li r1, 1\nadd r1, #1, r2\nmul r1, #3, r3\nhalt",
                   cfg);
    auto add = atWord(t, 1);
    auto mul = atWord(t, 2);
    ASSERT_EQ(add.size(), 1u);
    EXPECT_EQ(add[0].complete,
              add[0].issue + cfg.schedToExec() + 1 - 1);
    EXPECT_EQ(mul[0].complete,
              mul[0].issue + cfg.schedToExec() + 3 - 1);
}

TEST(ExactTiming, ExtraRfStageShiftsCompletion)
{
    CoreConfig cfg = core::fourWideConfig();
    cfg.regfile = core::RegfileModel::ExtraStage;
    auto t = trace("li r1, 1\nadd r1, #1, r2\nhalt", cfg);
    auto add = atWord(t, 1);
    EXPECT_EQ(add[0].complete, add[0].issue + cfg.schedToExec());
    EXPECT_EQ(cfg.schedToExec(),
              core::fourWideConfig().schedToExec() + 1);
}

TEST(ExactTiming, LoadToUseIsOnePlusDl1Latency)
{
    // Warm the line, then let the cold-miss shadow fully drain
    // behind a long serial chain before the measured load issues.
    std::string src = "        la  r1, v\n        ldq r2, 0(r1)\n";
    src += "        li  r5, 1\n";
    for (int i = 0; i < 80; ++i)
        src += "        add r5, #1, r5\n";
    src += R"(
        ldq r3, 0(r1)
        add r3, #1, r4
        halt
        .data
        .align 8
v:      .word 5)";
    auto t = trace(src, core::fourWideConfig());
    // Words: la(0,1), warm ldq(2), li(3), 80 adds(4..83),
    // measured ldq(84), use(85).
    auto ld = atWord(t, 84);
    auto use = atWord(t, 85);
    ASSERT_EQ(ld.size(), 1u);
    ASSERT_EQ(use.size(), 1u);
    EXPECT_EQ(ld[0].issues, 1u);   // warmed: no replay
    EXPECT_EQ(use[0].issue, ld[0].issue + 3);
}

TEST(ExactTiming, SlowBusDelaysMispredictedSide)
{
    // NoPred statically fast-sides the right operand; the actual
    // last arriver is the LEFT (mul), so the consumer sees its tag
    // one cycle late versus the conventional machine.
    const char *src = R"(
        li  r1, 1
        mul r1, #3, r2
        add r1, #2, r4
        add r2, r4, r5
        halt)";
    auto conv = trace(src, core::fourWideConfig());
    CoreConfig np = core::fourWideConfig();
    np.wakeup = core::WakeupModel::SequentialNoPred;
    auto seq = trace(src, np);
    auto c = atWord(conv, 3);
    auto s = atWord(seq, 3);
    ASSERT_EQ(c.size(), 1u);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s[0].issue, c[0].issue + 1);
}

TEST(ExactTiming, SequentialRfStretchesDependentByOneCycle)
{
    // Both operands of the add sit in the register file (produced
    // long before): +1 cycle to its consumer under sequential access.
    std::string src = "        li  r8, 3\n        li  r9, 4\n";
    // Serial filler so the measured add dispatches well after its
    // operands' broadcasts (they must come from the register file).
    src += "        li  r20, 1\n";
    // 13 fillers put the measured pair at words 16/17, inside one
    // 32-byte fetch line (cold IL1 misses land on line boundaries).
    for (int i = 0; i < 13; ++i)
        src += "        add r20, #1, r20\n";
    src += "        add r8, r9, r2\n        add r2, #1, r3\n"
           "        halt\n";
    auto base = trace(src, core::fourWideConfig());
    CoreConfig sq = core::fourWideConfig();
    sq.regfile = core::RegfileModel::SequentialAccess;
    auto seq = trace(src, sq);
    auto b2 = atWord(base, 16), b3 = atWord(base, 17);
    auto s2 = atWord(seq, 16), s3 = atWord(seq, 17);
    ASSERT_EQ(s2.size(), 1u);
    EXPECT_TRUE(s2[0].seq_ra);
    EXPECT_FALSE(b2[0].seq_ra);
    // The consumer's issue gap to its producer grows by one cycle.
    EXPECT_EQ(s3[0].issue - s2[0].issue,
              (b3[0].issue - b2[0].issue) + 1);
}

TEST(ExactTiming, MissedLoadDependentsReissue)
{
    // A cold load misses; its dependent issues speculatively, gets
    // squashed, and re-issues once the data is really back.
    auto t = trace(R"(
        la  r1, far
        ldq r2, 0(r1)
        add r2, #1, r3
        halt
        .data
        .align 8
far:    .word 9)", core::fourWideConfig());
    auto ld = atWord(t, 2);    // la expands to two instructions
    auto dep = atWord(t, 3);
    ASSERT_EQ(ld.size(), 1u);
    ASSERT_EQ(dep.size(), 1u);
    // The dependent was pulled back at least once.
    EXPECT_GE(dep[0].issues, 2u);
    // Its final issue waits for the true memory latency (cold DL1 +
    // L2 + memory = 60, plus agen).
    EXPECT_GE(dep[0].issue, ld[0].issue + 61);
}

TEST(Occupancy, IssueGroupsRespectWidthAndAluCount)
{
    // Ten independent adds: at most 4 can issue per cycle (4 ALUs,
    // 4-wide).
    auto t = trace(R"(
        add r1, #1, r1
        add r2, #1, r2
        add r3, #1, r3
        add r4, #1, r4
        add r5, #1, r5
        add r6, #1, r6
        add r7, #1, r7
        add r8, #1, r8
        add r9, #1, r9
        add r10, #1, r10
        halt)", core::fourWideConfig());
    std::map<uint64_t, unsigned> per_cycle;
    for (const Stamp &s : t)
        ++per_cycle[s.issue];
    for (auto &[cycle, n] : per_cycle)
        EXPECT_LE(n, 4u) << "cycle " << cycle;
}

TEST(Occupancy, CommitWidthBounded)
{
    core::SyntheticParams sp;
    sp.num_insts = 5000;
    core::SyntheticSource src(sp);
    core::Core c(core::fourWideConfig(), src);
    std::map<uint64_t, unsigned> per_cycle;
    c.setCommitListener([&](const CommittedInst &, uint64_t commit) {
        ++per_cycle[commit];
    });
    c.run(2000000);
    for (auto &[cycle, n] : per_cycle)
        ASSERT_LE(n, 4u) << "cycle " << cycle;
}

TEST(Occupancy, WindowAndLsqNeverExceedConfiguredSize)
{
    CoreConfig cfg = core::fourWideConfig();
    cfg.ruu_size = 16;
    cfg.lsq_size = 6;
    core::SyntheticParams sp;
    sp.num_insts = 4000;
    sp.load_frac = 0.3;
    sp.store_frac = 0.15;
    core::SyntheticSource src(sp);
    core::Core c(cfg, src);

    // Sweep-line over [dispatch, commit) intervals.
    std::vector<std::pair<uint64_t, int>> events;     // window
    std::vector<std::pair<uint64_t, int>> mem_events; // lsq
    c.setCommitListener([&](const CommittedInst &di, uint64_t commit) {
        events.push_back({di.dispatchCycle, +1});
        events.push_back({commit, -1});
        if (di.rec->inst.isMemRef()) {
            mem_events.push_back({di.dispatchCycle, +1});
            mem_events.push_back({commit, -1});
        }
    });
    c.run(2000000);
    ASSERT_TRUE(c.done());

    auto max_occupancy = [](std::vector<std::pair<uint64_t, int>> &ev) {
        std::sort(ev.begin(), ev.end());
        int cur = 0, peak = 0;
        for (auto &[cycle, delta] : ev) {
            cur += delta;
            peak = std::max(peak, cur);
        }
        return peak;
    };
    EXPECT_LE(max_occupancy(events), int(cfg.ruu_size));
    EXPECT_LE(max_occupancy(mem_events), int(cfg.lsq_size));
}

TEST(Occupancy, CommitFollowsCompleteByAtLeastOneCycle)
{
    auto t = trace(R"(
        li r1, 50
loop:   sub r1, #1, r1
        bne r1, loop
        halt)", core::fourWideConfig());
    for (const Stamp &s : t)
        ASSERT_GT(s.commit, s.complete);
}

// ---- Load-delay-tracking wakeup (WakeupModel::LoadDelayTracking) --

TEST(PolicyTiming, DltSaturatesDividerWakeupToCompletion)
{
    // IntDiv latency (20) exceeds the 4-bit delay counter
    // (DLT_MAX_DELAY = 15): the dependent's wakeup saturates to the
    // divider's completion broadcast, one cycle after complete.
    const char *src = R"(
        li  r1, 84
        div r1, #4, r2
        add r2, #1, r3
        halt)";
    auto prog = assembler::assemble(src);

    CoreConfig conv = core::fourWideConfig();
    sim::Simulation sc(prog, conv);
    std::vector<Stamp> tc;
    sc.core().setCommitListener(
        [&tc](const CommittedInst &di, uint64_t commit) {
            tc.push_back(Stamp{di.seq, di.rec->pc, di.fetchCycle,
                               di.dispatchCycle, di.issueCycle,
                               di.completeCycle, commit,
                               di.issueToken, di.seqRegAccess,
                               di.rec->inst.isMemRef()});
        });
    sc.run(100000);

    CoreConfig dlt = core::fourWideConfig();
    dlt.wakeup = core::WakeupModel::LoadDelayTracking;
    sim::Simulation sd(prog, dlt);
    std::vector<Stamp> td;
    sd.core().setCommitListener(
        [&td](const CommittedInst &di, uint64_t commit) {
            td.push_back(Stamp{di.seq, di.rec->pc, di.fetchCycle,
                               di.dispatchCycle, di.issueCycle,
                               di.completeCycle, commit,
                               di.issueToken, di.seqRegAccess,
                               di.rec->inst.isMemRef()});
        });
    sd.run(100000);

    auto div_c = atWord(tc, 1), use_c = atWord(tc, 2);
    auto div_d = atWord(td, 1), use_d = atWord(td, 2);
    ASSERT_EQ(div_c.size(), 1u);
    ASSERT_EQ(use_c.size(), 1u);
    ASSERT_EQ(div_d.size(), 1u);
    ASSERT_EQ(use_d.size(), 1u);
    // Conventional: wakeup broadcast rides the 20-cycle tag timing.
    EXPECT_EQ(use_c[0].issue, div_c[0].issue + 20);
    // DLT: the counter saturated, so the dependent waits for the
    // completion broadcast instead.
    EXPECT_EQ(use_d[0].issue, div_d[0].complete);
    EXPECT_GT(use_d[0].issue, use_c[0].issue);
    EXPECT_EQ(sd.core().stats().dltSaturated.value(), 1u);
    EXPECT_EQ(sc.core().stats().dltSaturated.value(), 0u);
}

TEST(PolicyTiming, DltLeavesShortLatencyWakeupsUntouched)
{
    // Every producer here fits the delay counter (ALU latencies and
    // mul's 3 cycles are all <= 15): DLT must be timing-identical to
    // the conventional scheduler and never saturate.
    const char *src = R"(
        li  r1, 7
        mul r1, #3, r2
        add r2, #1, r3
        add r3, #1, r4
        halt)";
    CoreConfig conv = core::fourWideConfig();
    CoreConfig dlt = core::fourWideConfig();
    dlt.wakeup = core::WakeupModel::LoadDelayTracking;
    auto tc = trace(src, conv);
    auto td = trace(src, dlt);
    ASSERT_EQ(tc.size(), td.size());
    for (size_t i = 0; i < tc.size(); ++i) {
        EXPECT_EQ(tc[i].issue, td[i].issue) << "seq " << tc[i].seq;
        EXPECT_EQ(tc[i].complete, td[i].complete)
            << "seq " << tc[i].seq;
    }
}

TEST(PolicyTiming, DltSurvivesContinuousCrossValidation)
{
    CoreConfig cfg = core::fourWideConfig();
    cfg.wakeup = core::WakeupModel::LoadDelayTracking;
    cfg.check_interval = 1;
    EXPECT_NO_THROW(trace(R"(
        li  r1, 60
        la  r2, v
loop:   ldq r3, 0(r2)
        div r3, #3, r4
        add r4, #1, r5
        stq r5, 0(r2)
        sub r1, #1, r1
        bne r1, loop
        halt
        .data
        .align 8
v:      .word 9)", cfg));
}

// ---- Operand-prefetch register file (RegfileModel::PrefetchBuffer)

TEST(PolicyTiming, PrefetchBufferServesArchitecturalReads)
{
    // r1/r2 are architecturally stable by the time the loop body
    // dispatches its reads: those operands are prefetch-eligible
    // (ready at insert, no in-flight producer) and must hit the
    // buffer, skipping issue-time port arbitration.
    const char *src = R"(
        li  r1, 5
        li  r2, 9
        li  r7, 40
loop:   add r1, r2, r3
        add r1, r2, r4
        add r1, r2, r5
        sub r7, #1, r7
        bne r7, loop
        halt)";
    CoreConfig cfg = core::fourWideConfig();
    cfg.regfile = core::RegfileModel::PrefetchBuffer;
    auto prog = assembler::assemble(src);
    sim::Simulation s(prog, cfg);
    s.run(100000);
    EXPECT_GT(s.core().stats().prefetchHits.value(), 0u);

    // The buffer has per-cycle bandwidth (width / 2 = 2): the loop
    // body dispatches three adds with six eligible operands, so a
    // same-cycle dispatch group overflows the bandwidth and must
    // record misses — grants are bounded, not free.
    EXPECT_GT(s.core().stats().prefetchMisses.value(), 0u);
}

TEST(PolicyTiming, PrefetchSurvivesContinuousCrossValidation)
{
    CoreConfig cfg = core::fourWideConfig();
    cfg.regfile = core::RegfileModel::PrefetchBuffer;
    cfg.check_interval = 1;
    EXPECT_NO_THROW(trace(R"(
        li  r1, 60
        la  r2, v
loop:   ldq r3, 0(r2)
        mul r3, #3, r4
        add r4, r3, r5
        stq r5, 0(r2)
        sub r1, #1, r1
        bne r1, loop
        halt
        .data
        .align 8
v:      .word 4)", cfg));
}

} // namespace
