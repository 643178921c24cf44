/** @file Differential and fuzz tests: decoder robustness on random
 *  words, disassemble->assemble round trips, sparse memory vs a
 *  reference map, cache vs a reference LRU model, emulator
 *  determinism on random straight-line programs, and the core's
 *  incremental scheduler lists vs a brute-force window recompute. */

#include <map>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "core/core.hh"
#include "core/event_queue.hh"
#include "core/inst_source.hh"
#include "core/issue_window.hh"
#include "func/emulator.hh"
#include "mem/cache.hh"

namespace
{

using namespace hpa;
using isa::Opcode;

TEST(DecoderFuzz, RandomWordsNeverCrashAndReencodeStably)
{
    std::mt19937_64 rng(42);
    unsigned decoded = 0;
    for (int i = 0; i < 200000; ++i) {
        auto w = static_cast<isa::MachInst>(rng());
        auto si = isa::decode(w);
        if (!si)
            continue;
        ++decoded;
        // Decode must be stable across an encode round trip.
        auto si2 = isa::decode(isa::encode(*si));
        ASSERT_TRUE(si2.has_value());
        EXPECT_EQ(si2->op, si->op);
        EXPECT_EQ(si2->ra, si->ra);
        EXPECT_EQ(si2->rb, si->rb);
        EXPECT_EQ(si2->rc, si->rc);
        EXPECT_EQ(si2->useLiteral, si->useLiteral);
        EXPECT_EQ(si2->literal, si->literal);
        EXPECT_EQ(si2->disp, si->disp);
        // Disassembly of any legal instruction is printable.
        EXPECT_FALSE(si->disassemble().empty());
    }
    // A healthy fraction of random words decode.
    EXPECT_GT(decoded, 10000u);
}

TEST(DisasmFuzz, DisassembleAssembleRoundTrip)
{
    std::mt19937_64 rng(7);
    auto reg = [&] { return isa::RegIndex(rng() & 31); };

    for (int i = 0; i < 4000; ++i) {
        isa::StaticInst si;
        switch (rng() % 6) {
          case 0: {
            auto op = Opcode(rng() % (unsigned(Opcode::S8ADD) + 1));
            si = rng() & 1
                ? isa::makeOpImm(op, reg(), uint8_t(rng()), reg())
                : isa::makeOp(op, reg(), reg(), reg());
            break;
          }
          case 1: {
            unsigned base = unsigned(Opcode::ADDF);
            auto op = Opcode(base + rng() % 7);   // 2-source fp ops
            si = isa::makeOp(op, reg(), reg(), reg());
            break;
          }
          case 2: {
            const Opcode mem[] = {Opcode::LDA, Opcode::LDAH,
                                  Opcode::LDBU, Opcode::LDW,
                                  Opcode::LDL, Opcode::LDQ,
                                  Opcode::STB, Opcode::STW,
                                  Opcode::STL, Opcode::STQ};
            si = isa::makeMem(mem[rng() % 10], reg(), reg(),
                              int32_t(rng() % 65536) - 32768);
            break;
          }
          case 3: {
            const Opcode br[] = {Opcode::BR, Opcode::BSR, Opcode::BEQ,
                                 Opcode::BNE, Opcode::BLT, Opcode::BLE,
                                 Opcode::BGT, Opcode::BGE,
                                 Opcode::BLBC, Opcode::BLBS};
            si = isa::makeBranch(br[rng() % 10], reg(),
                                 int32_t(rng() % 1024) - 512);
            break;
          }
          case 4: {
            const Opcode j[] = {Opcode::JMP, Opcode::JSR, Opcode::RET};
            si = isa::makeJump(j[rng() % 3], reg(), reg());
            break;
          }
          default:
            si = rng() & 1 ? isa::makeSystem(Opcode::HALT)
                           : isa::makeSystem(Opcode::OUT, reg());
        }

        std::string text = si.disassemble();
        assembler::Program p;
        ASSERT_NO_THROW(p = assembler::assemble(text)) << text;
        ASSERT_EQ(p.code.size(), 1u) << text;
        auto back = isa::decode(p.code[0]);
        ASSERT_TRUE(back.has_value()) << text;
        EXPECT_EQ(back->op, si.op) << text;
        EXPECT_EQ(back->disp, si.disp) << text;
        EXPECT_EQ(isa::encode(*back), isa::encode(si)) << text;
    }
}

TEST(MemoryFuzz, MatchesReferenceMap)
{
    std::mt19937_64 rng(99);
    func::Memory mem;
    std::map<uint64_t, uint8_t> ref;

    for (int i = 0; i < 50000; ++i) {
        // Cluster addresses to hit page boundaries often.
        uint64_t addr = (rng() % 8) * func::Memory::PAGE_SIZE
            + (rng() % 32) + func::Memory::PAGE_SIZE - 16;
        unsigned size = 1u << (rng() % 4);
        if (rng() & 1) {
            uint64_t v = rng();
            mem.write(addr, v, size);
            for (unsigned b = 0; b < size; ++b)
                ref[addr + b] = uint8_t(v >> (8 * b));
        } else {
            uint64_t got = mem.read(addr, size);
            uint64_t want = 0;
            for (unsigned b = 0; b < size; ++b) {
                auto it = ref.find(addr + b);
                uint64_t byte = it == ref.end() ? 0 : it->second;
                want |= byte << (8 * b);
            }
            ASSERT_EQ(got, want) << "addr " << addr << " size " << size;
        }
    }
}

/** Reference set-associative LRU cache. */
class RefCache
{
  public:
    RefCache(unsigned sets, unsigned assoc, unsigned line)
        : sets_(sets), assoc_(assoc), line_(line), data_(sets)
    {}

    bool
    access(uint64_t addr)
    {
        uint64_t tag = addr / line_;
        auto &set = data_[(addr / line_) % sets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == tag) {
                set.erase(it);
                set.insert(set.begin(), tag);
                return true;
            }
        }
        set.insert(set.begin(), tag);
        if (set.size() > assoc_)
            set.pop_back();
        return false;
    }

  private:
    unsigned sets_, assoc_, line_;
    std::vector<std::vector<uint64_t>> data_;
};

class CacheFuzz
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(CacheFuzz, MatchesReferenceLru)
{
    auto [assoc, line] = GetParam();
    unsigned sets = 16;
    mem::Cache cache(mem::CacheConfig{
        "fuzz", uint64_t(sets) * assoc * line, assoc, line, 1});
    RefCache ref(sets, assoc, line);

    std::mt19937_64 rng(assoc * 1000 + line);
    for (int i = 0; i < 30000; ++i) {
        uint64_t addr = rng() % (sets * assoc * line * 4);
        bool hit = cache.access(addr, rng() & 1).hit;
        bool ref_hit = ref.access(addr);
        ASSERT_EQ(hit, ref_hit) << "i=" << i << " addr=" << addr;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheFuzz,
    ::testing::Values(std::tuple{1u, 16u}, std::tuple{2u, 16u},
                      std::tuple{4u, 32u}, std::tuple{8u, 64u}));

/**
 * Ready-list invariant fuzz: drive the core cycle by cycle on a
 * synthetic committed path (loads, stores, branches, replays) under
 * every wakeup/recovery/regfile family and assert after each tick
 * that the incrementally maintained ready/issued/store lists match a
 * brute-force recompute over the whole window. Small window and LSQ
 * force frequent ring-buffer wraps and replay squashes.
 */
TEST(CoreReadyListFuzz, IncrementalListsMatchBruteForceEveryCycle)
{
    struct ModelMix
    {
        core::WakeupModel wakeup;
        core::RegfileModel regfile;
        core::RecoveryModel recovery;
        const char *tag;
    };
    const ModelMix mixes[] = {
        {core::WakeupModel::Conventional, core::RegfileModel::TwoPort,
         core::RecoveryModel::NonSelective, "conv/nonsel"},
        {core::WakeupModel::Conventional, core::RegfileModel::TwoPort,
         core::RecoveryModel::Selective, "conv/sel"},
        {core::WakeupModel::Sequential,
         core::RegfileModel::SequentialAccess,
         core::RecoveryModel::NonSelective, "seqw/seqrf"},
        {core::WakeupModel::SequentialNoPred,
         core::RegfileModel::TwoPort, core::RecoveryModel::Selective,
         "seqnp/sel"},
        {core::WakeupModel::TagElimination,
         core::RegfileModel::TwoPort,
         core::RecoveryModel::NonSelective, "tagelim/nonsel"},
    };

    for (const auto &mix : mixes) {
        for (uint64_t seed : {1ull, 77ull, 4242ull}) {
            core::SyntheticParams sp;
            sp.num_insts = 3000;
            sp.seed = seed;
            sp.load_frac = 0.25;
            sp.store_frac = 0.15;
            core::SyntheticSource src(sp);

            core::CoreConfig cfg = core::fourWideConfig();
            cfg.ruu_size = 32;
            cfg.lsq_size = 16;
            cfg.wakeup = mix.wakeup;
            cfg.regfile = mix.regfile;
            cfg.recovery = mix.recovery;

            core::Core c(cfg, src);
            uint64_t guard = 0;
            while (!c.done() && guard++ < 200000) {
                c.tick();
                ASSERT_TRUE(c.planesConsistent())
                    << mix.tag << " seed " << seed << " cycle "
                    << c.cycle();
            }
            ASSERT_TRUE(c.done()) << mix.tag << " seed " << seed;
            EXPECT_TRUE(c.readyListSnapshot().empty())
                << mix.tag << " seed " << seed;
            EXPECT_EQ(c.stats().committed.value(), sp.num_insts)
                << mix.tag << " seed " << seed;
        }
    }
}

TEST(CalendarQueueFuzz, MatchesMapReferenceIncludingOverflow)
{
    // Differential fuzz of the calendar event queue against the
    // std::map<cycle, per-rank vectors> structure it replaced: random
    // deltas spanning the ring (1..255), the exact ring horizon
    // (255/256 boundary) and far-future overflow territory (up to ~8
    // ring spans), with new events scheduled while a bucket is being
    // drained — exactly what core event handlers do, and a random
    // delivery rank per event so the rank-split planes (including
    // overflow migration per plane) are exercised. Per cycle each
    // rank's drained vector must match the reference in content AND
    // order.
    using RankedBucket = std::array<std::vector<uint32_t>, 3>;
    for (uint64_t seed : {7ull, 1234ull, 998877ull}) {
        std::mt19937_64 rng(seed);
        core::CalendarQueue<uint32_t, 3> q; // 256-slot default ring
        std::map<uint64_t, RankedBucket> ref;
        uint32_t next_id = 0;

        auto scheduleRandom = [&](uint64_t now) {
            uint64_t delta;
            switch (rng() % 4) {
              case 0:
                delta = 1 + rng() % 254;             // ring interior
                break;
              case 1:
                delta = 254 + rng() % 4;             // 254..257: the
                break;                               // ring horizon
              case 2:
                delta = 257 + rng() % 1791;          // overflow
                break;
              default:
                delta = 1 + rng() % 2047;            // anywhere
                break;
            }
            uint32_t id = next_id++;
            unsigned rank = unsigned(rng() % 3);
            q.schedule(now + delta, now, id, rank);
            ref[now + delta][rank].push_back(id);
        };

        uint64_t now = 0;
        for (int step = 0; step < 4000; ++step) {
            ++now;
            RankedBucket &bucket = q.beginCycle(now);
            auto it = ref.find(now);
            const RankedBucket empty;
            const RankedBucket &want =
                it != ref.end() ? it->second : empty;
            ASSERT_EQ(bucket, want)
                << "seed " << seed << " cycle " << now;
            // Handlers schedule follow-up events mid-drain; the
            // bucket reference must stay valid and unperturbed.
            size_t before = bucket[0].size() + bucket[1].size()
                + bucket[2].size();
            for (unsigned k = rng() % 4; k > 0; --k)
                scheduleRandom(now);
            ASSERT_EQ(bucket[0].size() + bucket[1].size()
                          + bucket[2].size(),
                      before)
                << "seed " << seed << " cycle " << now;
            q.endCycle(now);
            if (it != ref.end())
                ref.erase(it);
        }

        // Drain everything left so the accounting closes.
        size_t left = 0;
        for (const auto &[when, evs] : ref)
            for (const auto &r : evs)
                left += r.size();
        ASSERT_EQ(q.pending(), left) << "seed " << seed;
        while (!ref.empty()) {
            ++now;
            RankedBucket &bucket = q.beginCycle(now);
            auto it = ref.find(now);
            if (it != ref.end()) {
                ASSERT_EQ(bucket, it->second)
                    << "seed " << seed << " cycle " << now;
                ref.erase(it);
            } else {
                ASSERT_TRUE(bucket[0].empty() && bucket[1].empty()
                            && bucket[2].empty())
                    << "seed " << seed << " cycle " << now;
            }
            q.endCycle(now);
        }
        ASSERT_EQ(q.pending(), 0u) << "seed " << seed;
        ASSERT_EQ(q.overflowPending(), 0u) << "seed " << seed;
    }
}

TEST(CoreEventOverflowFuzz, FarFutureLatenciesKeepListsConsistent)
{
    // Drive real cores whose completion events land beyond the
    // 256-cycle calendar ring (memory latency 1500, div-heavy
    // synthetic streams), so load-miss completions take the overflow
    // path while ALU wakes stay in the ring. The incremental
    // scheduler lists and the consumer pool must stay consistent
    // every cycle, and the run must still commit every instruction.
    for (uint64_t seed : {5ull, 909ull}) {
        core::SyntheticParams sp;
        sp.num_insts = 2000;
        sp.seed = seed;
        sp.load_frac = 0.30;
        sp.store_frac = 0.10;
        // Small span so the same lines thrash between hits/misses.
        sp.mem_span = 1 << 14;
        core::SyntheticSource src(sp);

        core::CoreConfig cfg = core::fourWideConfig();
        cfg.ruu_size = 32;
        cfg.lsq_size = 16;
        cfg.mem.mem_latency = 1500; // far past the ring horizon
        cfg.watchdog_cycles = 500000;

        core::Core c(cfg, src);
        uint64_t guard = 0;
        while (!c.done() && guard++ < 2000000) {
            c.tick();
            ASSERT_TRUE(c.planesConsistent())
                << "seed " << seed << " cycle " << c.cycle();
        }
        ASSERT_TRUE(c.done()) << "seed " << seed;
        EXPECT_EQ(c.stats().committed.value(), sp.num_insts)
            << "seed " << seed;
    }
}

/**
 * One ReadyMaskFuzz trial: run @p cfg over @p sp's synthetic stream
 * and, every @p every cycles, cross-validate the issue window's bit
 * planes against planesConsistent() — the brute-force model-
 * readiness predicate (same members, oldest-first order) plus the
 * dependency-matrix completeness check (every in-window producer ->
 * consumer dependence has its bit, so no wakeup can be missed) — and
 * check the structural plane invariants directly: ready and issued
 * are disjoint, both are subsets of occupancy, and a dependency-
 * matrix bit only ever names an occupied consumer slot while its
 * producer is in the window.
 */
void
runMaskTrial(const core::SyntheticParams &sp, const core::CoreConfig &cfg,
             unsigned every, const std::string &label)
{
    core::SyntheticSource src(sp);
    core::Core c(cfg, src);
    uint64_t guard = 0;
    while (!c.done() && guard++ < 400000) {
        c.tick();
        if (guard % every)
            continue;
        ASSERT_TRUE(c.planesConsistent())
            << label << " cycle " << c.cycle();
        const core::IssueWindowMasks &m = c.issueMasks();
        for (unsigned s = 0; s < cfg.ruu_size; ++s) {
            ASSERT_FALSE(m.ready.test(s) && m.issued.test(s))
                << "slot " << s << " both ready and issued, " << label
                << " cycle " << c.cycle();
            if (m.ready.test(s) || m.issued.test(s)) {
                ASSERT_TRUE(m.occupancy.test(s))
                    << "slot " << s << " ready/issued but unoccupied, "
                    << label << " cycle " << c.cycle();
            }
        }
        // While a producer is in the window, each of its dependency
        // bits must name an occupied consumer slot (the header's
        // lifetime invariant).
        for (unsigned p = 0; p < cfg.ruu_size; ++p) {
            if (!m.occupancy.test(p))
                continue;
            for (int plane = 0; plane < 2; ++plane) {
                for (unsigned s = 0; s < cfg.ruu_size; ++s) {
                    if (m.dep[plane].test(p, s)) {
                        ASSERT_TRUE(m.occupancy.test(s))
                            << "dep[" << plane << "] row " << p
                            << " names unoccupied slot " << s << ", "
                            << label << " cycle " << c.cycle();
                    }
                }
            }
        }
    }
    ASSERT_TRUE(c.done()) << label;
    EXPECT_EQ(c.stats().committed.value(), sp.num_insts) << label;
}

/**
 * ReadyMaskFuzz: the issue window's bit planes on randomized
 * dependence chains (runMaskTrial). The randomized trials vary the
 * chain shape (dependence distance, two-source fraction, memory mix)
 * and rotate the wakeup model so the fast/slow planes and the
 * tag-elimination path all get traffic; they validate every third
 * cycle. The fixed-seed trials add dense slow-bus traffic — sequential
 * wakeup with sequential register access, half the instructions
 * two-source, a quarter loads — validated every cycle.
 */
TEST(ReadyMaskFuzz, PlanesMatchModelReadinessOnRandomDepChains)
{
    const core::WakeupModel wakeups[] = {
        core::WakeupModel::Conventional,
        core::WakeupModel::Sequential,
        core::WakeupModel::SequentialNoPred,
        core::WakeupModel::TagElimination,
        core::WakeupModel::LoadDelayTracking,
    };
    core::CoreConfig base = core::fourWideConfig();
    base.ruu_size = 32;
    base.lsq_size = 16;

    std::mt19937_64 rng(20260808);
    for (int trial = 0; trial < 10; ++trial) {
        core::SyntheticParams sp;
        sp.num_insts = 2500;
        sp.seed = rng();
        sp.two_source_frac = 0.15 + 0.15 * double(trial % 5);
        sp.dep_distance_p = 0.15 + 0.20 * double(trial % 4);
        sp.load_frac = 0.10 + 0.10 * double(trial % 3);
        sp.store_frac = (trial % 2) ? 0.10 : 0.0;
        core::CoreConfig cfg = base;
        cfg.wakeup = wakeups[trial % 5];
        runMaskTrial(sp, cfg, 3, "trial " + std::to_string(trial));
        if (HasFatalFailure())
            return;
    }

    for (uint64_t seed : {11ull, 2025ull, 777777ull}) {
        core::SyntheticParams sp;
        sp.num_insts = 2000;
        sp.seed = seed;
        sp.load_frac = 0.25;
        sp.store_frac = 0.10;
        sp.two_source_frac = 0.5;
        core::CoreConfig cfg = base;
        cfg.wakeup = core::WakeupModel::Sequential;
        cfg.regfile = core::RegfileModel::SequentialAccess;
        runMaskTrial(sp, cfg, 1, "seed " + std::to_string(seed));
        if (HasFatalFailure())
            return;
    }
}

TEST(EmulatorFuzz, RandomStraightLineProgramsAreDeterministic)
{
    std::mt19937_64 rng(31337);
    for (int trial = 0; trial < 40; ++trial) {
        // Random operate-only program (no control, no memory).
        std::vector<isa::MachInst> code;
        for (int i = 0; i < 200; ++i) {
            auto op = Opcode(rng() % (unsigned(Opcode::S8ADD) + 1));
            isa::StaticInst si = rng() & 1
                ? isa::makeOpImm(op, isa::RegIndex(rng() & 31),
                                 uint8_t(rng()),
                                 isa::RegIndex(rng() & 31))
                : isa::makeOp(op, isa::RegIndex(rng() & 31),
                              isa::RegIndex(rng() & 31),
                              isa::RegIndex(rng() & 31));
            code.push_back(isa::encode(si));
        }
        code.push_back(isa::encode(isa::makeSystem(Opcode::HALT)));

        assembler::Program prog;
        prog.codeBase = 0x1000;
        prog.entry = 0x1000;
        prog.code = code;

        func::Emulator a(prog), b(prog);
        a.run(1000);
        b.run(1000);
        ASSERT_TRUE(a.halted());
        for (unsigned r = 0; r < isa::NUM_INT_REGS; ++r)
            ASSERT_EQ(a.intReg(r), b.intReg(r)) << "reg " << r;
        ASSERT_EQ(a.intReg(31), 0);
    }
}

} // namespace
