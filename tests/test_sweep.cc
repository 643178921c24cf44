/** @file Sweep-engine tests: parallel results byte-identical to a
 *  serial run for every (machine x workload) pair of the full
 *  reproduction sweep, thread-safe build-once workload cache,
 *  deterministic parallelFor, fault isolation and the all-or-nothing
 *  failure listing. */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/policy_registry.hh"
#include "sim/sweep.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace hpa;

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<unsigned>> hits(257);
    sim::SweepRunner::parallelFor(hits.size(), 8, [&](size_t i) {
        hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ParallelFor, SingleWorkerRunsInlineInOrder)
{
    std::vector<size_t> order;
    sim::SweepRunner::parallelFor(10, 1, [&](size_t i) {
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 10u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, PropagatesTheFirstException)
{
    EXPECT_THROW(
        sim::SweepRunner::parallelFor(100, 4,
                                      [](size_t i) {
                                          if (i == 13)
                                              throw std::runtime_error(
                                                  "boom");
                                      }),
        std::runtime_error);
}

TEST(ResolveJobs, ExplicitRequestWinsZeroMeansHardware)
{
    EXPECT_EQ(sim::SweepRunner::resolveJobs(3), 3u);
    EXPECT_EQ(sim::SweepRunner::resolveJobs(1), 1u);
    EXPECT_GE(sim::SweepRunner::resolveJobs(0), 1u);
}

TEST(WorkloadCacheTest, ConcurrentGetsReturnTheSameBuiltEntry)
{
    workloads::WorkloadCache cache;
    auto names = workloads::benchmarkNames();
    ASSERT_GE(names.size(), 4u);

    // 16 threads hammer 4 distinct keys; every get of a key must
    // return the identical (build-once) Workload object.
    std::vector<const workloads::Workload *> got(64);
    sim::SweepRunner::parallelFor(got.size(), 16, [&](size_t i) {
        got[i] = &cache.get(names[i % 4], workloads::Scale::Test);
    });
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_NE(got[i], nullptr);
        EXPECT_EQ(got[i], got[i % 4]) << "key " << names[i % 4];
        EXPECT_EQ(got[i]->name, names[i % 4]);
    }
}

TEST(SweepDeterminism, EightWorkersMatchSerialForEveryPair)
{
    // The full reproduction grid at a small budget: every machine of
    // the paper's main figures crossed with every workload. jobs(8)
    // must reproduce jobs(1) bit-for-bit — same IPC doubles, same
    // cycle counts, and a byte-identical statistics report.
    const uint64_t BUDGET = 2000;
    auto machines = sim::reproductionMachines();
    auto names = workloads::benchmarkNames();

    std::vector<sim::SweepJob> jobs;
    for (const auto &m : machines) {
        for (const auto &n : names) {
            sim::SweepJob j;
            j.workload = n;
            j.machine = m;
            j.max_insts = BUDGET;
            jobs.push_back(j);
        }
    }

    workloads::WorkloadCache cache;
    auto serial = sim::SweepRunner(1, &cache).run(jobs);
    auto parallel = sim::SweepRunner(8, &cache).run(jobs);
    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());

    for (size_t i = 0; i < jobs.size(); ++i) {
        std::string what =
            jobs[i].machine.name + "|" + jobs[i].workload;
        ASSERT_NE(serial[i].sim, nullptr) << what;
        ASSERT_NE(parallel[i].sim, nullptr) << what;
        EXPECT_EQ(serial[i].ipc, parallel[i].ipc) << what;
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << what;
        EXPECT_EQ(serial[i].committed, parallel[i].committed) << what;

        std::ostringstream a, b;
        serial[i].sim->report(a);
        parallel[i].sim->report(b);
        EXPECT_EQ(a.str(), b.str()) << what;
    }
}

TEST(SweepDeterminism, PolicyZooMatchesSerial)
{
    // The post-paper policy machines (dlt wakeup, prefetch regfile,
    // combined) go through the same determinism contract as the
    // reproduction grid: jobs(8) must reproduce jobs(1) bit-for-bit.
    const uint64_t BUDGET = 2000;
    auto machines = sim::policyZooMachines();
    ASSERT_GE(machines.size(), 4u);
    auto names = workloads::benchmarkNames();

    std::vector<sim::SweepJob> jobs;
    for (const auto &m : machines) {
        for (const auto &n : names) {
            sim::SweepJob j;
            j.workload = n;
            j.machine = m;
            j.max_insts = BUDGET;
            jobs.push_back(j);
        }
    }

    workloads::WorkloadCache cache;
    auto serial = sim::SweepRunner(1, &cache).run(jobs);
    auto parallel = sim::SweepRunner(8, &cache).run(jobs);
    ASSERT_EQ(serial.size(), parallel.size());

    for (size_t i = 0; i < serial.size(); ++i) {
        std::string what = serial[i].spec.machine.name + "|"
            + serial[i].spec.workload;
        ASSERT_TRUE(serial[i].outcome.ok()) << what;
        ASSERT_TRUE(parallel[i].outcome.ok()) << what;
        EXPECT_EQ(serial[i].ipc, parallel[i].ipc) << what;
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << what;
        EXPECT_EQ(serial[i].committed, parallel[i].committed)
            << what;

        std::ostringstream a, b;
        serial[i].sim->report(a);
        parallel[i].sim->report(b);
        EXPECT_EQ(a.str(), b.str()) << what;
    }
}

/** 64-bit FNV-1a of @p text: a fingerprint of one stats document. */
uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * A golden listing of `key value...` lines ('#' lines are comments):
 * check() compares one key's value (the rest of its line), finish()
 * reports the mismatches and, if there are any, writes the full
 * actual listing as `<name>.actual.txt` in the working directory for
 * review before re-recording.
 */
class GoldenListing
{
  public:
    explicit GoldenListing(const std::string &name) : name_(name)
    {
        std::ifstream in(std::string(HPA_GOLDEN_DIR) + "/" + name
                         + ".txt");
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            size_t sp = line.find(' ');
            golden_[line.substr(0, sp)] =
                sp == std::string::npos ? "" : line.substr(sp + 1);
        }
    }

    void
    check(const std::string &key, const std::string &value)
    {
        actual_ << key << " " << value << "\n";
        auto it = golden_.find(key);
        if (it != golden_.end() && it->second == value)
            return;
        if (++mismatched_ <= 10)
            ADD_FAILURE() << name_ << " " << key << ": " << value
                          << ", golden "
                          << (it == golden_.end() ? "missing"
                                                  : it->second);
    }

    void
    finish(size_t cells)
    {
        EXPECT_EQ(golden_.size(), cells) << name_;
        if (!mismatched_)
            return;
        std::ofstream(name_ + ".actual.txt") << actual_.str();
        ADD_FAILURE() << name_ << ": " << mismatched_ << " of " << cells
                      << " cells moved; actual listing written to "
                      << name_ << ".actual.txt";
    }

  private:
    std::string name_;
    std::map<std::string, std::string> golden_;
    std::ostringstream actual_;
    unsigned mismatched_ = 0;
};

TEST(PolicyGrid, EveryRegisteredPairRunsCleanAtBothWidths)
{
    // Every scheduler x register-file pair of the registry, not just
    // the paper and zoo grids (tag-elim + half-xbar, dlt + seq-rf,
    // ...), at both Table 1 widths on every workload, with the
    // scheduler cross-check on: each cell must finish its budget
    // with no invariant, deadlock or accounting failure, its full
    // hpa.stats.v1 document must hash to the recorded digest, and
    // the last-arrival monitor (Figure 7's shadow predictors, not a
    // registered statistic) must hold the recorded counts. These
    // catch what no IPC golden does: a per-slot field leaking across
    // slot reuse moves sched.* or rf.* counters, or the shadow
    // predictors' scores, without moving IPC.
    const uint64_t BUDGET = 2000;
    std::vector<sim::SweepJob> jobs;
    std::vector<std::string> keys;
    for (unsigned width : {4u, 8u}) {
        for (const auto &sp : core::schedPolicies()) {
            for (const auto &rp : core::rfPolicies()) {
                sim::Machine m = sim::Machine::base(width)
                                     .schedPolicy(sp.name)
                                     .rfPolicy(rp.name)
                                     .build();
                m.cfg.check_interval = 16;
                for (const auto &n : workloads::benchmarkNames()) {
                    sim::SweepJob j;
                    j.workload = n;
                    j.machine = m;
                    j.max_insts = BUDGET;
                    jobs.push_back(j);
                    keys.push_back(std::to_string(width) + "w|"
                                   + std::string(sp.name) + "|"
                                   + std::string(rp.name) + "|" + n);
                }
            }
        }
    }
    ASSERT_EQ(jobs.size(), 2 * core::schedPolicies().size()
                               * core::rfPolicies().size()
                               * workloads::benchmarkNames().size());

    workloads::WorkloadCache cache;
    auto res = sim::SweepRunner(4, &cache).run(jobs);
    ASSERT_EQ(res.size(), jobs.size());
    GoldenListing stats("policy_grid_stats"), lap("policy_grid_lap");
    for (size_t i = 0; i < res.size(); ++i) {
        const sim::SweepResult &r = res[i];
        std::string what = r.spec.machine.name + "|" + r.spec.workload;
        EXPECT_TRUE(r.outcome.ok()) << what << ": " << r.outcome.error;
        EXPECT_TRUE(r.valid()) << what;
        EXPECT_EQ(r.committed, BUDGET) << what;
        if (!r.sim)
            continue;
        std::ostringstream doc;
        r.statsRegistry().toJson(doc);
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(
                          fnv1a(doc.str())));
        stats.check(keys[i], hex);

        const core::LastArrivalMonitor &m = r.sim->core().lapMonitor();
        std::string counts = std::to_string(m.samples()) + " "
            + std::to_string(m.simultaneous());
        for (unsigned k = 0; k < core::LastArrivalMonitor::NUM_SIZES;
             ++k)
            counts += " " + std::to_string(m.correct(k));
        lap.check(keys[i], counts);
    }
    stats.finish(jobs.size());
    lap.finish(jobs.size());
}

TEST(SweepTraceCache, ReplayGridMatchesEmulatorGridByteForByte)
{
    // Sweeps always replay a shared committed trace; that must be a
    // pure host-side optimization. Every cell of a swept grid must
    // reproduce an execution-driven Simulation (a live emulator
    // stepped per instruction) bit for bit — IPC doubles, cycle
    // counts and the full statistics report.
    const uint64_t BUDGET = 2000;
    std::vector<sim::Machine> machines = {
        sim::Machine::base(4),
        sim::Machine::base(8),
        sim::Machine::base(4)
            .wakeup(core::WakeupModel::Sequential)
            .lap(1024),
        sim::Machine::base(4)
            .regfile(core::RegfileModel::SequentialAccess),
    };
    auto names = workloads::benchmarkNames();

    std::vector<sim::SweepJob> traced;
    for (const auto &m : machines) {
        for (const auto &n : names) {
            sim::SweepJob j;
            j.workload = n;
            j.machine = m;
            j.max_insts = BUDGET;
            traced.push_back(j);
        }
    }

    workloads::WorkloadCache cache;
    auto with = sim::SweepRunner(1, &cache).run(traced);
    ASSERT_EQ(with.size(), traced.size());

    for (size_t i = 0; i < with.size(); ++i) {
        const sim::SweepJob &job = traced[i];
        std::string what = job.machine.name + "|" + job.workload;
        ASSERT_TRUE(with[i].outcome.ok()) << what;

        const workloads::Workload &w = cache.get(job.workload);
        auto it = w.program.symbols.find("steady");
        uint64_t ff = it != w.program.symbols.end() ? it->second : 0;
        sim::Simulation live(w.program, job.machine.cfg, BUDGET, ff);
        live.run();
        ASSERT_TRUE(live.hasEmulator()) << what;

        EXPECT_EQ(with[i].ipc, live.ipc()) << what;
        EXPECT_EQ(with[i].cycles, live.core().cycle()) << what;
        EXPECT_EQ(with[i].committed,
                  live.core().stats().committed.value())
            << what;
        EXPECT_EQ(with[i].fastForwarded, live.fastForwarded()) << what;

        std::ostringstream a, b;
        with[i].sim->report(a);
        live.report(b);
        EXPECT_EQ(a.str(), b.str()) << what;
    }
}

TEST(SweepTraceCache, ConcurrentCellsShareOneTraceDeterministically)
{
    // Many cells of one (workload, budget) group racing on the
    // cache: the first capture must win for everyone (the trace is
    // immutable and shared), and 8 workers must reproduce the
    // 1-worker results exactly even though every cell replays the
    // same buffer concurrently.
    const uint64_t BUDGET = 3000;
    auto machines = sim::reproductionMachines();
    std::vector<sim::SweepJob> jobs;
    for (const auto &m : machines) {
        sim::SweepJob j;
        j.workload = "parser";
        j.machine = m;
        j.max_insts = BUDGET;
        jobs.push_back(j);
    }

    workloads::WorkloadCache serial_cache, parallel_cache;
    auto serial = sim::SweepRunner(1, &serial_cache).run(jobs);
    auto parallel = sim::SweepRunner(8, &parallel_cache).run(jobs);
    ASSERT_EQ(serial.size(), jobs.size());

    for (size_t i = 0; i < jobs.size(); ++i) {
        const std::string &what = jobs[i].machine.name;
        ASSERT_TRUE(serial[i].outcome.ok()) << what;
        ASSERT_TRUE(parallel[i].outcome.ok()) << what;
        EXPECT_EQ(serial[i].ipc, parallel[i].ipc) << what;
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << what;
        EXPECT_EQ(serial[i].committed, parallel[i].committed) << what;
    }
}

/** The small grid the fault-isolation tests run: two machines by
 *  four workloads, tiny budget. */
std::vector<sim::SweepJob>
smallGrid(uint64_t budget = 5000)
{
    std::vector<sim::SweepJob> jobs;
    std::vector<sim::Machine> machines = {
        sim::Machine::base(4),
        sim::Machine::base(4).wakeup(core::WakeupModel::Sequential)
            .lap(1024),
    };
    auto names = workloads::benchmarkNames();
    for (const auto &m : machines)
        for (size_t i = 0; i < 4; ++i) {
            sim::SweepJob j;
            j.workload = names[i];
            j.machine = m;
            j.max_insts = budget;
            jobs.push_back(j);
        }
    return jobs;
}

TEST(SweepFaultIsolation, FailedAndHungCellsLeaveTheRestIntact)
{
    // The acceptance scenario: one cell trips an invariant, one cell
    // deadlocks — every other cell must be bit-identical to the
    // fault-free sweep, and both failures must carry their kind and
    // context.
    workloads::WorkloadCache cache;
    auto clean_jobs = smallGrid();
    auto clean = sim::SweepRunner(4, &cache).run(clean_jobs);

    auto jobs = smallGrid();
    jobs[2].fault = sim::FaultKind::InvariantTrip;
    jobs[2].fault_cycle = 500;
    jobs[5].fault = sim::FaultKind::BlockCommit;
    jobs[5].fault_cycle = 200;
    jobs[5].machine.cfg.watchdog_cycles = 2000;
    auto res = sim::SweepRunner(4, &cache).run(jobs);
    ASSERT_EQ(res.size(), clean.size());

    for (size_t i = 0; i < res.size(); ++i) {
        if (i == 2 || i == 5)
            continue;
        std::string what =
            jobs[i].machine.name + "|" + jobs[i].workload;
        EXPECT_TRUE(res[i].outcome.ok()) << what;
        EXPECT_TRUE(res[i].valid()) << what;
        EXPECT_EQ(res[i].ipc, clean[i].ipc) << what;
        EXPECT_EQ(res[i].cycles, clean[i].cycles) << what;
        EXPECT_EQ(res[i].committed, clean[i].committed) << what;
    }

    EXPECT_EQ(res[2].outcome.status, sim::RunStatus::Failed);
    EXPECT_EQ(res[2].outcome.errorKind, ErrorKind::Invariant);
    EXPECT_FALSE(res[2].valid());
    EXPECT_EQ(res[2].sim, nullptr);
    EXPECT_EQ(res[2].outcome.context.workload, jobs[2].workload);
    EXPECT_NE(res[2].outcome.error.find("[invariant]"),
              std::string::npos)
        << res[2].outcome.error;

    EXPECT_EQ(res[5].outcome.status, sim::RunStatus::Failed);
    EXPECT_EQ(res[5].outcome.errorKind, ErrorKind::Deadlock);
    EXPECT_FALSE(res[5].valid());
    EXPECT_GT(res[5].outcome.context.cycle, 2000u);
    EXPECT_FALSE(res[5].outcome.context.dump.empty());
}

TEST(SweepFaultIsolation, PoisonedWorkloadReportsConfigError)
{
    workloads::WorkloadCache cache;
    auto jobs = smallGrid(2000);
    jobs[0].fault = sim::FaultKind::PoisonWorkload;
    auto res = sim::SweepRunner(2, &cache).run(jobs);
    EXPECT_EQ(res[0].outcome.status, sim::RunStatus::Failed);
    EXPECT_EQ(res[0].outcome.errorKind, ErrorKind::Config);
    EXPECT_NE(res[0].outcome.error.find("unknown workload"),
              std::string::npos)
        << res[0].outcome.error;
    for (size_t i = 1; i < res.size(); ++i)
        EXPECT_TRUE(res[i].outcome.ok()) << i;
}

TEST(SweepFaultIsolation, WallBudgetTimesOutRunawayCells)
{
    workloads::WorkloadCache cache;
    auto jobs = smallGrid(200000);
    jobs[3].wall_budget_seconds = 1e-9;
    auto res = sim::SweepRunner(2, &cache).run(jobs);
    EXPECT_EQ(res[3].outcome.status, sim::RunStatus::TimedOut);
    EXPECT_EQ(res[3].outcome.errorKind, ErrorKind::Timeout);
    for (size_t i = 0; i < res.size(); ++i) {
        if (i != 3) {
            EXPECT_TRUE(res[i].outcome.ok()) << i;
        }
    }
}

TEST(RequireAllOk, ThrowsListingEveryFailedCell)
{
    workloads::WorkloadCache cache;
    auto jobs = smallGrid(2000);
    jobs[0].fault = sim::FaultKind::PoisonWorkload;
    auto res = sim::SweepRunner(2, &cache).run(jobs);
    // A streaming caller drops each Simulation once its values are
    // read; the spec and outcome alone must still name the cell.
    for (sim::SweepResult &r : res)
        r.sim.reset();
    try {
        sim::requireAllOk(res);
        FAIL() << "expected hpa::WorkloadError";
    } catch (const WorkloadError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("1 of 8 sweep cells failed"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(jobs[0].workload + " @ "
                            + jobs[0].machine.name),
                  std::string::npos)
            << what;
    }

    // A clean sweep sails through.
    auto clean = sim::SweepRunner(2, &cache).run(smallGrid(2000));
    EXPECT_NO_THROW(sim::requireAllOk(clean));
}

} // namespace
