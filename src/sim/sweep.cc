#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace hpa::sim
{

SweepRunner::SweepRunner(unsigned jobs,
                         workloads::WorkloadCache *cache)
    : jobs_(resolveJobs(jobs)),
      cache_(cache ? cache : &workloads::globalCache())
{}

unsigned
SweepRunner::resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace
{

/**
 * Run one job: build (or fetch) the workload, construct a fresh
 * Simulation, arm any injected fault, run, and record metrics into
 * @p r. Throws on any failure; the caller owns isolation.
 */
void
runCell(const SweepJob &job, workloads::WorkloadCache &cache,
        SweepResult &r)
{
    // PoisonWorkload goes through the real registry path so the
    // whole lookup-failure plumbing is exercised, not a shortcut.
    const std::string name = job.fault == FaultKind::PoisonWorkload
        ? job.workload + "!poisoned"
        : job.workload;
    const workloads::Workload &w = cache.get(name, job.scale);

    uint64_t ff = 0;
    if (job.fast_forward) {
        auto it = w.program.symbols.find("steady");
        if (it != w.program.symbols.end())
            ff = it->second;
        else
            r.outcome.steadyMissing = true;
    }

    core::CoreConfig cfg = job.machine.cfg;
    if (job.fault == FaultKind::InvariantTrip && cfg.check_interval == 0)
        cfg.check_interval = 1;

    // Trace-once/replay-many: the first cell of a (workload, budget,
    // fast-forward) group captures the committed stream; every other
    // cell — across machines, threads and repeat sweeps — replays the
    // shared immutable buffer.
    const func::CommittedTrace &trace =
        cache.trace(name, job.scale, job.max_insts, ff);
    r.sim = std::make_unique<Simulation>(trace, cfg);
    if (job.wall_budget_seconds > 0)
        r.sim->core().setWallDeadline(job.wall_budget_seconds);
    if (job.fault == FaultKind::InvariantTrip)
        r.sim->core().testCorruptSchedulerAt(job.fault_cycle);
    if (job.fault == FaultKind::BlockCommit)
        r.sim->core().testBlockCommitAfter(job.fault_cycle);

    r.sim->run(job.max_cycles);
    r.ipc = r.sim->ipc();
    r.committed = r.sim->core().stats().committed.value();
    r.cycles = r.sim->core().cycle();
    r.fastForwarded = r.sim->fastForwarded();
}

/** Run one job with fault isolation: never throws for per-run
 *  failures — they are filed into the returned RunOutcome. */
SweepResult
runOne(const SweepJob &job, workloads::WorkloadCache &cache)
{
    SweepResult r;
    r.spec = job;
    try {
        runCell(job, cache, r);
    } catch (const std::exception &e) {
        // Discard the partial run so a failed cell carries no
        // half-simulated state, only its spec and outcome.
        r.sim.reset();
        r.ipc = 0.0;
        r.committed = r.cycles = r.fastForwarded = 0;

        RunOutcome &o = r.outcome;
        const auto *se = dynamic_cast<const SimError *>(&e);
        if (se) {
            o.status = se->kind() == ErrorKind::Timeout
                ? RunStatus::TimedOut
                : RunStatus::Failed;
            o.errorKind = se->kind();
            o.error = se->oneLine();
            o.context = se->context();
        } else {
            o.status = RunStatus::Failed;
            o.errorKind = ErrorKind::Workload;
            o.error = e.what();
        }
        // The core knows cycles, not names; file them in here.
        o.context.machine = job.machine.name;
        o.context.workload = job.workload;
    }
    return r;
}

} // namespace

void
requireAllOk(const std::vector<SweepResult> &results)
{
    std::string detail;
    size_t failed = 0;
    for (const SweepResult &r : results) {
        if (r.outcome.ok())
            continue;
        ++failed;
        detail += "\n  " + r.spec.workload + " @ "
            + r.spec.machine.name + ": " + r.outcome.error;
    }
    if (failed) {
        throw WorkloadError(std::to_string(failed) + " of "
                            + std::to_string(results.size())
                            + " sweep cells failed:" + detail);
    }
}

void
SweepRunner::parallelFor(size_t n, unsigned jobs,
                         const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    unsigned workers =
        unsigned(std::min<size_t>(resolveJobs(jobs), n));
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mu;

    auto work = [&] {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(work);
    for (auto &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

std::vector<SweepResult>
SweepRunner::run(std::vector<SweepJob> jobs)
{
    // Every cell writes only its own result slot, so scheduling
    // never affects results.
    std::vector<SweepResult> results(jobs.size());
    runEach(jobs, [&](size_t i, SweepResult &&r) {
        results[i] = std::move(r);
    });
    return results;
}

void
SweepRunner::runEach(
    const std::vector<SweepJob> &jobs,
    const std::function<void(size_t, SweepResult &&)> &consume)
{
    parallelFor(jobs.size(), jobs_, [&](size_t i) {
        consume(i, runOne(jobs[i], *cache_));
    });
}

std::vector<Machine>
reproductionMachines()
{
    using core::RegfileModel;
    using core::WakeupModel;
    std::vector<Machine> ms;
    for (unsigned width : {4u, 8u}) {
        ms.push_back(Machine::base(width));
        ms.push_back(Machine::base(width)
                         .wakeup(WakeupModel::Sequential)
                         .lap(1024));
        ms.push_back(Machine::base(width)
                         .wakeup(WakeupModel::TagElimination)
                         .lap(1024));
        ms.push_back(Machine::base(width)
                         .wakeup(WakeupModel::SequentialNoPred));
        ms.push_back(Machine::base(width)
                         .regfile(RegfileModel::SequentialAccess));
        ms.push_back(Machine::base(width)
                         .regfile(RegfileModel::ExtraStage));
        ms.push_back(Machine::base(width)
                         .regfile(RegfileModel::HalfPortCrossbar));
        ms.push_back(Machine::base(width)
                         .wakeup(WakeupModel::Sequential)
                         .lap(1024)
                         .regfile(RegfileModel::SequentialAccess));
    }
    return ms;
}

std::vector<Machine>
policyZooMachines()
{
    // The post-paper policy points, selected through the string
    // registry (the same path the --sched-policy/--rf-policy CLI
    // flags take): each new policy alone, the two combined, and one
    // cross with a paper scheme.
    std::vector<Machine> ms;
    for (unsigned width : {4u, 8u}) {
        ms.push_back(Machine::base(width).schedPolicy("dlt"));
        ms.push_back(Machine::base(width).rfPolicy("prefetch"));
        ms.push_back(Machine::base(width)
                         .schedPolicy("dlt")
                         .rfPolicy("prefetch"));
        ms.push_back(Machine::base(width)
                         .schedPolicy("seq")
                         .lap(1024)
                         .rfPolicy("prefetch"));
    }
    return ms;
}

} // namespace hpa::sim
