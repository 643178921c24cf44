/**
 * @file
 * Parallel sweep engine. Every figure table and grid replays the same
 * pattern — a loop over (workload, machine, budget) tuples, each an
 * independent Simulation — so the engine runs them as jobs on a
 * fixed thread pool: one isolated Simulation per job, workload
 * programs built once process-wide (thread-safe cache), and results
 * returned in submission order so table printing — and the stats
 * themselves — are identical to a serial run.
 */

#ifndef HPA_SIM_SWEEP_HH
#define HPA_SIM_SWEEP_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/simulation.hh"
#include "workloads/workloads.hh"

namespace hpa::sim
{

/** One (workload, machine, budget) simulation request. Historical
 *  name for ExperimentSpec (sim/experiment.hh). */
using SweepJob = ExperimentSpec;

/** A completed sweep job. Historical name for RunResult
 *  (sim/experiment.hh); the Simulation is kept alive so callers read
 *  IPC, CoreStats, the LAP monitor, … exactly as after a serial run. */
using SweepResult = RunResult;

/**
 * Fixed-size thread pool running sweep jobs. Results are ordered by
 * submission index regardless of completion order, and each job gets
 * a fully isolated Simulation, so `jobs(N)` output is byte-identical
 * to `jobs(1)`.
 */
class SweepRunner
{
  public:
    /**
     * @param jobs worker threads; 0 = one per hardware thread
     * @param cache workload cache to share (default: globalCache())
     */
    explicit SweepRunner(unsigned jobs = 0,
                         workloads::WorkloadCache *cache = nullptr);

    unsigned jobs() const { return jobs_; }

    /**
     * Run all jobs; result[i] corresponds to jobs[i]. Jobs are fault
     * isolated: a job that throws (invariant violation, deadlock,
     * timeout, bad workload) is returned as a Failed/TimedOut cell
     * — with the error kind, one-line text and failure context in
     * its RunOutcome — and never disturbs the other cells, whose
     * results stay bit-identical to a fault-free run. Cells are
     * deterministic, so a failed cell is reported, never retried.
     * Callers that want all-or-nothing semantics pass the results to
     * requireAllOk().
     */
    std::vector<SweepResult> run(std::vector<SweepJob> jobs);

    /**
     * Streaming run(): hand each finished cell to @p consume(i,
     * result) on the worker thread that ran it, then drop it, so at
     * most jobs() Simulations are alive at once however long the
     * list. Cells are isolated exactly as in run(); @p consume must
     * touch only state owned by index i.
     */
    void runEach(const std::vector<SweepJob> &jobs,
                 const std::function<void(size_t, SweepResult &&)>
                     &consume);

    /**
     * Deterministic parallel loop: fn(0..n-1) each exactly once,
     * claimed dynamically across `jobs` threads (jobs <= 1: inline,
     * in order). The first exception thrown by any fn is rethrown
     * on the caller after all workers join.
     */
    static void parallelFor(size_t n, unsigned jobs,
                            const std::function<void(size_t)> &fn);

    /** Resolve a --jobs style request: 0 means hardware threads. */
    static unsigned resolveJobs(unsigned requested);

  private:
    unsigned jobs_;
    workloads::WorkloadCache *cache_;
};

/**
 * All-or-nothing view of a sweep: throws hpa::WorkloadError listing
 * every failed cell (workload, machine, one-line error) when any
 * result is not ok. Generators that cannot use partial results —
 * tools/hpa_figures — call this once every cell has finished; a
 * result whose sim was already dropped still carries its spec and
 * outcome.
 */
void requireAllOk(const std::vector<SweepResult> &results);

/**
 * The machine configurations of the paper's main IPC figures
 * (Table 2 base, Figure 14 wakeup schemes, Figure 15 register
 * files, Figure 16 combined), for both Table 1 widths. Crossed with
 * the twelve workloads this is the canonical "full reproduction
 * sweep" run by tools/hpa_bench_sweep and the determinism tests.
 */
std::vector<Machine> reproductionMachines();

/**
 * The post-paper policy-zoo machines: load-delay-tracking wakeup
 * ("dlt") and the operand-prefetch register file ("prefetch"), alone
 * and combined, for both Table 1 widths. This is the sweep dimension
 * behind `hpa_bench_sweep --zoo` and the EXPERIMENTS.md policy-sweep
 * guide; unlike reproductionMachines() it is not pinned by the
 * golden gate and is expected to grow as policies are added.
 */
std::vector<Machine> policyZooMachines();

} // namespace hpa::sim

#endif // HPA_SIM_SWEEP_HH
