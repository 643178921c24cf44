/**
 * @file
 * The declarative experiment API: machines are assembled by a
 * fluent, validating MachineBuilder, a run is described by an
 * ExperimentSpec, and every completed run returns a RunResult that
 * carries the achieved IPC, the budgets actually consumed, the
 * fast-forward count and the full statistics snapshot — emittable as
 * schema-versioned JSON. This is the stable programmatic surface the
 * tools, the figures driver and the sweep engine all drive the
 * simulator through; the builder is the single machine-construction
 * path, and policies can be selected by registry name (schedPolicy()/
 * rfPolicy(), see core/policy_registry.hh) or by enum.
 */

#ifndef HPA_SIM_EXPERIMENT_HH
#define HPA_SIM_EXPERIMENT_HH

#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "sim/error.hh"
#include "sim/simulation.hh"
#include "stats/json.hh"
#include "workloads/workloads.hh"

namespace hpa::sim
{

/** How one experiment (sweep cell) finished. */
enum class RunStatus
{
    Ok,       ///< ran to its budget/HALT, metrics are meaningful
    Failed,   ///< raised an error (config/workload/invariant/deadlock)
    TimedOut, ///< exceeded its wall-clock budget
};

/** Stable lower-case tag for JSON/CLI output ("ok", ...). */
const char *statusName(RunStatus status);

/**
 * Test-only fault injection, threaded through ExperimentSpec so the
 * robustness tests can exercise the whole isolation pipeline — core
 * guard, sweep catch, CLI/JSON reporting — end to end. None in all
 * production specs.
 */
enum class FaultKind
{
    None,
    /** Request a workload name the registry rejects at run time. */
    PoisonWorkload,
    /** Corrupt the scheduler ready list at fault_cycle; the periodic
     *  cross-validation pass must trip an InvariantViolation. */
    InvariantTrip,
    /** Stop commit after fault_cycle; the watchdog must trip a
     *  Deadlock. */
    BlockCommit,
};

/**
 * How one run actually ended: status, the error (kind + one-line
 * text + context) when it did not end well, and data-quality caveats
 * that are not errors (a requested fast-forward with no `steady:`
 * symbol).
 */
struct RunOutcome
{
    RunStatus status = RunStatus::Ok;
    /** Meaningful only when !ok(). */
    ErrorKind errorKind = ErrorKind::Workload;
    /** One-line "[kind] message @context" (SimError::oneLine()), or
     *  the exception's what() for untyped errors. */
    std::string error;
    /** Failure context (cycle, committed, machine, workload, dump). */
    SimContext context;
    /** fast_forward was requested but the kernel has no `steady:`
     *  symbol — the run timed the initialization code too. */
    bool steadyMissing = false;

    bool ok() const { return status == RunStatus::Ok; }
};

/**
 * Fluent machine assembly with eager naming and deferred
 * validation:
 *
 *   Machine m = Machine::base(4)
 *                   .wakeup(core::WakeupModel::Sequential)
 *                   .lap(1024)
 *                   .regfile(core::RegfileModel::SequentialAccess)
 *                   .build();
 *
 * Each setter updates the configuration and appends the historical
 * machine-name suffix from the policy registry (the names key the
 * golden IPC gate, so they are part of the stable surface). The
 * numeric knobs append "/lap<N>", "/bypass<N>" and "/detect<N>" only
 * when the value differs from the CoreConfig default, so distinct
 * machines get distinct names while default machines keep theirs.
 * build() — or the implicit Machine conversion — validates the
 * combination and throws std::invalid_argument on contradictions:
 * a lap() table on a predictor-less wakeup scheme, a non-power-of-2
 * predictor, a detectDelay() without tag elimination, a zero-cycle
 * bypass window, or a width outside Table 1.
 */
class MachineBuilder
{
  public:
    /** Start from a Table 1 base machine; width must be 4 or 8. */
    static MachineBuilder base(unsigned width);

    /** Start from an existing machine (modify a built Machine). */
    static MachineBuilder from(Machine m);

    MachineBuilder &wakeup(core::WakeupModel w);
    MachineBuilder &regfile(core::RegfileModel r);
    MachineBuilder &recovery(core::RecoveryModel r);
    MachineBuilder &rename(core::RenameModel r);

    /** Select the wakeup/select policy by registry key ("conv",
     *  "seq", "seq-nopred", "tag-elim", "dlt"); throws ConfigError
     *  listing the registered names on an unknown key. */
    MachineBuilder &schedPolicy(std::string_view name);

    /** Select the register-file port policy by registry key
     *  ("2port", "seq", "extra-stage", "half-xbar", "prefetch");
     *  throws ConfigError listing the registered names. */
    MachineBuilder &rfPolicy(std::string_view name);

    /** Last-arrival predictor entries (power of 2); only meaningful
     *  — and only accepted — with a predictor-based wakeup scheme
     *  (Sequential or TagElimination). */
    MachineBuilder &lap(unsigned entries);

    /** Bypass-network window in cycles (>= 1, Section 4.2). */
    MachineBuilder &bypassWindow(unsigned cycles);

    /** Tag-elimination scoreboard detection delay (>= 1); requires
     *  WakeupModel::TagElimination. */
    MachineBuilder &detectDelay(unsigned cycles);

    /** Validate the accumulated configuration and return it. */
    Machine build() const;

    /** Implicit finalization so a chain can be passed anywhere a
     *  Machine is expected. */
    operator Machine() const { return build(); }

  private:
    explicit MachineBuilder(Machine m) : m_(std::move(m)) {}

    Machine m_;
    bool lapSet_ = false;
    bool detectSet_ = false;
};

/**
 * A declarative run request: which workload, on which machine, under
 * which budgets. This is the unit the sweep engine executes (the
 * legacy name SweepJob aliases this type) and the unit serialized
 * into run artifacts.
 */
struct ExperimentSpec
{
    /** Workload registry name (workloads::benchmarkNames()). */
    std::string workload;
    Machine machine;
    /** Committed-instruction budget (0 = run to HALT). */
    uint64_t max_insts = 0;
    /** Cycle budget (0 = unbounded). */
    uint64_t max_cycles = 0;
    /** Fast-forward functionally to the kernel's `steady:` label. */
    bool fast_forward = true;
    workloads::Scale scale = workloads::Scale::Full;

    /** Per-run wall-clock budget in seconds (0 = unbounded). The
     *  core checks it cooperatively and raises hpa::Timeout. */
    double wall_budget_seconds = 0.0;

    /** Test-only fault injection (FaultKind::None in production). */
    FaultKind fault = FaultKind::None;
    /** Cycle at which InvariantTrip/BlockCommit faults arm. */
    uint64_t fault_cycle = 1000;

    /**
     * Check the spec is runnable: the workload must be a registered
     * benchmark and the machine must have been assembled (non-empty
     * name, non-zero width). Throws hpa::ConfigError (a
     * std::invalid_argument).
     */
    void validate() const;
};

/**
 * A completed experiment. The Simulation is kept alive so callers
 * can reach the core, the LAP monitor, the emulator console, … —
 * and so the statistics snapshot can be rendered in any format
 * after the fact.
 */
struct RunResult
{
    ExperimentSpec spec;
    std::unique_ptr<Simulation> sim;
    double ipc = 0.0;
    uint64_t committed = 0;
    uint64_t cycles = 0;
    /** Instructions functionally skipped before timing began. */
    uint64_t fastForwarded = 0;
    /** How the run ended; a failed cell keeps its spec and outcome
     *  but may have no sim and zeroed metrics. */
    RunOutcome outcome;

    /** Metrics are meaningful: the run succeeded and actually
     *  simulated cycles. Failed/zero-cycle cells report ipc = 0.0
     *  with valid() = false instead of NaN/Inf. */
    bool
    valid() const
    {
        return outcome.ok() && cycles > 0;
    }

    /** The core's statistics block (requires sim). */
    const core::CoreStats &coreStats() const;

    /** Full statistics snapshot: every core/memory/bpred stat plus
     *  the IPC formula, as the text report registers them. */
    stats::Registry statsRegistry() const;

    /**
     * Serialize onto @p jw as one "hpa.run.v3" object: the spec,
     * the status/error outcome, the metrics and, when the run has a
     * sim, the full stats snapshot. v2 added status, valid,
     * steady_missing, attempts and — on failed cells —
     * error_kind/error over v1; v3 drops attempts (cells are never
     * retried). The document holds no host timing, so the same run
     * always gives the same bytes.
     */
    void toJson(stats::json::JsonWriter &jw) const;

    /** Standalone toJson() convenience: one document on @p os. */
    void toJson(std::ostream &os) const;

    /** Schema tag of toJson() documents. */
    static constexpr const char *JSON_SCHEMA = "hpa.run.v3";
};

} // namespace hpa::sim

#endif // HPA_SIM_EXPERIMENT_HH
