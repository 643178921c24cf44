#include "sim/experiment.hh"

#include <algorithm>

#include "core/policy_registry.hh"
#include "sim/error.hh"

namespace hpa::sim
{

const char *
statusName(RunStatus status)
{
    switch (status) {
      case RunStatus::Ok:
        return "ok";
      case RunStatus::Failed:
        return "failed";
      case RunStatus::TimedOut:
        return "timed_out";
    }
    return "?";
}

MachineBuilder
Machine::base(unsigned width)
{
    return MachineBuilder::base(width);
}

MachineBuilder
MachineBuilder::base(unsigned width)
{
    if (width != 4 && width != 8)
        throw ConfigError(
            "machine width must be 4 or 8 (Table 1), got "
            + std::to_string(width));
    Machine m;
    m.name = width == 8 ? "8-wide" : "4-wide";
    m.cfg = width == 8 ? core::eightWideConfig()
                       : core::fourWideConfig();
    return MachineBuilder(std::move(m));
}

MachineBuilder
MachineBuilder::from(Machine m)
{
    return MachineBuilder(std::move(m));
}

MachineBuilder &
MachineBuilder::wakeup(core::WakeupModel w)
{
    // The registry owns the name suffixes (they key the golden IPC
    // gate); enum and string entry points stay in lockstep.
    m_.cfg.wakeup = w;
    m_.name += core::schedPolicyFor(w).suffix;
    return *this;
}

MachineBuilder &
MachineBuilder::regfile(core::RegfileModel r)
{
    m_.cfg.regfile = r;
    m_.name += core::rfPolicyFor(r).suffix;
    return *this;
}

MachineBuilder &
MachineBuilder::schedPolicy(std::string_view name)
{
    const core::SchedPolicyInfo *info = core::findSchedPolicy(name);
    if (!info)
        throw ConfigError(
            "unknown scheduler policy '" + std::string(name)
            + "' (registered: " + core::schedPolicyNames() + ")");
    return wakeup(info->model);
}

MachineBuilder &
MachineBuilder::rfPolicy(std::string_view name)
{
    const core::RFPolicyInfo *info = core::findRFPolicy(name);
    if (!info)
        throw ConfigError(
            "unknown register-file policy '" + std::string(name)
            + "' (registered: " + core::rfPolicyNames() + ")");
    return regfile(info->model);
}

MachineBuilder &
MachineBuilder::recovery(core::RecoveryModel r)
{
    m_.cfg.recovery = r;
    m_.name += r == core::RecoveryModel::Selective ? "/selective"
                                                   : "/non-selective";
    return *this;
}

MachineBuilder &
MachineBuilder::rename(core::RenameModel r)
{
    m_.cfg.rename = r;
    m_.name += r == core::RenameModel::HalfPort ? "/half-rename"
                                                : "/2r-rename";
    return *this;
}

namespace
{

/** Name suffix for a numeric knob: "/<tag><value>" when @p value is
 *  not the CoreConfig default, else nothing, so default machines keep
 *  the names that key the golden gates. */
std::string
knobSuffix(const char *tag, unsigned value, unsigned default_value)
{
    if (value == default_value)
        return {};
    std::string suffix = "/";
    suffix.append(tag).append(std::to_string(value));
    return suffix;
}

} // namespace

MachineBuilder &
MachineBuilder::lap(unsigned entries)
{
    m_.cfg.lap_entries = entries;
    m_.name += knobSuffix("lap", entries, core::CoreConfig{}.lap_entries);
    lapSet_ = true;
    return *this;
}

MachineBuilder &
MachineBuilder::bypassWindow(unsigned cycles)
{
    m_.cfg.bypass_window = cycles;
    m_.name +=
        knobSuffix("bypass", cycles, core::CoreConfig{}.bypass_window);
    return *this;
}

MachineBuilder &
MachineBuilder::detectDelay(unsigned cycles)
{
    m_.cfg.tagelim_detect_delay = cycles;
    m_.name += knobSuffix("detect", cycles,
                          core::CoreConfig{}.tagelim_detect_delay);
    detectSet_ = true;
    return *this;
}

Machine
MachineBuilder::build() const
{
    const core::CoreConfig &cfg = m_.cfg;
    bool predictor_wakeup =
        cfg.wakeup == core::WakeupModel::Sequential
        || cfg.wakeup == core::WakeupModel::TagElimination;

    if (lapSet_ && !predictor_wakeup)
        throw ConfigError(
            "machine '" + m_.name
            + "': lap() needs a predictor-based wakeup scheme "
              "(Sequential or TagElimination)");
    if (cfg.lap_entries == 0
        || (cfg.lap_entries & (cfg.lap_entries - 1)))
        throw ConfigError(
            "machine '" + m_.name
            + "': predictor entries must be a power of 2, got "
            + std::to_string(cfg.lap_entries));
    if (detectSet_ && cfg.wakeup != core::WakeupModel::TagElimination)
        throw ConfigError(
            "machine '" + m_.name
            + "': detectDelay() only applies to tag elimination");
    if (cfg.tagelim_detect_delay == 0)
        throw ConfigError(
            "machine '" + m_.name
            + "': tag-elimination detect delay must be >= 1 cycle");
    if (cfg.bypass_window == 0)
        throw ConfigError(
            "machine '" + m_.name
            + "': bypass window must be >= 1 cycle");
    return m_;
}

void
ExperimentSpec::validate() const
{
    if (machine.name.empty() || machine.cfg.width == 0)
        throw ConfigError(
            "experiment spec has no machine (use Machine::base())");
    if (workload.empty())
        throw ConfigError(
            "experiment spec has no workload");
    const auto names = workloads::benchmarkNames();
    if (std::find(names.begin(), names.end(), workload)
        == names.end()) {
        SimContext ctx;
        ctx.machine = machine.name;
        ctx.workload = workload;
        throw ConfigError("unknown workload '" + workload
                              + "' (see workloads::benchmarkNames())",
                          ctx);
    }
}

const core::CoreStats &
RunResult::coreStats() const
{
    return sim->core().stats();
}

stats::Registry
RunResult::statsRegistry() const
{
    return sim->statsRegistry();
}

void
RunResult::toJson(stats::json::JsonWriter &jw) const
{
    jw.beginObject()
        .kv("schema", JSON_SCHEMA)
        .kv("workload", spec.workload)
        .kv("machine", spec.machine.name)
        .kv("width", spec.machine.cfg.width)
        .kv("max_insts", spec.max_insts)
        .kv("max_cycles", spec.max_cycles)
        .kv("fast_forward", spec.fast_forward)
        .kv("status", statusName(outcome.status))
        .kv("valid", valid())
        .kv("steady_missing", outcome.steadyMissing)
        .kv("ipc", ipc)
        .kv("committed", committed)
        .kv("cycles", cycles)
        .kv("fast_forwarded", fastForwarded);
    if (!outcome.ok()) {
        jw.kv("error_kind", kindName(outcome.errorKind))
            .kv("error", outcome.error);
    }
    if (sim) {
        jw.key("stats");
        statsRegistry().toJson(jw);
    }
    jw.endObject();
}

void
RunResult::toJson(std::ostream &os) const
{
    stats::json::JsonWriter jw(os);
    toJson(jw);
}

} // namespace hpa::sim
