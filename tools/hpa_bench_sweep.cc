/**
 * @file
 * The one grid runner: run every (machine x benchmark) cell of a
 * sweep once on the thread pool, each cell replaying its workload's
 * shared committed trace, optionally gate the IPCs against a golden
 * map, and with --out write the "hpa.bench-sweep.v6" artifact:
 * per-run status, IPC, committed instructions, cycles and the run's
 * registry policy names (sched_policy / rf_policy). The artifact
 * holds no host timing, so its bytes are the same at any --jobs on
 * any host (SweepDeterminism tests pin jobs(8) against jobs(1)).
 * Host speed is measured by the reproduction benchmark,
 * perfbench/run.py.
 *
 *   hpa_bench_sweep [--insts N] [--jobs N] [--out FILE]
 *                   [--zoo | --sched-policy P | --rf-policy P]
 *                   [--check GOLDEN] [--write-golden FILE]
 *                   [--inject KIND@INDEX]
 *
 * The machine axis defaults to the paper's reproduction grid.
 * --zoo swaps in sim::policyZooMachines() (the post-paper policies:
 * dlt wakeup, prefetch register file); --sched-policy/--rf-policy
 * build a custom two-machine grid (both Table 1 widths) from the
 * string policy registry — unknown names exit 2 listing it.
 *
 * --check compares the sweep's IPC values against a golden JSON map
 * ("hpa.sweep-golden.v1", tools/golden_sweep_ipc.json in the repo)
 * and fails with a per-cell diff on any drift, and with a list of
 * missing keys when any golden cell has no ok run — the regression
 * gate behind the golden_sweep_ipc and golden_zoo_ipc ctests.
 *
 * Failed cells are fault-isolated: they appear in the JSON with
 * status/error_kind/error, are excluded from the golden comparison,
 * and turn the exit status non-zero; the artifact still carries
 * every surviving cell. --inject
 * (test only; KIND = poison | invariant | hang) plants a fault in
 * one job so these paths can be exercised end to end.
 *
 * Exit status: 0 success, 1 a failed cell, golden drift or a sweep
 * that cannot be set up (e.g. a budget too large to capture), 2 a
 * usage error (unknown option, malformed or signed number).
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/policy_registry.hh"
#include "sim/sweep.hh"
#include "sim_options.hh"
#include "stats/json.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace hpa;

/** Key of one run in the golden map. */
std::string
runKey(const sim::SweepJob &job)
{
    return job.machine.name + "|" + job.workload;
}

/** Strict unsigned parse (tools::parseNumber: base 10, no sign);
 *  exits 2 with a clear message on anything else. */
uint64_t
needNumber(const std::string &opt, const std::string &text)
{
    uint64_t v = 0;
    if (!tools::parseNumber(text, v)) {
        std::cerr << opt << " expects an unsigned integer, got '"
                  << text << "'\n";
        std::exit(2);
    }
    return v;
}

/**
 * Minimal parser for the golden file: extracts every `"key": number`
 * pair (string-valued fields like "schema" are skipped naturally).
 * The golden format is flat, so no general JSON machinery is needed.
 */
std::map<std::string, double>
parseGolden(const std::string &text)
{
    std::map<std::string, double> kv;
    size_t pos = 0;
    while ((pos = text.find('"', pos)) != std::string::npos) {
        size_t end = text.find('"', pos + 1);
        if (end == std::string::npos)
            break;
        std::string key = text.substr(pos + 1, end - pos - 1);
        size_t colon = text.find(':', end);
        if (colon == std::string::npos)
            break;
        size_t vstart = text.find_first_not_of(" \t\n", colon + 1);
        if (vstart == std::string::npos)
            break;
        char *vend = nullptr;
        double v = std::strtod(text.c_str() + vstart, &vend);
        if (vend != text.c_str() + vstart)
            kv[key] = v;
        pos = end + 1;
    }
    return kv;
}

bool
emitArtifact(const std::string &out,
             const std::vector<sim::SweepResult> &results,
             uint64_t insts)
{
    std::ofstream os(out);
    if (!os) {
        std::cerr << "cannot write " << out << "\n";
        return false;
    }
    size_t failed = 0;
    uint64_t total_cycles = 0;
    for (const sim::SweepResult &r : results) {
        if (!r.outcome.ok())
            ++failed;
        total_cycles += r.cycles;
    }
    stats::json::JsonWriter jw(os);
    jw.beginObject()
        .kv("schema", "hpa.bench-sweep.v6")
        .kv("insts_per_run", insts)
        .kv("total_simulated_cycles", total_cycles)
        .kv("ok_runs", uint64_t(results.size() - failed))
        .kv("failed_runs", uint64_t(failed));
    jw.key("runs").beginArray();
    for (const sim::SweepResult &r : results) {
        const sim::Machine &mach = r.spec.machine;
        jw.beginObject()
            .kv("machine", mach.name)
            .kv("sched_policy",
                core::schedPolicyFor(mach.cfg.wakeup).name)
            .kv("rf_policy", core::rfPolicyFor(mach.cfg.regfile).name)
            .kv("workload", r.spec.workload)
            .kv("status", sim::statusName(r.outcome.status))
            .kv("valid", r.valid())
            .kv("steady_missing", r.outcome.steadyMissing)
            .kv("ipc", r.ipc, 6)
            .kv("committed", r.committed)
            .kv("cycles", r.cycles);
        if (!r.outcome.ok()) {
            jw.kv("error_kind", kindName(r.outcome.errorKind))
                .kv("error", r.outcome.error);
        }
        jw.endObject();
    }
    jw.endArray().endObject();
    std::printf("wrote %s\n", out.c_str());
    return true;
}

bool
writeGoldenFile(const std::string &path,
                const std::vector<sim::SweepResult> &results,
                uint64_t insts)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        return false;
    }
    stats::json::JsonWriter jw(os);
    jw.beginObject()
        .kv("schema", "hpa.sweep-golden.v1")
        .kv("insts_per_run", insts);
    for (const sim::SweepResult &r : results)
        if (r.outcome.ok())
            jw.kv(runKey(r.spec), r.ipc, 6);
    jw.endObject();
    std::printf("wrote %s\n", path.c_str());
    return true;
}

/** @return 0 ok, 1 drift, an uncovered golden cell, or unreadable. */
int
goldenCheck(const std::string &check,
            const std::vector<sim::SweepResult> &results,
            uint64_t insts)
{
    std::ifstream in(check);
    if (!in) {
        std::cerr << "cannot read " << check << "\n";
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto golden = parseGolden(text.str());

    auto budget = golden.find("insts_per_run");
    if (budget != golden.end() && uint64_t(budget->second) != insts) {
        std::fprintf(stderr,
                     "golden was recorded at %llu insts per run, "
                     "this sweep ran %llu — not comparable\n",
                     static_cast<unsigned long long>(budget->second),
                     static_cast<unsigned long long>(insts));
        return 1;
    }

    // Every golden cell must be covered by an ok run: a failed cell
    // or a grid that omits machines would otherwise pass unchecked.
    std::map<std::string, const sim::SweepResult *> ok_runs;
    for (const sim::SweepResult &r : results)
        if (r.outcome.ok())
            ok_runs[runKey(r.spec)] = &r;

    size_t drift = 0, checked = 0;
    std::vector<std::string> missing;
    for (const auto &[key, ipc] : golden) {
        if (key.find('|') == std::string::npos)
            continue; // header field (insts_per_run)
        auto it = ok_runs.find(key);
        if (it == ok_runs.end()) {
            missing.push_back(key);
            continue;
        }
        const sim::SweepResult &r = *it->second;
        ++checked;
        // Golden stores 6 decimals; allow the rounding slack.
        if (std::fabs(r.ipc - ipc) > 5e-7) {
            std::fprintf(stderr,
                         "IPC DRIFT machine=%s workload=%s "
                         "expected=%.6f got=%.6f\n",
                         r.spec.machine.name.c_str(),
                         r.spec.workload.c_str(), ipc, r.ipc);
            ++drift;
        }
    }
    for (const std::string &key : missing)
        std::fprintf(stderr, "golden cell %s has no ok run\n",
                     key.c_str());
    if (!missing.empty())
        std::fprintf(stderr, "%zu of %zu golden cells unchecked\n",
                     missing.size(), missing.size() + checked);
    if (drift)
        std::fprintf(stderr, "%zu of %zu runs drifted from golden\n",
                     drift, checked);
    if (checked == 0 && missing.empty())
        std::fprintf(stderr, "golden %s holds no cells\n",
                     check.c_str());
    if (drift || !missing.empty() || checked == 0)
        return 1;
    std::printf("golden check: %zu runs match %s\n", checked,
                check.c_str());
    return 0;
}

/** Report failed cells on stderr. @return their count. */
size_t
reportFailures(const std::vector<sim::SweepResult> &results)
{
    size_t failed = 0;
    for (const sim::SweepResult &r : results)
        if (!r.outcome.ok())
            ++failed;
    if (failed) {
        std::fprintf(stderr,
                     "\n%zu of %zu runs failed (every other cell is "
                     "complete):\n",
                     failed, results.size());
        for (const sim::SweepResult &r : results)
            if (!r.outcome.ok())
                std::fprintf(stderr, "  %s @ %s: %s\n",
                             r.spec.workload.c_str(),
                             r.spec.machine.name.c_str(),
                             r.outcome.error.c_str());
    }
    return failed;
}

/** Pre-build every workload and its committed trace touched by
 *  @p jobs, so a budget the trace buffer cannot hold fails once,
 *  before any cell runs. */
void
prebuildWorkloads(const std::vector<sim::SweepJob> &jobs,
                  uint64_t insts)
{
    std::vector<std::string> names;
    for (const auto &j : jobs)
        if (std::find(names.begin(), names.end(), j.workload)
            == names.end())
            names.push_back(j.workload);
    for (const auto &n : names) {
        const workloads::Workload &w = workloads::globalCache().get(n);
        uint64_t ff = 0;
        auto it = w.program.symbols.find("steady");
        if (it != w.program.symbols.end())
            ff = it->second;
        workloads::globalCache().trace(n, workloads::Scale::Full,
                                       insts, ff);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t insts = 50000;
    unsigned jobs = 0;
    std::string out;
    std::string check;
    std::string write_golden;
    bool zoo = false;
    std::string sched_policy;
    std::string rf_policy;
    std::vector<std::pair<sim::FaultKind, size_t>> injections;

    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << argv[i] << " needs a value\n";
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--insts")
            insts = needNumber(a, need(i));
        else if (a == "--jobs") {
            std::string err =
                tools::parseUnsignedOption(a, need(i), jobs);
            if (!err.empty()) {
                std::cerr << err << "\n";
                return 2;
            }
        } else if (a == "--out")
            out = need(i);
        else if (a == "--check")
            check = need(i);
        else if (a == "--write-golden")
            write_golden = need(i);
        else if (a == "--zoo")
            zoo = true;
        else if (a == "--sched-policy")
            sched_policy = need(i);
        else if (a == "--rf-policy")
            rf_policy = need(i);
        else if (a == "--inject") {
            std::string v = need(i);
            size_t at = v.find('@');
            std::string kind = v.substr(0, at);
            sim::FaultKind f;
            if (kind == "poison")
                f = sim::FaultKind::PoisonWorkload;
            else if (kind == "invariant")
                f = sim::FaultKind::InvariantTrip;
            else if (kind == "hang")
                f = sim::FaultKind::BlockCommit;
            else {
                std::cerr << "--inject expects "
                             "poison|invariant|hang@INDEX\n";
                return 2;
            }
            if (at == std::string::npos) {
                std::cerr << "--inject needs an @INDEX\n";
                return 2;
            }
            injections.emplace_back(
                f, needNumber(a, v.substr(at + 1)));
        } else {
            std::cerr << "unknown option: " << a << "\n"
                      << "usage: hpa_bench_sweep [--insts N] "
                         "[--jobs N] "
                         "[--zoo | --sched-policy P | "
                         "--rf-policy P] "
                         "[--out FILE] [--check GOLDEN] "
                         "[--write-golden FILE] "
                         "[--inject KIND@INDEX]\n";
            return 2;
        }
    }

    if (zoo && (!sched_policy.empty() || !rf_policy.empty())) {
        std::cerr << "--zoo already selects its machine grid; drop "
                     "--sched-policy/--rf-policy\n";
        return 2;
    }
    std::vector<sim::Machine> machines;
    if (!sched_policy.empty() || !rf_policy.empty()) {
        // Custom grid: the requested policies at both Table 1
        // widths, built through the string registry so an unknown
        // name fails here with the registered list.
        try {
            for (unsigned w : {4u, 8u}) {
                auto b = sim::Machine::base(w);
                if (!sched_policy.empty())
                    b.schedPolicy(sched_policy);
                if (!rf_policy.empty())
                    b.rfPolicy(rf_policy);
                machines.push_back(b.build());
            }
        } catch (const std::invalid_argument &e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
    } else {
        machines = zoo ? sim::policyZooMachines()
                       : sim::reproductionMachines();
    }
    auto names = workloads::benchmarkNames();
    std::vector<sim::SweepJob> sweep;
    for (const auto &m : machines) {
        for (const auto &n : names) {
            sim::SweepJob j;
            j.workload = n;
            j.machine = m;
            j.max_insts = insts;
            j.validate();
            sweep.push_back(j);
        }
    }
    for (auto [fault, idx] : injections) {
        if (idx >= sweep.size()) {
            std::cerr << "--inject index " << idx << " out of range "
                      << "(0.." << sweep.size() - 1 << ")\n";
            return 2;
        }
        sweep[idx].fault = fault;
        // A hung cell waits out the watchdog; keep that snappy.
        if (fault == sim::FaultKind::BlockCommit)
            sweep[idx].machine.cfg.watchdog_cycles = 20000;
    }

    sim::SweepRunner runner(jobs);
    std::printf("%zu runs (%zu machines x %zu benchmarks), "
                "%llu insts per run, %u workers\n",
                sweep.size(), machines.size(), names.size(),
                static_cast<unsigned long long>(insts), runner.jobs());

    try {
        prebuildWorkloads(sweep, insts);
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "cannot prepare the sweep at %llu insts per "
                     "run: %s\n",
                     static_cast<unsigned long long>(insts), e.what());
        return 1;
    }

    std::vector<sim::SweepResult> results = runner.run(sweep);

    if (!out.empty() && !emitArtifact(out, results, insts))
        return 1;
    if (!write_golden.empty()
        && !writeGoldenFile(write_golden, results, insts))
        return 1;
    if (!check.empty() && goldenCheck(check, results, insts) != 0)
        return 1;
    if (reportFailures(results) > 0)
        return 1;
    return 0;
}
