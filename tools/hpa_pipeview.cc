/**
 * @file
 * Pipeline viewer (in the spirit of SimpleScalar's pipetrace): run a
 * small HPA-ISA program or the first instructions of a benchmark and
 * print, per committed instruction, its fetch / dispatch / issue /
 * complete / commit cycles plus an ASCII occupancy strip. Handy for
 * seeing the half-price penalties land: a slow-bus wakeup shifts
 * issue right by one; a sequential register access stretches
 * issue-to-complete; a replay reissues.
 *
 *   hpa_pipeview --asm kernel.s
 *   hpa_pipeview --bench bzip --insts 40 --sched-policy seq --rf-policy seq
 *
 * Policies resolve through the registry like every other CLI; a bad
 * number, an unregistered policy or a width outside Table 1 is a
 * one-line error and exit 2.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/policy_registry.hh"
#include "sim/experiment.hh"
#include "sim/simulation.hh"
#include "workloads/workloads.hh"

#include "sim_options.hh"

namespace
{

using namespace hpa;

struct Row
{
    uint64_t seq;
    uint64_t pc;
    std::string disasm;
    uint64_t fetch, dispatch, issue, complete, commit;
    uint32_t issues;
    bool seq_ra;
    bool replay;
};

void
usage(std::ostream &os)
{
    os << "usage: hpa_pipeview (--asm FILE | --bench NAME) "
          "[--insts N] [--width 4|8]\n"
          "       [--sched-policy P] [--rf-policy P]\n"
          "  scheduler policies: "
       << core::schedPolicyNames()
       << "\n  register-file policies: " << core::rfPolicyNames()
       << "\n";
}

/** Print a usage error and return its exit status. */
int
usageError(const std::string &msg)
{
    std::cerr << msg << "\n";
    usage(std::cerr);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench, asm_file;
    std::string sched = "conv", rf = "2port";
    uint64_t insts = 32;
    unsigned width = 4;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help") {
            usage(std::cout);
            return 0;
        }
        if (a != "--bench" && a != "--asm" && a != "--insts"
            && a != "--width" && a != "--sched-policy"
            && a != "--rf-policy")
            return usageError("unknown option: " + a);
        if (i + 1 >= argc)
            return usageError(a + " needs a value");
        std::string v = argv[++i];
        std::string err;
        if (a == "--bench") {
            bench = v;
        } else if (a == "--asm") {
            asm_file = v;
        } else if (a == "--insts") {
            if (!tools::parseNumber(v, insts))
                err = "--insts expects an unsigned integer, got '" + v
                    + "'";
        } else if (a == "--width") {
            err = tools::parseUnsignedOption(a, v, width);
        } else if (a == "--sched-policy") {
            sched = v;
        } else {
            rf = v;
        }
        if (!err.empty())
            return usageError(err);
    }

    if (bench.empty() == asm_file.empty()) {
        usage(std::cerr);
        return 2;
    }

    core::CoreConfig cfg;
    try {
        cfg = sim::Machine::base(width)
                  .schedPolicy(sched)
                  .rfPolicy(rf)
                  .build()
                  .cfg;
    } catch (const ConfigError &e) {
        std::cerr << "error: " << e.oneLine() << "\n";
        return 2;
    }

    try {
        assembler::Program image;
        if (!bench.empty()) {
            image = workloads::make(bench,
                                    workloads::Scale::Test).program;
        } else {
            std::ifstream in(asm_file);
            if (!in) {
                std::cerr << "cannot open " << asm_file << "\n";
                return 1;
            }
            std::ostringstream text;
            text << in.rdbuf();
            image = assembler::assemble(text.str());
        }

        sim::Simulation s(image, cfg, insts);
        std::vector<Row> rows;
        s.core().setCommitListener(
            [&rows](const core::DynInst &di, uint64_t commit) {
                rows.push_back(Row{di.seq, di.rec->pc,
                                   di.rec->inst.disassemble(),
                                   di.fetchCycle, di.dispatchCycle,
                                   di.issueCycle, di.completeCycle,
                                   commit, di.issueToken,
                                   di.seqRegAccess,
                                   di.loadMissReplay});
            });
        s.run(1000000);

        std::printf("%4s %-28s %6s %6s %6s %6s %6s  %s\n", "seq",
                    "instruction", "fetch", "disp", "issue", "compl",
                    "commit", "notes");
        uint64_t base = rows.empty() ? 0 : rows.front().fetch;
        for (const Row &r : rows) {
            std::string notes;
            if (r.issues > 1)
                notes += "replayed x" + std::to_string(r.issues - 1)
                    + " ";
            if (r.seq_ra)
                notes += "seq-RF ";
            if (r.replay)
                notes += "load-miss ";
            auto u = [](uint64_t v) {
                return static_cast<unsigned long long>(v);
            };
            std::printf("%4llu %-28s %6llu %6llu %6llu %6llu %6llu  %s\n",
                        u(r.seq), r.disasm.c_str(),
                        u(r.fetch - base),
                        u(r.dispatch - base),
                        u(r.issue - base),
                        u(r.complete - base),
                        u(r.commit - base),
                        notes.c_str());
        }
        std::printf("\nIPC %.3f over %llu cycles\n", s.ipc(),
                    static_cast<unsigned long long>(s.core().cycle()));
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
