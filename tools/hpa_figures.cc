/**
 * @file
 * The figures driver: regenerates every table and figure of the
 * reproduction — Table 2-3, Figures 2-16, the Section 3.3/4 circuit
 * timing points and the ablations — in one process and prints them to
 * stdout. EXPERIMENTS.md quotes this text, and the golden_figures
 * ctest compares it line by line with tests/golden/figures_150k.txt.
 *
 *   hpa_figures [--insts N] [--jobs N]
 *
 * Every timing table is declared in figures() as sections of columns;
 * a column names the machine it reads and a value function over that
 * machine's finished cell. The driver takes the union of those cells,
 * drops duplicates by machine name and workload, and runs each
 * distinct cell once on one SweepRunner, keeping only the values the
 * tables read (a Cell), never the Simulation. Figures 2 and 3 share
 * one functional pass; the circuit models need no simulation.
 *
 * --insts bounds the committed instructions of every timing run and
 * of the functional pass (default 150000, the budget EXPERIMENTS.md
 * reports); --jobs sets the worker threads (default 0: one per
 * hardware thread). The output does not depend on --jobs.
 *
 * Exit status: 0 success, 1 a failed cell or an inconsistent table list
 * (an unknown paper machine, two different machines under one name),
 * 2 a usage error.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/last_arrival.hh"
#include "func/emulator.hh"
#include "model/timing_models.hh"
#include "sim/sweep.hh"
#include "sim_options.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace hpa;
using core::LastArrivalMonitor;
using core::RecoveryModel;
using core::RegfileModel;
using core::RenameModel;
using core::WakeupModel;

/** What the tables read from one finished timing cell. */
struct Cell
{
    double ipc = 0.0;
    uint64_t committed = 0;
    core::CoreStats stats;
    /** Figure 7's shadow predictors (not registered stats). */
    double lapAccuracy[LastArrivalMonitor::NUM_SIZES] = {};
    double lapSimultaneous = 0.0;
};

using Value = std::function<double(const Cell &)>;

double
ipc(const Cell &c)
{
    return c.ipc;
}

/** @p num / @p den with an empty denominator counted as 1. */
double
share(uint64_t num, uint64_t den)
{
    return double(num) / double(den ? den : 1);
}

enum class Fmt
{
    Norm,  ///< value / base IPC, folded into the geomean row
    Ratio, ///< value / base IPC, left out of the geomean row
    Abs,   ///< the value itself
    Pct,   ///< the value as a percentage
    Count, ///< the value as an integer
};

/** One table column: the machine whose cell it reads, the value it
 *  takes from that cell and how it is printed. */
struct Column
{
    std::string header;
    sim::Machine machine;
    Fmt fmt = Fmt::Norm;
    int prec = 4;
    Value value = ipc;
};

/** One printed table: a row per workload, one cell per column. */
struct Section
{
    /** Printed verbatim before the header row. */
    std::string heading;
    /** Denominator of the Norm and Ratio columns. */
    sim::Machine base;
    std::vector<Column> columns = {};
    int cellW = 12;
    bool geomean = false;
};

/** What the non-timing tables read: Figures 2/3's functional pass. */
struct FuncCounts
{
    uint64_t total = 0, stores = 0, fmt2 = 0, nops = 0, one = 0,
             two = 0;
};

struct Results
{
    const std::vector<std::string> &names;
    std::map<std::string, Cell> cells;
    std::vector<FuncCounts> func;

    const Cell &
    at(const sim::Machine &m, const std::string &workload) const
    {
        return cells.at(m.name + "|" + workload);
    }
};

/** One paper table or figure: a banner naming it and where the paper
 *  has it, then timing sections or a custom body, then a footer. */
struct Figure
{
    std::string title;
    std::string ref;
    std::vector<Section> sections = {};
    std::function<void(const Results &)> body = {};
    std::string footer = {};
};

Column
norm(std::string header, sim::Machine m)
{
    return {std::move(header), std::move(m)};
}

/** A machine of the paper grid (sim::reproductionMachines()) by
 *  width and name suffix; "" is the Table 1 base machine. */
sim::Machine
paper(unsigned width, const std::string &suffix = "")
{
    static const std::vector<sim::Machine> grid =
        sim::reproductionMachines();
    const std::string name = std::to_string(width) + "-wide" + suffix;
    for (const sim::Machine &m : grid)
        if (m.name == name)
            return m;
    throw ConfigError("no paper-grid machine named " + name);
}

std::string
fmt(double v, int prec)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

/** Aligned rows: a 10-wide name column, then fixed-width cells; Norm
 *  cells are remembered per column for the closing geomean row. */
class Table
{
  public:
    Table(const std::vector<std::string> &headers, int cell_w)
        : cellW_(cell_w), samples_(headers.size() - 1)
    {
        begin(headers.front());
        for (size_t i = 1; i < headers.size(); ++i)
            text(headers[i]);
        end();
    }

    Table &
    begin(const std::string &name)
    {
        std::printf("%-10s", name.c_str());
        col_ = 0;
        return *this;
    }

    Table &
    text(const std::string &s)
    {
        std::printf("%*s", cellW_, s.c_str());
        ++col_;
        return *this;
    }

    Table &abs(double v, int prec) { return text(fmt(v, prec)); }

    Table &
    pct(double v, int prec = 1)
    {
        return text(fmt(100.0 * v, prec) + "%");
    }

    /** A normalized cell, remembered for the geomean row. */
    Table &
    norm(double v, int prec)
    {
        samples_[col_].push_back(v);
        return abs(v, prec);
    }

    void end() { std::printf("\n"); }

    /** Geomean of every Norm column; other columns stay blank. */
    void
    geomeanRow()
    {
        begin("geomean");
        for (const auto &col : samples_) {
            if (col.empty()) {
                text("");
                continue;
            }
            double logsum = 0;
            for (double x : col)
                logsum += std::log(x);
            abs(std::exp(logsum / double(col.size())), 4);
        }
        end();
    }

  private:
    int cellW_;
    size_t col_ = 0;
    std::vector<std::vector<double>> samples_;
};

void
printSection(const Section &s, const Results &res)
{
    std::printf("%s", s.heading.c_str());
    std::vector<std::string> headers = {"bench"};
    for (const Column &c : s.columns)
        headers.push_back(c.header);
    Table t(headers, s.cellW);
    for (const std::string &w : res.names) {
        const double base = res.at(s.base, w).ipc;
        t.begin(w);
        for (const Column &c : s.columns) {
            const double v = c.value(res.at(c.machine, w));
            switch (c.fmt) {
              case Fmt::Norm:
                t.norm(v / base, c.prec);
                break;
              case Fmt::Ratio:
                t.abs(v / base, c.prec);
                break;
              case Fmt::Abs:
                t.abs(v, c.prec);
                break;
              case Fmt::Pct:
                t.pct(v, c.prec);
                break;
              case Fmt::Count:
                t.text(std::to_string(uint64_t(v)));
                break;
            }
        }
        t.end();
    }
    if (s.geomean)
        t.geomeanRow();
}

/** One section per Table 1 width, built by @p make(width). */
std::vector<Section>
perWidth(const std::function<Section(unsigned)> &make)
{
    return {make(4), make(8)};
}

std::string
widthHeading(unsigned width, const char *what)
{
    return "\n--- " + std::to_string(width) + "-wide " + what
        + " ---\n";
}

using Stat = std::pair<std::string, Value>;

/** A base-machine characterization section (Figures 4/6/7/10,
 *  Table 3): percentages, every column read from the base cell. */
Section
characterize(unsigned width, const std::vector<Stat> &cols,
             int cell_w = 12)
{
    Section s{widthHeading(width, "base machine"), paper(width)};
    for (const auto &[header, value] : cols)
        s.columns.push_back({header, s.base, Fmt::Pct, 1, value});
    s.cellW = cell_w;
    return s;
}

/** An IPC section normalized to the base machine of @p width. */
Section
normalized(unsigned width, std::vector<Column> cols, int cell_w = 12)
{
    return {widthHeading(width, "(normalized IPC)"), paper(width),
            std::move(cols), cell_w, true};
}

Column
baseIpc(unsigned width)
{
    return {"base IPC", paper(width), Fmt::Abs, 3};
}

using Counter = stats::Counter core::CoreStats::*;

/** Counter @p parts[which]'s share of the sum of @p parts. */
Value
part(std::vector<Counter> parts, size_t which)
{
    return [parts, which](const Cell &c) {
        uint64_t all = 0;
        for (Counter p : parts)
            all += (c.stats.*p).value();
        return share((c.stats.*parts[which]).value(), all);
    };
}

/** Bucket @p k's share of distribution @p d. */
Value
fraction(stats::Distribution core::CoreStats::*d, unsigned k)
{
    return [d, k](const Cell &c) { return (c.stats.*d).fraction(k); };
}

void
printFunctionalFormats(const Results &res)
{
    Table t({"bench", "2-src fmt", "stores", "other"}, 12);
    for (size_t i = 0; i < res.names.size(); ++i) {
        const FuncCounts &c = res.func[i];
        double total = double(c.total);
        t.begin(res.names[i])
            .pct(double(c.fmt2) / total)
            .pct(double(c.stores) / total)
            .pct(double(c.total - c.fmt2 - c.stores) / total)
            .end();
    }
}

void
printUniqueSources(const Results &res)
{
    Table t({"bench", "nops", "<2 unique", "2 unique", "2src/all"}, 12);
    for (size_t i = 0; i < res.names.size(); ++i) {
        const FuncCounts &c = res.func[i];
        double f = double(c.fmt2 ? c.fmt2 : 1);
        t.begin(res.names[i])
            .pct(double(c.nops) / f)
            .pct(double(c.one) / f)
            .pct(double(c.two) / f)
            .pct(double(c.two) / double(c.total))
            .end();
    }
}

void
printTimingModels(const Results &)
{
    model::WakeupDelayModel wd;
    std::printf("\nWakeup logic delay (ps), 0.18u, 4-wide:\n");
    Table tw({"entries", "conv (2 cmp)", "seq (1 cmp)", "speedup"}, 14);
    for (unsigned n : {16u, 32u, 64u, 128u, 256u}) {
        tw.begin(std::to_string(n))
            .abs(wd.delayPs(n, 2), 1)
            .abs(wd.delayPs(n, 1), 1)
            .pct(wd.speedup(n, 2, 1))
            .end();
    }
    std::printf("Paper claim (64-entry, 4-wide): 466 ps -> 374 ps "
                "(24.6%% speedup). Model: %.0f -> %.0f (%.1f%%).\n",
                wd.delayPs(64, 2), wd.delayPs(64, 1),
                100 * wd.speedup(64, 2, 1));

    model::RegfileTimingModel rf;
    std::printf("\nRegister file access time (ns), 160 entries, "
                "0.18u:\n");
    Table tr({"ports", "access ns", "rel. area"}, 14);
    for (unsigned p : {8u, 12u, 16u, 20u, 24u, 32u}) {
        tr.begin(std::to_string(p))
            .abs(rf.accessNs(160, p), 3)
            .abs(rf.area(160, p) / rf.area(160, 16), 3)
            .end();
    }
    std::printf("Paper claim (8-wide, 24 -> 16 ports): 1.71 ns -> "
                "1.36 ns (20.5%% drop). Model: %.2f -> %.2f "
                "(%.1f%%).\n",
                rf.accessNs(160, 24), rf.accessNs(160, 16),
                100 * rf.reduction(160, 24, 16));

    std::printf("\nScaling with window size (sequential-wakeup gain "
                "grows with the window):\n");
    Table ts({"entries", "gain"}, 14);
    for (unsigned n : {32u, 64u, 128u, 256u})
        ts.begin(std::to_string(n)).pct(wd.speedup(n, 2, 1)).end();
}

/** Every table and figure, in the order they are printed. */
std::vector<Figure>
figures()
{
    using core::CoreStats;
    const Value committed = [](const Cell &c) {
        return double(c.committed);
    };
    const Value seqRA = [](const Cell &c) {
        return double(c.stats.seqRegAccesses.value());
    };
    const Value squash = [](const Cell &c) {
        return share(c.stats.squashedIssues.value(),
                     c.stats.issued.value());
    };
    auto seqRF = [](unsigned window) -> sim::Machine {
        return sim::Machine::base(4)
            .regfile(RegfileModel::SequentialAccess)
            .bypassWindow(window);
    };
    const sim::Machine seqwSel = sim::Machine::base(4)
                                     .wakeup(WakeupModel::Sequential)
                                     .lap(1024)
                                     .recovery(RecoveryModel::Selective);
    std::vector<Column> lapSizes;
    for (unsigned entries : {128u, 512u, 1024u, 4096u})
        lapSizes.push_back(norm(std::to_string(entries),
                                sim::Machine::base(4)
                                    .wakeup(WakeupModel::Sequential)
                                    .lap(entries)));
    lapSizes.push_back(norm("no pred", paper(4, "/seq-wakeup-nopred")));

    return {
        {.title = "Table 2: benchmarks and base IPC",
         .ref = "Table 2",
         .sections = {{"\n",
                       paper(4),
                       {{"insts", paper(4), Fmt::Count, 0, committed},
                        {"IPC 4-wide", paper(4), Fmt::Abs, 2},
                        {"IPC 8-wide", paper(8), Fmt::Abs, 2}}}},
         .footer = "\nPaper (Table 2, SPEC CINT2000): 4-wide IPC "
                   "0.71(mcf)..2.02(vortex), 8-wide 0.93..2.95.\n"},
        {.title = "Figure 2: percentage of 2-source-format instructions",
         .ref = "Figure 2 (paper: 18-36% 2-source format)",
         .body = printFunctionalFormats},
        {.title = "Figure 3: breakdown of 2-source-format instructions",
         .ref = "Figure 3 (paper: 6-23% of all instructions are true "
                "2-source)",
         .body = printUniqueSources,
         .footer = "\n(last column: true 2-source instructions as a "
                   "fraction of all dynamic instructions)\n"},
        {.title = "Figure 4: ready operands of 2-source insts at insert",
         .ref = "Figure 4 (paper: 4-16% have 0 ready operands)",
         .sections = perWidth([](unsigned w) {
             std::vector<Stat> cols;
             for (unsigned k = 0; k <= 2; ++k)
                 cols.push_back({std::to_string(k) + " ready",
                                 fraction(&CoreStats::readyAtInsert, k)});
             return characterize(w, cols);
         })},
        {.title = "Figure 6: slack between two operand wakeups",
         .ref = "Figure 6 (paper: <3% of instructions wake both "
                "operands in the same cycle)",
         .sections = perWidth([](unsigned w) {
             std::vector<Stat> cols;
             for (unsigned k = 0; k <= 4; ++k)
                 cols.push_back({"slack " + std::to_string(k)
                                     + (k == 4 ? "+" : ""),
                                 fraction(&CoreStats::wakeupSlack, k)});
             // Simultaneous wakeups as a fraction of all 2-source
             // instructions (the paper's "<3% of instructions").
             cols.push_back({"0/all-2src", [](const Cell &c) {
                                 return share(
                                     c.stats.wakeupSlack.bucket(0),
                                     c.stats.fmtTwoUnique.value());
                             }});
             return characterize(w, cols, 11);
         })},
        {.title = "Table 3: operand wakeup order and last-arriving "
                  "operand",
         .ref = "Table 3 (paper: ~81-99% same order; left/right roughly "
                "balanced)",
         .sections = perWidth([](unsigned w) {
             std::vector<Counter> order = {&CoreStats::orderSame,
                                           &CoreStats::orderDiff};
             std::vector<Counter> last = {&CoreStats::leftLast,
                                          &CoreStats::rightLast};
             return characterize(w, {{"same", part(order, 0)},
                                     {"diff", part(order, 1)},
                                     {"left last", part(last, 0)},
                                     {"right last", part(last, 1)}});
         })},
        {.title = "Figure 7: last-arriving operand prediction accuracy",
         .ref = "Figure 7 (paper: ~85-97% with a small bimodal table)",
         .sections = perWidth([](unsigned w) {
             std::vector<Stat> cols;
             for (unsigned i = 0; i < LastArrivalMonitor::NUM_SIZES; ++i)
                 cols.push_back(
                     {std::to_string(LastArrivalMonitor::SIZES[i]),
                      [i](const Cell &c) { return c.lapAccuracy[i]; }});
             cols.push_back({"simultaneous", [](const Cell &c) {
                                 return c.lapSimultaneous;
                             }});
             return characterize(w, cols, 13);
         })},
        {.title = "Figure 10: register accesses of 2-source instructions",
         .ref = "Figure 10 (paper: <4% of all instructions need 2 read "
                "ports)",
         .sections = perWidth([](unsigned w) {
             std::vector<Counter> access = {&CoreStats::rfBackToBack,
                                            &CoreStats::rfTwoReady,
                                            &CoreStats::rfNonBackToBack};
             return characterize(
                 w, {{"b2b issue", part(access, 0)},
                     {"2 ready", part(access, 1)},
                     {"non-b2b", part(access, 2)},
                     {"2-port/all", [](const Cell &c) {
                          return double(c.stats.rfTwoReady.value()
                                        + c.stats.rfNonBackToBack.value())
                              / double(c.committed);
                      }}});
         }),
         .footer = "\n(last column: instructions requiring two register "
                   "read ports, as a fraction of all commits)\n"},
        {.title = "Figure 14: performance of sequential wakeup",
         .ref = "Figure 14",
         .sections = perWidth([](unsigned w) {
             return normalized(
                 w, {baseIpc(w),
                     norm("seq-wakeup", paper(w, "/seq-wakeup")),
                     norm("tag-elim", paper(w, "/tag-elim")),
                     norm("seq-nopred", paper(w, "/seq-wakeup-nopred"))});
         }),
         .footer = "\nPaper means: seq-wakeup 0.996/0.994, tag-elim lower "
                   "(worst 0.894), seq-nopred 0.984/0.974.\n"},
        {.title = "Figure 15: performance of sequential register access",
         .ref = "Figure 15",
         .sections = perWidth([](unsigned w) {
             return normalized(
                 w, {baseIpc(w), norm("seq RF", paper(w, "/seq-rf")),
                     norm("1 extra stg", paper(w, "/extra-rf-stage")),
                     norm("reg+xbar", paper(w, "/half-ports-xbar"))});
         }),
         .footer = "\nPaper means: seq RF 0.989 (4-wide) / 0.993 "
                   "(8-wide); crossbar close to 1.0.\n"},
        {.title = "Figure 16: combined sequential wakeup + sequential "
                  "register access",
         .ref = "Figure 16",
         .sections = perWidth([](unsigned w) {
             return normalized(
                 w, {baseIpc(w),
                     norm("combined", paper(w, "/seq-wakeup/seq-rf")),
                     {"seq-wkup", paper(w, "/seq-wakeup"), Fmt::Ratio},
                     {"seq-RF", paper(w, "/seq-rf"), Fmt::Ratio}});
         }),
         .footer = "\nPaper: 2.2% mean degradation, worst case 4.8%; "
                   "combined slightly worse than the sum of parts.\n"},
        {.title = "Circuit timing models",
         .ref = "Sections 3.3 and 4 (466->374 ps; 1.71->1.36 ns)",
         .body = printTimingModels},
        {.title = "Ablation: bypass window vs. sequential register access",
         .ref = "Section 4.2 (1-cycle bypass window assumption)",
         .sections = {{"",
                       paper(4),
                       {norm("w=1 IPC", seqRF(1)),
                        norm("w=2 IPC", seqRF(2)),
                        norm("w=3 IPC", seqRF(3)),
                        {"seqRA w=1", seqRF(1), Fmt::Count, 0, seqRA},
                        {"seqRA w=3", seqRF(3), Fmt::Count, 0, seqRA}},
                       12, true}},
         .footer = "\n(wider windows catch more operands on the bypass, "
                   "cutting sequential accesses)\n"},
        {.title = "Ablation: tag-elimination detection delay",
         .ref = "Section 5.1 (penalty scaling)",
         .sections = perWidth([](unsigned w) {
             std::vector<Column> cols;
             for (unsigned d = 1; d <= 4; ++d)
                 cols.push_back(
                     norm("te d=" + std::to_string(d),
                          sim::Machine::base(w)
                              .wakeup(WakeupModel::TagElimination)
                              .lap(1024)
                              .detectDelay(d)));
             cols.push_back(norm("seq-wkup", paper(w, "/seq-wakeup")));
             return normalized(w, cols, 11);
         })},
        {.title = "Ablation: predictor size vs. sequential wakeup IPC",
         .ref = "Sections 3.2 and 5.1 (insensitivity to predictor "
                "accuracy)",
         .sections = {{"", paper(4), lapSizes, 11, true}}},
        {.title = "Ablation: recovery model vs. wakeup scheme",
         .ref = "Section 3.1 (selective recovery compatibility)",
         .sections = {{"",
                       paper(4),
                       {{"conv/nsel", paper(4), Fmt::Ratio, 3},
                        norm("conv/sel", sim::Machine::base(4).recovery(
                                             RecoveryModel::Selective)),
                        norm("seqw/sel", seqwSel),
                        norm("te/nsel", paper(4, "/tag-elim")),
                        {"te-squash%", paper(4, "/tag-elim"), Fmt::Pct, 1,
                         squash},
                        {"sw-squash%", seqwSel, Fmt::Pct, 1, squash}},
                       12, true}},
         .footer = "\n(seqw/sel: sequential wakeup on selective recovery "
                   "— the composition tag elimination cannot offer; "
                   "squash%: share of issue slots wasted)\n"},
        {.title = "Ablation: half-price register renaming (future work)",
         .ref = "Section 6",
         .sections = perWidth([](unsigned w) {
             sim::Machine rn =
                 sim::Machine::base(w).rename(RenameModel::HalfPort);
             // Everything halved: wakeup + register file + rename.
             sim::Machine all = sim::Machine::base(w)
                                    .wakeup(WakeupModel::Sequential)
                                    .lap(1024)
                                    .regfile(RegfileModel::SequentialAccess)
                                    .rename(RenameModel::HalfPort);
             Value splits = [](const Cell &c) {
                 return 1000.0 * double(c.stats.renameStalls.value())
                     / double(c.committed);
             };
             return normalized(w,
                               {norm("half-rename", rn),
                                norm("all-half", all),
                                {"splits/kinst", rn, Fmt::Abs, 2, splits}},
                               13);
         }),
         .footer = "\n(all-half: sequential wakeup + sequential register "
                   "access + half rename ports)\n"},
    };
}

/** Run every distinct timing cell the figures read, keeping only its
 *  Cell. Cells are keyed by machine name and workload, so two
 *  machines that share a name must be the same machine. @return false
 *  (every failed cell listed on stderr) if any cell failed. */
bool
runTimingCells(const std::vector<Figure> &figs, uint64_t insts,
               unsigned jobs, Results &res)
{
    std::vector<sim::SweepJob> cells;
    // Every slot exists before the run, so workers only write theirs.
    std::vector<Cell *> slot;
    std::map<std::string, size_t> index;
    auto want = [&](const sim::Machine &m) {
        for (const std::string &w : res.names) {
            const std::string key = m.name + "|" + w;
            auto [it, fresh] = index.emplace(key, cells.size());
            if (!fresh) {
                if (cells[it->second].machine.cfg != m.cfg)
                    throw ConfigError("two different machines named "
                                      + m.name);
                continue;
            }
            sim::SweepJob j;
            j.workload = w;
            j.machine = m;
            j.max_insts = insts;
            j.validate();
            cells.push_back(std::move(j));
            slot.push_back(&res.cells[key]);
        }
    };
    for (const Figure &fig : figs)
        for (const Section &s : fig.sections) {
            want(s.base);
            for (const Column &c : s.columns)
                want(c.machine);
        }

    sim::SweepRunner runner(jobs);
    std::fprintf(stderr, "%zu timing cells, %llu insts per run, %u "
                         "workers\n",
                 cells.size(), static_cast<unsigned long long>(insts),
                 runner.jobs());
    // Each result keeps its spec and outcome for requireAllOk(); its
    // Simulation is dropped as soon as the Cell is read.
    std::vector<sim::SweepResult> done(cells.size());
    runner.runEach(cells, [&](size_t i, sim::SweepResult &&r) {
        if (r.outcome.ok()) {
            Cell &c = *slot[i];
            c.ipc = r.ipc;
            c.committed = r.committed;
            c.stats = r.coreStats();
            const LastArrivalMonitor &mon = r.sim->core().lapMonitor();
            for (unsigned k = 0; k < LastArrivalMonitor::NUM_SIZES; ++k)
                c.lapAccuracy[k] = mon.accuracy(k);
            c.lapSimultaneous = mon.samples()
                ? double(mon.simultaneous()) / double(mon.samples())
                : 0.0;
        }
        r.sim.reset();
        done[i] = std::move(r);
    });
    try {
        sim::requireAllOk(done);
    } catch (const WorkloadError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return false;
    }
    return true;
}

/** Figures 2 and 3: one functional pass per workload, from the
 *  program's entry, for @p insts instructions. */
void
runFunctionalPass(uint64_t insts, unsigned jobs, Results &res)
{
    res.func.assign(res.names.size(), FuncCounts{});
    auto &cache = workloads::globalCache();
    sim::SweepRunner::parallelFor(res.names.size(), jobs, [&](size_t i) {
        func::Emulator emu(cache.get(res.names[i]).program);
        FuncCounts &c = res.func[i];
        while (!emu.halted() && c.total < insts) {
            auto rec = emu.step();
            ++c.total;
            if (rec.inst.isStore())
                ++c.stores;
            else if (rec.inst.isTwoSourceFormat()) {
                ++c.fmt2;
                if (rec.inst.isNop())
                    ++c.nops;
                else if (rec.inst.uniqueSrcRegs().count == 2)
                    ++c.two;
                else
                    ++c.one;
            }
        }
    });
}

int
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "%s\nusage: hpa_figures [--insts N] [--jobs N]\n",
                 error.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t insts = 150000;
    unsigned jobs = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a != "--insts" && a != "--jobs")
            return usage("unknown option: " + a);
        if (i + 1 >= argc)
            return usage(a + " needs a value");
        const std::string v = argv[++i];
        if (a == "--jobs") {
            std::string err = tools::parseUnsignedOption(a, v, jobs);
            if (!err.empty())
                return usage(err);
        } else if (!tools::parseNumber(v, insts) || insts == 0) {
            return usage("--insts expects a positive integer, got '" + v
                         + "'");
        }
    }

    const std::vector<std::string> names = workloads::benchmarkNames();
    Results res{names, {}, {}};
    std::vector<Figure> figs;
    try {
        figs = figures();
        if (!runTimingCells(figs, insts, jobs, res))
            return 1;
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "hpa_figures: %s\n", e.what());
        return 1;
    }
    runFunctionalPass(insts, jobs, res);

    std::printf("committed-instruction budget per run: %llu\n",
                static_cast<unsigned long long>(insts));
    const std::string rule(68, '=');
    for (const Figure &fig : figs) {
        std::printf("%s\n%s\nReproduces: Kim & Lipasti, ISCA 2003, "
                    "%s\n%s\n",
                    rule.c_str(), fig.title.c_str(), fig.ref.c_str(),
                    rule.c_str());
        for (const Section &s : fig.sections)
            printSection(s, res);
        if (fig.body)
            fig.body(res);
        std::printf("%s", fig.footer.c_str());
    }
    return 0;
}
