/**
 * @file
 * Measurement core of the reproduction benchmark (perfbench/run.py
 * drives it; perfbench/README.md describes the workloads and metrics).
 *
 *   hpa_perfbench --workload repro-grid|steady-long|func-live
 *                 --seed N --seconds S --trace 0|1
 *
 * Runs one workload single-threaded for about S seconds and prints one
 * JSON document of raw results on stdout: host timings, every cell's
 * IPC, cycle counts and statistics digest, the functional pass's
 * instruction mix and, with --trace 1, the per-layer metrics. run.py
 * checks the outputs against the reference files. With --trace 1 the
 * recorded spans are also written to spans-<workload>-<seed>.json
 * beside the executable.
 *
 * The library is driven only through its public surface:
 * workloads::make / WorkloadCache, func::CommittedTrace::capture,
 * func::Emulator::step, sim::Simulation, sim::SweepRunner::run with
 * default ExperimentSpec knobs, mem::Hierarchy and
 * bpred::BranchPredictor. Layer spans are recorded here, around each
 * call into a layer, never inside the library.
 *
 * Host time on a shared machine is noisy at the scale of seconds, so
 * every timed quantity is measured per kernel and repeated, and a
 * reported time is the sum over kernels of each kernel's median.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bpred/bpred.hh"
#include "func/emulator.hh"
#include "func/trace.hh"
#include "mem/hierarchy.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "stats/json.hh"
#include "workloads/workloads.hh"

using namespace hpa;

namespace
{

// --- workload parameters --------------------------------------------

/** Budget of tools/golden_sweep_ipc.json. */
constexpr uint64_t REPRO_INSTS = 50000;
/** Four times the golden budget: caches and predictors are warm for
 *  most of each cell, and per-cell construction and statistics are
 *  under 1% of the simulation phase. */
constexpr uint64_t STEADY_INSTS = 200000;
/** Functional-pass length per kernel (Figures 2-3 style) on
 *  func-live, where the pass is the main phase. */
constexpr uint64_t FUNC_STEPS = 2000000;
/** Functional-pass length per kernel after every set-up of
 *  repro-grid and steady-long, which gives func_minst_per_s there. */
constexpr uint64_t SETUP_FUNC_STEPS = 200000;
/** Execution-driven run budget per kernel on func-live. */
constexpr uint64_t LIVE_INSTS = 100000;
/** repro-grid and steady-long set up this many times before each
 *  pass, so that set-up is sampled across the whole run; func-live
 *  sets up once per pass. */
constexpr unsigned SETUPS_PER_PASS = 2;
/** Cycle cap of the per-machine probe for the reproduction machines
 *  a workload does not simulate itself. */
constexpr uint64_t PROBE_CYCLES = 20000;

// --- clocks ---------------------------------------------------------

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Fixed dependent integer loop timed before and after the workload,
 *  as a host-speed sentinel. @return ns per iteration, median of 3. */
double
hostCalibNs()
{
    constexpr uint64_t N = 1u << 24;
    std::vector<double> t;
    for (int rep = 0; rep < 3; ++rep) {
        uint64_t x = 0x9e3779b97f4a7c15ull + uint64_t(rep);
        double t0 = wallNow();
        for (uint64_t i = 0; i < N; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            asm volatile("" : "+r"(x)); // keep every step
        }
        t.push_back((wallNow() - t0) * 1e9 / double(N));
    }
    return median(t);
}

/** Wall and CPU time of one timed section. */
struct Sample
{
    double wall = 0.0;
    double cpu = 0.0;
};

class Stopwatch
{
  public:
    Stopwatch() : wall_(wallNow()), cpu_(cpuNow()) {}

    Sample
    elapsed() const
    {
        return {wallNow() - wall_, cpuNow() - cpu_};
    }

  private:
    double wall_, cpu_;
};

/** Repeated per-kernel samples of one phase. */
class Series
{
  public:
    void
    add(const std::string &kernel, Sample s)
    {
        s_[kernel].push_back(s);
    }

    /** Sum over kernels of the median over repetitions. */
    double
    robustWall() const
    {
        return robust(&Sample::wall);
    }

    double
    robustCpu() const
    {
        return robust(&Sample::cpu);
    }

    size_t
    reps() const
    {
        return s_.empty() ? 0 : s_.begin()->second.size();
    }

    /** Every sample, as {kernel: [[wall, cpu], ...]}. */
    void
    toJson(stats::json::JsonWriter &jw) const
    {
        jw.beginObject();
        for (const auto &[k, v] : s_) {
            jw.key(k).beginArray();
            for (const Sample &s : v)
                jw.beginArray().value(s.wall).value(s.cpu).endArray();
            jw.endArray();
        }
        jw.endObject();
    }

  private:
    std::map<std::string, std::vector<Sample>> s_;

    double
    robust(double Sample::*field) const
    {
        double sum = 0.0;
        for (const auto &[k, v] : s_) {
            std::vector<double> x;
            for (const Sample &s : v)
                x.push_back(s.*field);
            sum += median(x);
        }
        return sum;
    }
};

// --- spans ----------------------------------------------------------

struct Span
{
    std::string name;
    int parent = -1;
    double t0 = 0.0;
    double t1 = 0.0;
};

/** In-memory span recorder, switched on only around traced phases. */
class Tracer
{
  public:
    bool on = false;
    std::vector<Span> spans;

    int
    begin(const char *name)
    {
        if (!on)
            return -1;
        int id = int(spans.size());
        spans.push_back({name, open_.empty() ? -1 : open_.back(),
                         wallNow(), 0.0});
        open_.push_back(id);
        return id;
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        spans[size_t(id)].t1 = wallNow();
        open_.pop_back();
    }

  private:
    std::vector<int> open_;
};

Tracer tracer;

class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name) : id_(tracer.begin(name)) {}
    ~ScopedSpan() { tracer.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int id_;
};

struct LayerTime
{
    double total = 0.0; ///< summed span durations
    double self = 0.0;  ///< minus the time covered by child spans
    uint64_t count = 0;
};

std::map<std::string, LayerTime>
aggregateSpans()
{
    std::map<std::string, LayerTime> out;
    std::vector<double> child(tracer.spans.size(), 0.0);
    for (const Span &s : tracer.spans)
        if (s.parent >= 0)
            child[size_t(s.parent)] += s.t1 - s.t0;
    for (size_t i = 0; i < tracer.spans.size(); ++i) {
        const Span &s = tracer.spans[i];
        LayerTime &lt = out[s.name];
        lt.total += s.t1 - s.t0;
        lt.self += s.t1 - s.t0 - child[i];
        ++lt.count;
    }
    return out;
}

// --- cells ----------------------------------------------------------

/** Registry counters reported per cell and summed per layer. */
const char *const COUNTERS[] = {
    "core.issued",   "core.squashed_issues",  "core.load_miss_replays",
    "il1.hits",      "il1.misses",            "dl1.hits",
    "dl1.misses",    "l2.hits",               "l2.misses",
    "bpred.lookups", "bpred.dir_mispredicts", "bpred.target_mispredicts",
};
constexpr size_t NUM_COUNTERS = std::size(COUNTERS);

struct CellResult
{
    bool ok = false;
    std::string error;
    double ipc = 0.0;
    uint64_t cycles = 0;
    uint64_t committed = 0;
    std::string digest;
    uint64_t counters[NUM_COUNTERS] = {};

    bool
    operator==(const CellResult &o) const
    {
        return ok == o.ok && ipc == o.ipc && cycles == o.cycles
            && committed == o.committed && digest == o.digest;
    }
};

/** The stats layer: the registry rendered as hpa.stats.v1 JSON and
 *  hashed (FNV-1a 64) into the cell's digest. */
void
emitStats(const stats::Registry &reg, CellResult &c)
{
    std::ostringstream os;
    reg.toJson(os);
    uint64_t h = 1469598103934665603ull;
    for (unsigned char ch : os.str()) {
        h ^= ch;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    c.digest = buf;
    for (size_t i = 0; i < NUM_COUNTERS; ++i) {
        const stats::Counter *ctr = reg.findCounter(COUNTERS[i]);
        c.counters[i] = ctr ? ctr->value() : 0;
    }
}

void
fillFrom(sim::Simulation &s, CellResult &c)
{
    c.ok = s.core().cycle() > 0;
    c.ipc = s.ipc();
    c.cycles = s.core().cycle();
    c.committed = s.core().stats().committed.value();
}

/** Host time of one cell's phases. */
struct CellTimes
{
    Sample construct; ///< Simulation construction
    Sample sim;       ///< run() plus statistics
    double run_s = 0; ///< wall seconds of run() alone
};

/** Construct, run and read out one cell with a span around each layer
 *  call. A failure in any of them fails this cell only, as in
 *  SweepRunner::run. @param make builds the Simulation. */
template <typename Make>
CellResult
runCell(const char *construct_span, Make make, CellTimes &t)
{
    CellResult c;
    t = CellTimes{};
    try {
        std::unique_ptr<sim::Simulation> s;
        {
            Stopwatch construct;
            ScopedSpan sp(construct_span);
            s = make();
            t.construct = construct.elapsed();
        }
        Stopwatch sim;
        {
            ScopedSpan sp("core.run");
            s->run();
        }
        t.run_s = sim.elapsed().wall;
        {
            ScopedSpan sp("stats.emit");
            emitStats(s->statsRegistry(), c);
        }
        fillFrom(*s, c);
        t.sim = sim.elapsed();
    } catch (const std::exception &e) {
        c.ok = false;
        c.error = e.what();
    }
    return c;
}

uint64_t
steadyPc(const assembler::Program &p)
{
    auto it = p.symbols.find("steady");
    return it == p.symbols.end() ? 0 : it->second;
}

sim::Machine
reproductionMachine(const std::string &name)
{
    for (const auto &m : sim::reproductionMachines())
        if (m.name == name)
            return m;
    throw std::logic_error("no reproduction machine " + name);
}

struct Mix
{
    uint64_t total = 0, loads = 0, stores = 0, control = 0,
             two_src_fmt = 0, two_unique = 0, nops = 0;
    bool operator==(const Mix &) const = default;
};

// --- the benchmark --------------------------------------------------

class Bench
{
  public:
    Bench(std::string workload, uint64_t seed, double seconds, bool trace)
        : workload_(std::move(workload)), seed_(seed), seconds_(seconds),
          trace_(trace), rng_(seed)
    {}

    /** @param spans_dir where a traced run writes its spans. */
    void run(const std::string &spans_dir);

  private:
    using CellKey = std::pair<std::string, std::string>; // machine, kernel

    std::string workload_;
    uint64_t seed_;
    double seconds_;
    bool trace_;
    std::mt19937_64 rng_;
    bool funcLive_ = false;

    uint64_t budget_ = 0;
    std::vector<std::string> machineNames_;
    /** Kernels in seeded order, and each kernel's machines in seeded
     *  order: the seed permutes the cells, never their results. */
    std::vector<std::string> kernels_;
    std::map<std::string, std::vector<sim::Machine>> cellsOf_;

    std::unique_ptr<workloads::WorkloadCache> cache_;
    /** The workload's traces, owned by cache_ or liveTraces_. */
    std::map<std::string, const func::CommittedTrace *> traces_;
    std::vector<std::unique_ptr<func::CommittedTrace>> liveTraces_;

    /** Untraced timings, per kernel and repetition. */
    Series setup_, func_, sim_;
    /** Whole-pass wall times, untraced [0] and traced [1]. */
    std::vector<double> passWall_[2];

    std::map<CellKey, CellResult> results_;
    std::set<CellKey> unstable_;
    /** Traced core.run seconds per cell, summed over traced passes. */
    std::map<CellKey, double> cellRunS_;
    std::map<std::string, Mix> mix_;
    std::set<std::string> unstableMix_;

    /** Setup-layer sizes of one setup. */
    uint64_t staticInsts_ = 0, emulated_ = 0, ffInsts_ = 0,
             traceBytes_ = 0;
    std::map<std::string, double> probeNsPerCycle_;
    /** Machine -> error of a probe replay that failed. */
    std::map<std::string, std::string> probeErrors_;

    struct LiveCheck
    {
        std::string kernel;
        uint64_t liveCycles = 0, liveCommitted = 0;
        uint64_t replayCycles = 0, replayCommitted = 0;
        double replayIpc = 0.0, combinedIpc = 0.0;
        std::string error; ///< set when capture or a replay failed
    };
    std::vector<LiveCheck> liveChecks_;

    std::map<std::string, double> layers_;

    void define();
    void setupTraces();
    /** Register a kernel's trace and add it to the setup-layer sizes. */
    void noteTrace(const std::string &kernel,
                   const assembler::Program &prog,
                   const func::CommittedTrace &t);
    /** Time one kernel's functional pass into func_ and record its
     *  instruction mix. */
    void functionalPass(const std::string &kernel,
                        const assembler::Program &prog, uint64_t steps);
    void sweepPass();
    void tracedPass();
    void funcLivePass(bool traced);
    void liveCheck();
    void record(const std::string &machine, const std::string &kernel,
                CellResult r);
    void probes();
    void layerMetrics();
    void emit(double calib_before, double calib_after) const;
    void writeSpans(const std::string &file) const;
};

void
Bench::define()
{
    if (workload_ == "repro-grid") {
        budget_ = REPRO_INSTS;
        for (const auto &m : sim::reproductionMachines())
            machineNames_.push_back(m.name);
    } else if (workload_ == "steady-long") {
        budget_ = STEADY_INSTS;
        machineNames_ = {"4-wide", "8-wide", "8-wide/seq-wakeup/seq-rf"};
    } else if (workload_ == "func-live") {
        budget_ = LIVE_INSTS;
        machineNames_ = {"4-wide"};
        funcLive_ = true;
    } else {
        throw std::invalid_argument("unknown workload '" + workload_ + "'");
    }
    kernels_ = workloads::benchmarkNames();
    std::shuffle(kernels_.begin(), kernels_.end(), rng_);
    for (const auto &k : kernels_) {
        std::vector<sim::Machine> ms;
        for (const auto &name : machineNames_)
            ms.push_back(reproductionMachine(name));
        std::shuffle(ms.begin(), ms.end(), rng_);
        cellsOf_[k] = std::move(ms);
    }
}

void
Bench::record(const std::string &machine, const std::string &kernel,
              CellResult r)
{
    auto [it, fresh] = results_.try_emplace({machine, kernel}, r);
    if (fresh || !it->second.ok)
        return;
    if (!r.ok)
        it->second = std::move(r); // keep the failure and its error
    else if (!(it->second == r))
        unstable_.insert(it->first);
}

/** Assemble every kernel and capture its committed trace into a fresh
 *  cache (repro-grid, steady-long). */
void
Bench::setupTraces()
{
    ScopedSpan root("bench.setup");
    cache_.reset(); // free the previous setup's traces first
    traces_.clear();
    cache_ = std::make_unique<workloads::WorkloadCache>();
    staticInsts_ = emulated_ = ffInsts_ = traceBytes_ = 0;
    for (const auto &k : kernels_) {
        Stopwatch setup;
        const workloads::Workload *w;
        {
            ScopedSpan s("workloads.make");
            w = &cache_->get(k);
        }
        const func::CommittedTrace *t;
        {
            ScopedSpan s("func.capture");
            t = &cache_->trace(k, workloads::Scale::Full, budget_,
                               steadyPc(w->program));
        }
        setup_.add(k, setup.elapsed());
        noteTrace(k, w->program, *t);
        functionalPass(k, w->program, SETUP_FUNC_STEPS);
    }
}

void
Bench::functionalPass(const std::string &kernel,
                      const assembler::Program &prog, uint64_t steps)
{
    Stopwatch step;
    Mix m;
    {
        ScopedSpan s("func.step");
        func::Emulator emu(prog);
        while (!emu.halted() && m.total < steps) {
            const isa::StaticInst si = emu.step().inst;
            ++m.total;
            m.loads += si.isLoad();
            m.control += si.isControl();
            if (si.isStore()) {
                ++m.stores;
            } else if (si.isTwoSourceFormat()) {
                ++m.two_src_fmt;
                if (si.isNop())
                    ++m.nops;
                else if (si.uniqueSrcRegs().count == 2)
                    ++m.two_unique;
            }
        }
    }
    func_.add(kernel, step.elapsed());
    auto [it, fresh] = mix_.emplace(kernel, m);
    if (!fresh && !(it->second == m))
        unstableMix_.insert(kernel);
}

void
Bench::noteTrace(const std::string &kernel,
                 const assembler::Program &prog,
                 const func::CommittedTrace &t)
{
    traces_[kernel] = &t;
    staticInsts_ += prog.code.size();
    emulated_ += t.size() + t.fastForwarded();
    ffInsts_ += t.fastForwarded();
    traceBytes_ += t.memoryBytes();
}

/** Untraced repro-grid / steady-long pass: a serial SweepRunner::run
 *  over each kernel's cells, then every cell's statistics. */
void
Bench::sweepPass()
{
    Stopwatch pass;
    sim::SweepRunner runner(1, cache_.get());
    for (const auto &k : kernels_) {
        std::vector<sim::ExperimentSpec> jobs;
        for (const sim::Machine &m : cellsOf_[k]) {
            sim::ExperimentSpec spec;
            spec.workload = k;
            spec.machine = m;
            spec.max_insts = budget_;
            jobs.push_back(std::move(spec));
        }
        Stopwatch sim;
        std::vector<sim::RunResult> res = runner.run(std::move(jobs));
        std::vector<CellResult> out(res.size());
        for (size_t i = 0; i < res.size(); ++i) {
            const sim::RunResult &r = res[i];
            CellResult &c = out[i];
            c.ok = r.valid();
            if (!c.ok) {
                c.error = r.outcome.error;
                continue;
            }
            c.ipc = r.ipc;
            c.cycles = r.cycles;
            c.committed = r.committed;
            emitStats(r.statsRegistry(), c);
        }
        sim_.add(k, sim.elapsed());
        for (size_t i = 0; i < res.size(); ++i)
            record(res[i].spec.machine.name, k, std::move(out[i]));
    }
    passWall_[0].push_back(pass.elapsed().wall);
}

/** Traced repro-grid / steady-long pass: the same cells, each layer
 *  called on its own so that its span can be recorded. */
void
Bench::tracedPass()
{
    tracer.on = true;
    Stopwatch pass;
    {
        ScopedSpan root("bench.pass");
        for (const auto &k : kernels_) {
            for (const sim::Machine &m : cellsOf_[k]) {
                CellTimes t;
                CellResult c = runCell(
                    "sim.construct",
                    [&] {
                        return std::make_unique<sim::Simulation>(
                            *traces_.at(k), m.cfg);
                    },
                    t);
                cellRunS_[{m.name, k}] += t.run_s;
                record(m.name, k, std::move(c));
            }
        }
    }
    tracer.on = false;
    passWall_[1].push_back(pass.elapsed().wall);
}

/** One func-live pass, kernel by kernel: assemble, the functional
 *  pass, then an execution-driven run with a live emulator. */
void
Bench::funcLivePass(bool traced)
{
    tracer.on = traced;
    Stopwatch pass;
    {
        ScopedSpan root("bench.pass");
        for (const auto &k : kernels_) {
            Stopwatch make;
            workloads::Workload w;
            {
                ScopedSpan s("workloads.make");
                w = workloads::make(k);
            }
            const Sample make_t = make.elapsed();

            functionalPass(k, w.program, FUNC_STEPS);

            for (const sim::Machine &mach : cellsOf_[k]) {
                CellTimes t;
                CellResult c = runCell(
                    "sim.live_construct",
                    [&] {
                        return std::make_unique<sim::Simulation>(
                            w.program, mach.cfg, budget_,
                            steadyPc(w.program));
                    },
                    t);
                if (traced) {
                    cellRunS_[{mach.name, k}] += t.run_s;
                } else {
                    setup_.add(k, {make_t.wall + t.construct.wall,
                                   make_t.cpu + t.construct.cpu});
                    sim_.add(k, t.sim);
                }
                record(mach.name, k, std::move(c));
            }
        }
    }
    tracer.on = false;
    passWall_[traced].push_back(pass.elapsed().wall);
}

/** func-live, after the timed passes: capture each kernel's trace and
 *  replay it on the live machine (it must match the live run) and on
 *  the combined half-price machine (for paper_gap_pp). */
void
Bench::liveCheck()
{
    tracer.on = trace_;
    ScopedSpan root("bench.check");
    const sim::Machine base = reproductionMachine("4-wide");
    const sim::Machine combined =
        reproductionMachine("4-wide/seq-wakeup/seq-rf");
    for (const auto &k : kernels_) {
        const CellResult &live = results_.at({base.name, k});
        LiveCheck lc;
        lc.kernel = k;
        lc.liveCycles = live.cycles;
        lc.liveCommitted = live.committed;
        try {
            workloads::Workload w;
            {
                ScopedSpan s("workloads.make");
                w = workloads::make(k);
            }
            {
                ScopedSpan s("func.capture");
                liveTraces_.push_back(
                    std::make_unique<func::CommittedTrace>(
                        func::CommittedTrace::capture(
                            w.program, steadyPc(w.program), budget_)));
            }
            const func::CommittedTrace &t = *liveTraces_.back();
            noteTrace(k, w.program, t);

            std::unique_ptr<sim::Simulation> replay, comb;
            {
                ScopedSpan s("sim.construct");
                replay = std::make_unique<sim::Simulation>(t, base.cfg);
            }
            {
                ScopedSpan s("sim.construct");
                comb = std::make_unique<sim::Simulation>(t, combined.cfg);
            }
            {
                ScopedSpan s("core.replay");
                replay->run();
                comb->run();
            }
            lc.replayCycles = replay->core().cycle();
            lc.replayCommitted = replay->core().stats().committed.value();
            lc.replayIpc = replay->ipc();
            lc.combinedIpc = comb->ipc();
        } catch (const std::exception &e) {
            lc.error = e.what();
        }
        liveChecks_.push_back(std::move(lc));
    }
    tracer.on = false;
}

/** Traced-run layer probes: standalone replays of the traces' fetch,
 *  data and branch streams, and a capped replay on every reproduction
 *  machine the workload does not simulate. */
void
Bench::probes()
{
    tracer.on = true;
    ScopedSpan root("bench.probe");
    uint64_t mem_calls = 0, bp_calls = 0;
    double mem_s = 0.0, bp_s = 0.0;
    unsigned sink = 0;
    for (const auto &k : kernels_) {
        const func::CommittedTrace &t = *traces_.at(k);
        mem::Hierarchy h;
        const uint64_t line_mask =
            ~uint64_t(h.il1().config().line_bytes - 1);
        uint64_t line = ~0ull;
        Stopwatch mem_t;
        {
            ScopedSpan s("mem.replay");
            for (size_t i = 0; i < t.size(); ++i) {
                const func::ExecRecord &r = t.record(i);
                if ((r.pc & line_mask) != line) {
                    line = r.pc & line_mask;
                    sink += h.fetchAccess(r.pc);
                    ++mem_calls;
                }
                if (r.inst.isMemRef()) {
                    sink += h.dataAccess(r.effAddr, r.inst.isStore());
                    ++mem_calls;
                }
            }
        }
        mem_s += mem_t.elapsed().wall;
        bpred::BranchPredictor bp;
        Stopwatch bp_t;
        {
            ScopedSpan s("bpred.replay");
            for (size_t i = 0; i < t.size(); ++i) {
                const func::ExecRecord &r = t.record(i);
                if (!r.inst.isControl())
                    continue;
                sink += bp.predict(r.pc, r.inst).taken;
                bp.resolve(r.pc, r.inst, r.taken, r.nextPc);
                ++bp_calls;
            }
        }
        bp_s += bp_t.elapsed().wall;
    }
    asm volatile("" : : "r"(sink)); // the replays' results are used
    layers_["mem.ns_per_access"] = mem_s * 1e9 / double(mem_calls);
    layers_["bpred.ns_per_lookup"] = bp_s * 1e9 / double(bp_calls);

    for (const auto &m : sim::reproductionMachines()) {
        if (std::count(machineNames_.begin(), machineNames_.end(), m.name))
            continue;
        Stopwatch probe;
        uint64_t cycles = 0;
        for (const auto &k : kernels_) {
            ScopedSpan s("core.probe");
            try {
                sim::Simulation p(*traces_.at(k), m.cfg);
                p.run(PROBE_CYCLES);
                cycles += p.core().cycle();
            } catch (const std::exception &e) {
                probeErrors_[m.name] = k + ": " + e.what();
            }
        }
        probeNsPerCycle_[m.name] =
            cycles ? probe.elapsed().wall * 1e9 / double(cycles) : 0.0;
    }
    tracer.on = false;
}

void
Bench::layerMetrics()
{
    const std::map<std::string, LayerTime> agg = aggregateSpans();
    auto span = [&](const char *name) {
        auto it = agg.find(name);
        return it == agg.end() ? LayerTime{} : it->second;
    };
    const double nk = double(kernels_.size());
    const double traced = double(passWall_[1].size());
    auto &L = layers_;

    // Setup layers, per setup of every kernel.
    const LayerTime make = span("workloads.make");
    const LayerTime cap = span("func.capture");
    const double capture_s = cap.total * nk / double(cap.count);
    L["workloads.make_ms"] = make.total * nk / double(make.count) * 1e3;
    L["asm.static_insts"] = double(staticInsts_);
    L["func.capture_ms"] = capture_s * 1e3;
    L["func.emulated_insts"] = double(emulated_);
    L["func.ff_insts"] = double(ffInsts_);
    L["func.ns_per_inst"] = capture_s * 1e9 / double(emulated_);
    L["func.trace_mb"] = double(traceBytes_) / 1e6;
    // Every kernel has as many func.step spans, each of its mix total.
    const LayerTime step = span("func.step");
    double stepped = 0.0;
    for (const auto &[k, m] : mix_)
        stepped += double(m.total) * double(step.count) / nk;
    L["func.step_ns"] = step.total * 1e9 / stepped;

    const LayerTime cons = span("sim.construct");
    const LayerTime st = span("stats.emit");
    L["sim.construct_us_per_cell"] = cons.total / double(cons.count) * 1e6;
    L["stats.emit_us_per_cell"] = st.total / double(st.count) * 1e6;

    // Core: the registry counts of one pass, host time per traced pass.
    uint64_t sum[NUM_COUNTERS] = {}, cycles = 0, committed = 0;
    for (const auto &[key, r] : results_) {
        cycles += r.cycles;
        committed += r.committed;
        for (size_t i = 0; i < NUM_COUNTERS; ++i)
            sum[i] += r.counters[i];
    }
    auto counter = [&](const std::string &name) {
        for (size_t i = 0; i < NUM_COUNTERS; ++i)
            if (name == COUNTERS[i])
                return double(sum[i]);
        throw std::logic_error("unreported counter " + name);
    };
    const double run_s = span("core.run").total / traced;
    const double issued = counter("core.issued");
    const double squashed = counter("core.squashed_issues");
    L["core.run_s"] = run_s;
    L["core.cycles"] = double(cycles);
    L["core.committed"] = double(committed);
    L["core.issued"] = issued;
    L["core.squashed_issues"] = squashed;
    L["core.issue_useful_ratio"] = (issued - squashed) / issued;
    L["core.load_miss_replays"] = counter("core.load_miss_replays");
    L["core.ns_per_issue"] = run_s * 1e9 / issued;

    std::map<std::string, std::pair<double, double>> secs_cycles;
    for (const auto &[key, secs] : cellRunS_) {
        const double cyc = double(results_.at(key).cycles) * traced;
        for (const std::string &name : {key.first, key.second}) {
            secs_cycles[name].first += secs;
            secs_cycles[name].second += cyc;
        }
    }
    for (const auto &[name, v] : secs_cycles)
        L["core.ns_per_cycle." + name] = v.first * 1e9 / v.second;
    for (const auto &[m, v] : probeNsPerCycle_)
        L["core.ns_per_cycle." + m] = v;

    // Memory and branch prediction: the registry's call counts priced
    // at the standalone replays' cost per call, as a share of core.run.
    const double dl1 = counter("dl1.hits") + counter("dl1.misses");
    const double mem_acc = counter("il1.hits") + counter("il1.misses") + dl1;
    const double lookups = counter("bpred.lookups");
    L["mem.accesses"] = mem_acc;
    L["mem.dl1_miss_ratio"] = counter("dl1.misses") / dl1;
    L["mem.l2_miss_ratio"] =
        counter("l2.misses") / (counter("l2.hits") + counter("l2.misses"));
    L["mem.est_share"] = L["mem.ns_per_access"] * mem_acc / (run_s * 1e9);
    L["bpred.lookups"] = lookups;
    L["bpred.mispredict_ratio"] = (counter("bpred.dir_mispredicts")
                                   + counter("bpred.target_mispredicts"))
        / lookups;
    L["bpred.est_share"] = L["bpred.ns_per_lookup"] * lookups / (run_s * 1e9);

    // Accounting: traced against untraced passes, and the share of the
    // traced setups and passes that no layer span covers.
    const double untraced = median(passWall_[0]);
    L["bench.trace_overhead_pct"] =
        (median(passWall_[1]) - untraced) / untraced * 100.0;
    const LayerTime setup = span("bench.setup"), pass = span("bench.pass");
    L["bench.unattributed_pct"] =
        (setup.self + pass.self) / (setup.total + pass.total) * 100.0;
}

void
Bench::writeSpans(const std::string &file) const
{
    std::ofstream os(file);
    stats::json::JsonWriter jw(os);
    jw.beginObject().kv("schema", "hpa.perfbench-spans.v1");
    jw.kv("workload", workload_);
    jw.key("spans").beginArray();
    for (const Span &s : tracer.spans) {
        jw.beginObject()
            .kv("name", s.name)
            .kv("parent", int64_t(s.parent))
            .kv("start_s", s.t0)
            .kv("end_s", s.t1)
            .endObject();
    }
    jw.endArray().endObject();
    os << "\n";
    if (!os)
        throw std::runtime_error("cannot write " + file);
}

void
Bench::emit(double calib_before, double calib_after) const
{
    uint64_t cycles = 0, func_insts = 0;
    for (const auto &[key, r] : results_)
        cycles += r.cycles;
    for (const auto &[k, m] : mix_)
        func_insts += m.total;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    stats::json::JsonWriter jw(std::cout);
    jw.beginObject().kv("schema", "hpa.perfbench-raw.v1");
    jw.kv("workload", workload_).kv("budget", budget_);
    jw.kv("compiler", __VERSION__)
        .kv("cxx_flags", PERFBENCH_CXX_FLAGS)
        .kv("build_type", PERFBENCH_BUILD_TYPE);
    jw.key("host_calib_ns")
        .beginArray()
        .value(calib_before)
        .value(calib_after)
        .endArray();
    jw.kv("setups", uint64_t(setup_.reps()))
        .kv("passes", uint64_t(passWall_[0].size()))
        .kv("traced_passes", uint64_t(passWall_[1].size()));

    jw.key("end_to_end").beginObject();
    jw.kv("setup_s", setup_.robustWall());
    // The functional pass is func-live's main phase; elsewhere it only
    // gives func_minst_per_s.
    jw.kv("cpu_s", setup_.robustCpu() + sim_.robustCpu()
                       + (funcLive_ ? func_.robustCpu() : 0.0));
    jw.kv("ns_per_cycle", sim_.robustWall() * 1e9 / double(cycles));
    jw.kv("func_minst_per_s", double(func_insts) / func_.robustWall() / 1e6);
    jw.kv("peak_rss_mb", double(ru.ru_maxrss) / 1024.0);
    jw.endObject();

    jw.key("samples").beginObject();
    jw.key("setup");
    setup_.toJson(jw);
    jw.key("func");
    func_.toJson(jw);
    jw.key("sim");
    sim_.toJson(jw);
    jw.endObject();

    if (trace_) {
        jw.key("per_layer").beginObject();
        for (const auto &[k, v] : layers_)
            jw.kv(k, v);
        jw.kv("bench.host_calib_ns", 0.5 * (calib_before + calib_after));
        jw.endObject();
    }

    jw.key("cells").beginArray();
    for (const auto &[key, r] : results_) {
        const bool stable = !unstable_.count(key);
        jw.beginObject()
            .kv("machine", key.first)
            .kv("kernel", key.second)
            .kv("ok", r.ok && stable)
            .kv("error", stable ? r.error : "differs between passes")
            .kv("ipc", r.ipc)
            .kv("cycles", r.cycles)
            .kv("committed", r.committed)
            .kv("digest", r.digest)
            .endObject();
    }
    jw.endArray();

    jw.key("mix").beginObject();
    for (const auto &[k, m] : mix_) {
        jw.key(k)
            .beginObject()
            .kv("stable", !unstableMix_.count(k))
            .kv("total", m.total)
            .kv("loads", m.loads)
            .kv("stores", m.stores)
            .kv("control", m.control)
            .kv("two_src_fmt", m.two_src_fmt)
            .kv("two_unique", m.two_unique)
            .kv("nops", m.nops)
            .endObject();
    }
    jw.endObject();

    jw.key("live_checks").beginArray();
    for (const LiveCheck &c : liveChecks_) {
        jw.beginObject()
            .kv("kernel", c.kernel)
            .kv("live_cycles", c.liveCycles)
            .kv("live_committed", c.liveCommitted)
            .kv("replay_cycles", c.replayCycles)
            .kv("replay_committed", c.replayCommitted)
            .kv("replay_ipc", c.replayIpc)
            .kv("combined_ipc", c.combinedIpc)
            .kv("error", c.error)
            .endObject();
    }
    jw.endArray();

    jw.key("probe_errors").beginObject();
    for (const auto &[m, e] : probeErrors_)
        jw.kv(m, e);
    jw.endObject();
    jw.endObject();
    std::cout << "\n";
}

void
Bench::run(const std::string &spans_dir)
{
    define();
    const double calib_before = hostCalibNs();
    const double start = wallNow();
    // A traced run alternates untraced and traced passes, so that the
    // trace overhead is measured under the same host conditions.
    bool traced = false;
    do {
        if (funcLive_) {
            funcLivePass(traced);
        } else {
            tracer.on = trace_;
            for (unsigned i = 0; i < SETUPS_PER_PASS; ++i)
                setupTraces();
            tracer.on = false;
            if (traced)
                tracedPass();
            else
                sweepPass();
        }
        traced = trace_ && !traced;
    } while (wallNow() - start < seconds_ || traced);
    if (funcLive_)
        liveCheck();
    if (trace_) {
        probes();
        layerMetrics();
        writeSpans(spans_dir + "/spans-" + workload_ + "-"
                   + std::to_string(seed_) + ".json");
    }
    emit(calib_before, hostCalibNs());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    try {
        for (int i = 1; i < argc; i += 2) {
            const std::string a = argv[i];
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + a);
            const std::string v = argv[i + 1];
            if (a == "--workload")
                workload = v;
            else if (a == "--seed")
                seed = std::stoull(v);
            else if (a == "--seconds")
                seconds = std::stod(v);
            else if (a == "--trace")
                trace = std::stoi(v);
            else
                throw std::invalid_argument("unknown option " + a);
        }
        if (workload.empty() || !(seconds > 0) || (trace != 0 && trace != 1))
            throw std::invalid_argument(
                "usage: hpa_perfbench --workload W --seed N --seconds S "
                "--trace 0|1");
        Bench bench(workload, seed, seconds, trace == 1);
        const std::filesystem::path dir =
            std::filesystem::path(argv[0]).parent_path();
        bench.run(dir.empty() ? "." : dir.string());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hpa_perfbench: %s\n", e.what());
        return 2;
    }
}
