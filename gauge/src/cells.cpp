/**
 * @file
 * xmig-gauge workloads: the cell lists and how one cell runs.
 *
 * Why these four (docs in gauge/README.md):
 *  - table2: the paper's headline experiment, 18 unequal cells on two
 *    sweep workers, the only place the runner's scheduling shows.
 *  - config_sweep: four benchmarks under seven controller
 *    configurations at one worker; cells of one benchmark share the
 *    stream, the L1 level and the 1-core baseline, so record-once or
 *    filter-once work would show here.
 *  - figure1: the four 2-tenant mixes x three arms through the arena,
 *    the only path through producer threads, BatchQueue handoff, the
 *    tenant scheduler and the shared L3.
 *  - table2_observed: four table2 cells, each under its own
 *    RunObservatory recording the journal and the metrics; its rows
 *    must equal table2's. Time-series sampling is left out: with a
 *    warm-up, runQuadcore's counter reset trips the sampler's
 *    monotonic-counter audit (a known defect, see gauge/README.md).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>

#include "gauge.hpp"
#include "obs/journal.hpp"
#include "sim/observe.hpp"
#include "sim/runner/sweep.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

namespace gauge {

namespace {

/** table2 / table2_observed budget: caches fill during the warm-up. */
constexpr uint64_t kTable2Warmup = 1'000'000;
constexpr uint64_t kTable2Instr = 1'000'000;

/** config_sweep budget per cell (28 cells on one worker). */
constexpr uint64_t kSweepWarmup = 250'000;
constexpr uint64_t kSweepInstr = 250'000;

/** figure1 budget per tenant. */
constexpr uint64_t kArenaInstr = 500'000;

const std::vector<std::string> kSweepBenches = {
    "179.art", "181.mcf", "164.gzip", "em3d"};

/** One config_sweep controller configuration. */
struct SweepConfig
{
    const char *label;
    uint32_t samplingCutoff;
    uint64_t storeEntries;
    unsigned filterBits;
    size_t windowX;
    size_t windowY;
};

/**
 * From the sampling, filter-bits and R-window ablations; "paper" is
 * the section 4.2 setup and the cell that is a Table 2 row.
 */
const std::vector<SweepConfig> kSweepConfigs = {
    {"paper", 8, 8 * 1024, 18, 128, 64},
    {"sample100", 31, 32 * 1024, 18, 128, 64},
    {"sample13", 4, 4 * 1024, 18, 128, 64},
    {"filter16", 8, 8 * 1024, 16, 128, 64},
    {"filter20", 8, 8 * 1024, 20, 128, 64},
    {"window64", 8, 8 * 1024, 18, 64, 32},
    {"window256", 8, 8 * 1024, 18, 256, 128},
};

struct Mix
{
    const char *name;
    std::vector<std::string> tenants;
};

/** bench_figure1's 2-tenant mixes (its quads would exceed 4 threads). */
const std::vector<Mix> kMixes = {
    {"art+mcf", {"179.art", "181.mcf"}},
    {"art+ammp", {"179.art", "188.ammp"}},
    {"em3d+health", {"em3d", "health"}},
    {"mcf+gzip", {"181.mcf", "164.gzip"}},
};

const char *const kArmNames[] = {"migration", "throughput",
                                 "way_clustered"};

const std::vector<std::string> kObservedBenches = {
    "179.art", "181.mcf", "164.gzip", "em3d"};

QuadcoreParams
table2Params(uint64_t seed)
{
    QuadcoreParams p;
    p.warmupInstructions = kTable2Warmup;
    p.instructionsPerBenchmark = kTable2Instr;
    p.seed = seed;
    return p;
}

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quadcoreRowText(const QuadcoreRow &r)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s %s %llu %llu %llu %llu %llu %llu",
                  r.name.c_str(), r.suite.c_str(),
                  static_cast<unsigned long long>(r.instructions),
                  static_cast<unsigned long long>(r.l1Misses),
                  static_cast<unsigned long long>(r.l2MissesBaseline),
                  static_cast<unsigned long long>(r.l2Misses4x),
                  static_cast<unsigned long long>(r.migrations),
                  static_cast<unsigned long long>(r.l2ToL2Forwards));
    return buf;
}

std::string
arenaRowText(const ArenaResult &r)
{
    std::string row = fmtDouble(r.makespanCycles) + " " +
                      fmtDouble(r.aggregateIpc) + " " +
                      fmtDouble(r.weightedSpeedup) + " " +
                      fmtDouble(r.unfairness) + " " +
                      fmtDouble(r.jainFairness) + " " +
                      std::to_string(r.sharedL3Accesses) + " " +
                      std::to_string(r.sharedL3Misses);
    for (const TenantResult &t : r.tenants)
        row += " | " + t.benchmark + " " +
               std::to_string(t.instructions) + " " +
               std::to_string(t.refs) + " " +
               std::to_string(t.l2Misses) + " " +
               std::to_string(t.l3Accesses) + " " +
               std::to_string(t.l3Misses) + " " +
               std::to_string(t.migrations) + " " +
               std::to_string(t.turns) + " " + fmtDouble(t.cycles) +
               " " + fmtDouble(t.soloCycles) + " " +
               fmtDouble(t.p99TurnCycles);
    return row;
}

std::string
observedPath(const std::string &workdir, const std::string &bench,
             const char *what)
{
    return workdir + "/observed-" + bench + "." + what;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "table2", "config_sweep", "figure1", "table2_observed"};
    return names;
}

const std::map<std::string, double> &
paperRatios()
{
    static const std::map<std::string, double> ratios = {
        {"164.gzip", 1.01}, {"171.swim", 1.00}, {"172.mgrid", 1.00},
        {"175.vpr", 1.60},  {"176.gcc", 0.95},  {"179.art", 0.03},
        {"181.mcf", 0.67},  {"186.crafty", 1.13}, {"188.ammp", 0.17},
        {"197.parser", 1.00}, {"255.vortex", 1.10}, {"256.bzip2", 0.35},
        {"300.twolf", 1.00}, {"bh", 2.16}, {"bisort", 1.08},
        {"em3d", 0.14}, {"health", 0.14}, {"mst", 1.00},
    };
    return ratios;
}

ArenaConfig
figure1Arena(const std::vector<std::string> &tenants, size_t arm,
             uint64_t seed)
{
    // The bench_figure1 cell configuration, at the gauge's budget.
    ArenaConfig cfg;
    cfg.mode = arm == 0 ? ArenaMode::Migration : ArenaMode::Throughput;
    cfg.l3Policy =
        arm == 2 ? L3Policy::WayClustered : L3Policy::Unpartitioned;
    for (const std::string &bench : tenants)
        cfg.tenants.push_back({bench, kArenaInstr, seed});
    cfg.sharedL3Bytes = 512 * 1024;
    cfg.sched.maxResident = 4;
    cfg.sched.quantumRefs =
        cfg.mode == ArenaMode::Migration ? 1'048'576 : 4096;
    cfg.probeInstructions = std::max<uint64_t>(100'000, kArenaInstr / 10);
    return cfg;
}

WorkloadSpec
makeWorkloadSpec(const std::string &name, uint64_t seed,
                 const std::string &workdir)
{
    WorkloadSpec spec;
    spec.name = name;
    if (name == "table2") {
        spec.jobs = 2;
        for (const std::string &bench : allWorkloadNames()) {
            CellSpec c;
            c.name = bench;
            c.bench = bench;
            c.params = table2Params(seed);
            c.tableRow = true;
            spec.cells.push_back(c);
        }
    } else if (name == "config_sweep") {
        spec.jobs = 1;
        for (const std::string &bench : kSweepBenches) {
            for (const SweepConfig &sc : kSweepConfigs) {
                CellSpec c;
                c.name = bench + "/" + sc.label;
                c.bench = bench;
                c.params.warmupInstructions = kSweepWarmup;
                c.params.instructionsPerBenchmark = kSweepInstr;
                c.params.seed = seed;
                MigrationControllerConfig &ctl = c.params.machine.controller;
                ctl.samplingCutoff = sc.samplingCutoff;
                ctl.affinityCache.entries = sc.storeEntries;
                ctl.filterBits = sc.filterBits;
                ctl.windowX = sc.windowX;
                ctl.windowY = sc.windowY;
                c.tableRow = std::string(sc.label) == "paper";
                spec.cells.push_back(c);
            }
        }
    } else if (name == "figure1") {
        spec.jobs = 1;
        for (size_t m = 0; m < kMixes.size(); ++m) {
            spec.mixes.push_back(kMixes[m].name);
            for (size_t arm = 0; arm < 3; ++arm) {
                CellSpec c;
                c.name = std::string(kMixes[m].name) + "/" + kArmNames[arm];
                c.kind = CellKind::Arena;
                c.arena = figure1Arena(kMixes[m].tenants, arm, seed);
                c.arm = arm;
                spec.cells.push_back(c);
            }
        }
    } else if (name == "table2_observed") {
        spec.jobs = 2;
        for (const std::string &bench : kObservedBenches) {
            CellSpec c;
            c.name = bench;
            c.kind = CellKind::Observed;
            c.bench = bench;
            c.params = table2Params(seed);
            c.tableRow = true;
            c.workdir = workdir;
            spec.cells.push_back(c);
        }
    }
    return spec;
}

CellOut
runCell(const CellSpec &cell, bool reference)
{
    CellOut out;
    try {
        if (cell.kind == CellKind::Arena) {
            obs::Journal journal;
            const double c0 = cpuSeconds();
            const double t0 = nowSeconds();
            TenantArena arena(cell.arena);
            out.setupSeconds = nowSeconds() - t0;
            out.setupCpu = cpuSeconds() - c0;
            arena.attachJournal(&journal);
            const ArenaResult r = arena.run();
            out.row = arenaRowText(r);
            out.makespan = r.makespanCycles;
            for (const TenantResult &t : r.tenants) {
                out.instructions += t.instructions;
                out.tenantL2Misses.emplace_back(t.benchmark, t.l2Misses);
            }
        } else {
            QuadcoreParams params = cell.params;
            QuadcoreRow r;
            if (cell.kind == CellKind::Observed && !reference) {
                ObserveOptions o;
                o.metricsOut =
                    observedPath(cell.workdir, cell.bench, "metrics.jsonl");
                o.journalOut =
                    observedPath(cell.workdir, cell.bench, "journal.jsonl");
                RunObservatory observatory(o);
                r = runQuadcore(cell.bench, params, &observatory);
            } else {
                if (reference && cell.kind == CellKind::Quadcore)
                    params.feed = FeedMode::PerRef;
                r = runQuadcore(cell.bench, params);
            }
            out.row = quadcoreRowText(r);
            out.ratio = r.missRatio();
            out.instructions = r.instructions + params.warmupInstructions;
        }
    } catch (const std::exception &e) {
        out.error = e.what();
    } catch (...) {
        out.error = "unknown exception";
    }
    return out;
}

std::vector<CellOut>
runPass(const WorkloadSpec &spec, bool reference, Spans *spans,
        unsigned jobs)
{
    std::vector<CellOut> outs(spec.cells.size());
    std::mutex spansMutex;
    SweepSpec sweep;
    sweep.cells = spec.cells.size();
    sweep.run = [&](size_t i) {
        const double t0 = nowSeconds();
        outs[i] = runCell(spec.cells[i], reference);
        const double t1 = nowSeconds();
        outs[i].seconds = t1 - t0 - outs[i].setupSeconds;
        if (spans == nullptr)
            return RunResult{};
        const std::lock_guard<std::mutex> lock(spansMutex);
        spans->push_back({"cell", spec.cells[i].name, t0, t1});
        return RunResult{};
    };
    runSweep(sweep, jobs > 0 ? jobs : spec.jobs);
    return outs;
}

std::vector<std::string>
crossovers(const WorkloadSpec &spec, const std::vector<CellOut> &outs)
{
    std::vector<std::string> verdicts;
    for (size_t m = 0; m < spec.mixes.size(); ++m) {
        const double mig = outs[m * 3 + 0].makespan;
        const double thr =
            std::min(outs[m * 3 + 1].makespan, outs[m * 3 + 2].makespan);
        verdicts.push_back(mig < thr ? "migration" : "throughput");
    }
    return verdicts;
}

double
paperRatioError(const WorkloadSpec &spec, const std::vector<CellOut> &outs)
{
    double sum = 0;
    size_t n = 0;
    const auto add = [&](const std::string &bench, double ratio) {
        const auto paper = paperRatios().find(bench);
        if (paper == paperRatios().end() || ratio <= 0)
            return;
        sum += std::fabs(std::log2(ratio / paper->second));
        ++n;
    };
    for (size_t i = 0; i < spec.cells.size(); ++i) {
        const CellSpec &c = spec.cells[i];
        if (c.kind != CellKind::Arena) {
            if (c.tableRow)
                add(c.bench, outs[i].ratio);
            continue;
        }
        // Table 2's ratio as the arena reproduces it: a tenant's L2
        // misses on its own 4-core machine (migration arm) over those
        // on a pinned 1-core machine (unpartitioned throughput arm).
        if (c.arm != 0)
            continue;
        const CellOut &mig = outs[i];
        const CellOut &thr = outs[i + 1];
        for (size_t t = 0; t < mig.tenantL2Misses.size(); ++t) {
            const uint64_t base = thr.tenantL2Misses[t].second;
            if (base > 0)
                add(mig.tenantL2Misses[t].first,
                    static_cast<double>(mig.tenantL2Misses[t].second) /
                        static_cast<double>(base));
        }
    }
    return n == 0 ? 0 : sum / static_cast<double>(n);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace gauge
