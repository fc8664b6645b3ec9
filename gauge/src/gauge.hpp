/**
 * @file
 * xmig-gauge: shared declarations of the benchmark binary.
 *
 * The gauge drives the simulator only through its public entry
 * points (runSweep, runQuadcore, TenantArena, the batch entry points
 * of the machine, L1 filter, controller and engine, Workload::run,
 * the trace reader/writer and RunObservatory). Simulated statistics
 * are deterministic at a fixed seed and serve as correctness checks;
 * host time is what gets measured.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "multicore/arena.hpp"
#include "sim/quadcore.hpp"

namespace gauge {

/** Host clocks and resource use. */
double nowSeconds();  ///< steady clock (CLOCK_MONOTONIC), seconds
double cpuSeconds();  ///< process user + system CPU time, seconds
double peakRssMiB();  ///< process peak resident set, MiB
unsigned hostCores(); ///< online processors

/** Wall and CPU seconds of one run of the host probe. */
struct ProbeTime
{
    double wall = 0;
    double cpu = 0; ///< the thread's own CPU time
};

/**
 * Time a fixed probe: a set-associative LRU cache simulation of a
 * fixed reference stream, run on `threads` threads at once (the
 * fastest thread counts). The probe is the gauge's own code, so no
 * change to the simulator moves it; only the host's speed does.
 */
ProbeTime hostProbe(unsigned threads);

/** 64-bit FNV-1a digest of a row, as 16 hex digits. */
std::string digest(const std::string &row);

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};
using Metrics = std::vector<Metric>;

/**
 * One in-memory span around a public call: the layer it measures,
 * the cell (or benchmark class) it ran for, and steady-clock bounds.
 */
struct Span
{
    std::string layer;
    std::string cell;
    double start = 0;
    double end = 0;
};
using Spans = std::vector<Span>;

/** Correctness checks made outside the cell passes: (ok, what). */
using Checks = std::vector<std::pair<bool, std::string>>;

/** Build and host facts recorded with every result. */
struct BuildInfo
{
    std::string compiler;
    std::string buildType;
    std::string auditLevel;
    std::string fault;
    std::string journal;
    std::string trace;
    std::string sanitize;
};
BuildInfo buildInfo();

/**
 * Empty when the build may be timed; otherwise why not (sanitizer or
 * Debug builds measure the instrumentation, not the simulator).
 */
std::string buildRefusal();

/** What kind of public call a cell drives. */
enum class CellKind : uint8_t
{
    Quadcore, ///< runQuadcore: 1-core baseline + 4-core machine
    Observed, ///< runQuadcore with its own RunObservatory
    Arena,    ///< TenantArena construction + run
};

/** One cell of a workload. */
struct CellSpec
{
    std::string name; ///< golden key, e.g. "179.art/filter16"
    CellKind kind = CellKind::Quadcore;

    // Quadcore / Observed cells.
    std::string bench;
    xmig::QuadcoreParams params;
    bool tableRow = false; ///< the Table 2 configuration of `bench`
    std::string workdir;   ///< Observed: where the artifacts go

    // Arena cells.
    xmig::ArenaConfig arena;
    size_t arm = 0; ///< 0 migration, 1 throughput, 2 way-clustered
};

/** A workload: its cells and how many sweep workers run them. */
struct WorkloadSpec
{
    std::string name;
    unsigned jobs = 1;
    std::vector<CellSpec> cells;
    std::vector<std::string> mixes; ///< figure1: cells 3m..3m+2 are mix m
};

/** Workload names in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build the cell list of `name` for the workload seed `seed`. Observed
 * cells write their artifacts under `workdir`.
 */
WorkloadSpec makeWorkloadSpec(const std::string &name, uint64_t seed,
                              const std::string &workdir);

/** Arena configuration of one Figure 1 (mix, arm) cell. */
xmig::ArenaConfig figure1Arena(const std::vector<std::string> &tenants,
                               size_t arm, uint64_t seed);

/** What one cell produced. */
struct CellOut
{
    std::string row;           ///< canonical text of the simulated output
    uint64_t instructions = 0; ///< simulated, warm-up included
    double seconds = 0;        ///< wall time, arena construction excluded
    double setupSeconds = 0;   ///< arena construction (solo probes)
    double setupCpu = 0;       ///< process CPU seconds during it
    double ratio = 0;          ///< quadcore: Table 2 missRatio()
    double makespan = 0;       ///< arena: makespan cycles
    std::vector<std::pair<std::string, uint64_t>> tenantL2Misses;
    std::string error;         ///< non-empty when the cell threw
};

/**
 * Run one cell. `reference` selects the check path: the per-reference
 * feed for quadcore cells, the unobserved batched run for observed
 * cells (whose rows must equal table2's).
 */
CellOut runCell(const CellSpec &cell, bool reference);

/**
 * Run every cell of a workload once on its sweep runner, with `jobs`
 * workers (0: the workload's own). With `spans` (a traced pass), each
 * cell records a span around its public call.
 */
std::vector<CellOut> runPass(const WorkloadSpec &spec, bool reference,
                             Spans *spans = nullptr, unsigned jobs = 0);

/** Crossover verdict per mix ("migration" / "throughput"). */
std::vector<std::string> crossovers(const WorkloadSpec &spec,
                                    const std::vector<CellOut> &outs);

/**
 * Mean |log2(ratio / paper ratio)| over the workload's Table 2 rows
 * (figure1: per tenant, migration-arm over throughput-arm L2 misses).
 */
double paperRatioError(const WorkloadSpec &spec,
                       const std::vector<CellOut> &outs);

/** Paper Table 2 "ratio" column (copied from the Table 2 harness). */
const std::map<std::string, double> &paperRatios();

/**
 * Per-layer replays on recorded streams of the four benchmark
 * classes, plus the arena and observatory layers. Appends metrics
 * named `<layer>.<metric>[.<class>]` and one span per timed call.
 */
void runLayers(uint64_t seed, const std::string &workdir,
               Metrics &metrics, Spans &spans, Checks &checks);

/** Median of a non-empty sample. */
double median(std::vector<double> v);

} // namespace gauge
