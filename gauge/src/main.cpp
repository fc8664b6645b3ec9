/**
 * @file
 * xmig-gauge main: one workload, one seed, one measured phase.
 *
 *   xmig_gauge --workload W --seed N --seconds S --trace 0|1
 *              --goldens FILE --workdir DIR [--spans-out FILE]
 *              [--setup-only | --write-goldens]
 *
 * The measured phase repeats whole passes over the workload's cells
 * until S seconds have elapsed and reports a quiet pass, estimated
 * from each cell's fastest run (quietPass), scaled to a reference
 * host speed by a probe run between passes (hostSlowdown). Every
 * cell of every pass is checked: against the golden digest when the
 * goldens file has the seed, otherwise against a reference pass run
 * after the measured phase (per-reference feed for quadcore cells,
 * the unobserved table2 run for observed cells, pass-to-pass identity
 * plus the default seed's crossover verdicts for arena cells).
 *
 * The last stdout line is one JSON object for gauge/run.py, which
 * adds the set-up time measured across separate processes.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gauge.hpp"

using namespace gauge;

namespace {

constexpr uint64_t kDefaultSeed = 42;

struct Args
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string goldens;
    std::string workdir = ".";
    std::string spansOut;
    bool setupOnly = false;
    bool writeGoldens = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "xmig_gauge: %s\nusage: xmig_gauge --workload W --seed N "
                 "--seconds S --trace 0|1 --goldens FILE --workdir DIR "
                 "[--spans-out FILE] [--setup-only | --write-goldens]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " wants a non-negative integer, not '" + v + "'");
    return std::strtoull(v.c_str(), nullptr, 10);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (flag == "--write-goldens") {
            a.writeGoldens = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = parseUint(flag, v);
        else if (flag == "--seconds")
            a.seconds = static_cast<double>(parseUint(flag, v));
        else if (flag == "--trace")
            a.trace = parseUint(flag, v) != 0;
        else if (flag == "--goldens")
            a.goldens = v;
        else if (flag == "--workdir")
            a.workdir = v;
        else if (flag == "--spans-out")
            a.spansOut = v;
        else
            usage("unknown flag " + flag);
    }
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == a.workload;
    if (!known)
        usage("unknown workload '" + a.workload + "'");
    if (a.seconds < 1)
        usage("--seconds must be at least 1");
    return a;
}

/** goldens[workload][seed][cell] = digest, or crossover verdict. */
using Goldens =
    std::map<std::string, std::map<uint64_t, std::map<std::string, std::string>>>;

Goldens
loadGoldens(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        usage("cannot read goldens file '" + path + "'");
    Goldens g;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, seed, cell, value;
        if (!(fields >> workload >> seed >> cell >> value))
            usage("malformed goldens line '" + line + "'");
        g[workload][parseUint("seed", seed)][cell] = value;
    }
    return g;
}

/** Name used for a crossover verdict in the goldens file. */
std::string
crossoverKey(const std::string &mix)
{
    return mix + "/crossover";
}

/**
 * Golden values this run checks against, or an empty map when the
 * seed has none. table2_observed rows are table2's rows.
 */
std::map<std::string, std::string>
expectedFromGoldens(const Goldens &g, const WorkloadSpec &spec,
                    uint64_t seed)
{
    const std::string source =
        spec.name == "table2_observed" ? "table2" : spec.name;
    std::map<std::string, std::string> out;
    const auto w = g.find(source);
    if (w == g.end())
        return out;
    const auto s = w->second.find(seed);
    if (s == w->second.end())
        return out;
    for (const CellSpec &c : spec.cells) {
        const auto it = s->second.find(c.name);
        if (it == s->second.end())
            return {}; // incomplete: not a golden seed for this cell list
        out[c.name] = it->second;
    }
    for (const std::string &mix : spec.mixes) {
        const auto it = s->second.find(crossoverKey(mix));
        if (it == s->second.end())
            return {};
        out[crossoverKey(mix)] = it->second;
    }
    return out;
}

/** Counts checked items and keeps the first few mismatch messages. */
struct Checker
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> messages;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (messages.size() < 8)
            messages.push_back(what);
    }
};

/** Everything kept from one measured pass. */
struct Pass
{
    std::vector<CellOut> outs;
    double wall = 0; ///< seconds, arena construction excluded
    double cpu = 0;  ///< process CPU seconds, arena construction excluded
    double span = 0; ///< seconds, whole pass
    ProbeTime probe; ///< fastest hostProbe after the pass (untraced)
    uint64_t instructions = 0;
    bool traced = false;
    Spans spans; ///< traced passes: one span per cell
};

Pass
measurePass(const WorkloadSpec &spec, bool traced)
{
    Pass p;
    p.traced = traced;
    const double c0 = cpuSeconds();
    const double t0 = nowSeconds();
    p.outs = runPass(spec, /*reference=*/false, traced ? &p.spans : nullptr);
    const double t1 = nowSeconds();
    const double c1 = cpuSeconds();
    if (traced)
        p.spans.push_back({"pass", spec.name, t0, t1});
    double setup = 0, setupCpu = 0;
    for (const CellOut &o : p.outs) {
        p.instructions += o.instructions;
        setup += o.setupSeconds;
        setupCpu += o.setupCpu;
    }
    p.wall = t1 - t0 - setup;
    p.cpu = c1 - c0 - setupCpu;
    p.span = t1 - t0;
    return p;
}

/** Wall and CPU seconds of one pass on a quiet host. */
struct QuietPass
{
    double wall = 0;
    double cpu = 0;
};

/**
 * Estimate a pass on a quiet host. Other tenants of the host slow
 * cells down in bursts of a second or two, shorter than a pass, so
 * few passes are quiet throughout; but each cell reruns in every pass
 * and meets a quiet moment in some of them. The busy time of a quiet
 * pass is therefore the sum over cells of each cell's fastest run.
 * The runner's parallel efficiency (busy time over jobs x pass wall)
 * and the process CPU per busy second scale with the host alike in
 * numerator and denominator, so they are taken as medians over the
 * passes; runner idle time and extra threads or spinning still show.
 */
QuietPass
quietPass(const WorkloadSpec &spec, const std::vector<Pass> &passes)
{
    double busy = 0;
    for (size_t c = 0; c < spec.cells.size(); ++c) {
        double fastest = passes.front().outs[c].seconds;
        for (const Pass &p : passes)
            fastest = std::min(fastest, p.outs[c].seconds);
        busy += fastest;
    }
    std::vector<double> efficiency, cpuPerBusy;
    for (const Pass &p : passes) {
        double passBusy = 0;
        for (const CellOut &o : p.outs)
            passBusy += o.seconds;
        efficiency.push_back(passBusy / (spec.jobs * p.wall));
        cpuPerBusy.push_back(p.cpu / passBusy);
    }
    return {busy / (spec.jobs * median(efficiency)),
            busy * median(cpuPerBusy)};
}

/**
 * Seconds of the host probe, wall and CPU alike, on a quiet host of
 * the kind the gauge runs on (4-core KVM guest on a Xeon, GCC 12: about
 * 12.5 ms at its quietest). It only
 * sets the scale of the metrics: the gauge reports what the run would
 * have measured at this probe time.
 */
constexpr double kProbeReferenceSeconds = 0.012;

/** Probes after each untraced pass; the run keeps the fastest. */
constexpr int kProbesPerPass = 3;

/**
 * How much slower than the reference the host ran: the run's fastest
 * probe over kProbeReferenceSeconds, for wall and for CPU time. Other
 * tenants of the host slow everything for minutes at a time, by up to
 * 2x, which no choice among the run's own passes can undo; the probe,
 * interleaved with the passes on as many threads as the workload's
 * jobs, slows down with them, and no change to the simulator moves
 * it. The wall slowdown scales the wall-time metrics and the CPU
 * slowdown the CPU-time one.
 */
ProbeTime
hostSlowdown(const std::vector<Pass> &passes)
{
    ProbeTime fastest = passes.front().probe;
    for (const Pass &p : passes) {
        fastest.wall = std::min(fastest.wall, p.probe.wall);
        fastest.cpu = std::min(fastest.cpu, p.probe.cpu);
    }
    return {fastest.wall / kProbeReferenceSeconds,
            fastest.cpu / kProbeReferenceSeconds};
}

/**
 * Workers for the untimed check passes. Quadcore cells are
 * single-threaded, so they may use every core; arena cells already
 * run three threads each.
 */
unsigned
checkJobs(const WorkloadSpec &spec)
{
    return spec.mixes.empty() ? std::min(4u, hostCores()) : spec.jobs;
}

/** Check every pass against `expected` (cell name -> digest/verdict). */
void
checkPasses(const WorkloadSpec &spec, const std::vector<Pass> &passes,
            const std::map<std::string, std::string> &expected,
            Checker &checker)
{
    for (size_t p = 0; p < passes.size(); ++p) {
        const std::vector<CellOut> &outs = passes[p].outs;
        for (size_t i = 0; i < spec.cells.size(); ++i) {
            const std::string &name = spec.cells[i].name;
            const auto want = expected.find(name);
            if (!outs[i].error.empty()) {
                checker.check(false, name + " threw: " + outs[i].error);
                continue;
            }
            const std::string got = digest(outs[i].row);
            checker.check(want != expected.end() && want->second == got,
                          "pass " + std::to_string(p) + " " + name +
                              ": digest " + got + " expected " +
                              (want == expected.end() ? "<none>"
                                                      : want->second));
        }
        const std::vector<std::string> verdicts = crossovers(spec, outs);
        for (size_t m = 0; m < spec.mixes.size(); ++m) {
            const std::string key = crossoverKey(spec.mixes[m]);
            const auto want = expected.find(key);
            checker.check(want != expected.end() &&
                              want->second == verdicts[m],
                          "pass " + std::to_string(p) + " " + key + ": " +
                              verdicts[m]);
        }
    }
}

/**
 * Expected values for a seed without goldens: a reference pass on
 * the check path, or — for arena cells, which have one path — the
 * first measured pass plus the default seed's crossover verdicts
 * (the crossover is a property of the mix, not of the seed).
 */
std::map<std::string, std::string>
expectedFromReference(const WorkloadSpec &spec, const Goldens &goldens,
                      const Pass &first, Checker &checker)
{
    std::map<std::string, std::string> out;
    const bool arena = !spec.mixes.empty();
    const std::vector<CellOut> ref =
        arena ? first.outs
              : runPass(spec, /*reference=*/true, nullptr, checkJobs(spec));
    for (size_t i = 0; i < spec.cells.size(); ++i) {
        if (!ref[i].error.empty()) {
            checker.check(false, spec.cells[i].name +
                                     " reference threw: " + ref[i].error);
            continue;
        }
        out[spec.cells[i].name] = digest(ref[i].row);
    }
    const auto defaults = expectedFromGoldens(goldens, spec, kDefaultSeed);
    for (const std::string &mix : spec.mixes) {
        const auto it = defaults.find(crossoverKey(mix));
        if (it != defaults.end())
            out[crossoverKey(mix)] = it->second;
    }
    return out;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

void
writeSpans(const std::string &path, const Spans &spans)
{
    if (path.empty())
        return;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "xmig_gauge: cannot write spans to %s\n",
                     path.c_str());
        return;
    }
    double origin = spans.empty() ? 0 : spans.front().start;
    for (const Span &s : spans)
        origin = std::min(origin, s.start);
    for (const Span &s : spans)
        std::fprintf(f,
                     "{\"layer\":%s,\"cell\":%s,\"start_s\":%.9f,"
                     "\"dur_s\":%.9f}\n",
                     jsonString(s.layer).c_str(), jsonString(s.cell).c_str(),
                     s.start - origin, s.end - s.start);
    std::fclose(f);
}

/** Set-up only: what a run does before its first simulated pass. */
int
setupOnly(const WorkloadSpec &spec, double ready)
{
    // figure1's set-up includes each arena's construction (the solo
    // probes and the shared-L3 carve-up) for one pass of cells.
    double arenaSetup = 0;
    for (const CellSpec &c : spec.cells) {
        if (c.kind != CellKind::Arena)
            continue;
        const double t0 = nowSeconds();
        auto arena = std::make_unique<xmig::TenantArena>(c.arena);
        arenaSetup += nowSeconds() - t0;
    }
    std::printf("{\"ready\":%.9f,\"arena_setup_s\":%.9f}\n", ready,
                arenaSetup);
    return 0;
}

int
writeGoldens(const WorkloadSpec &spec, uint64_t seed)
{
    const std::vector<CellOut> outs = runPass(spec, /*reference=*/false);
    int status = 0;
    for (size_t i = 0; i < spec.cells.size(); ++i) {
        if (!outs[i].error.empty()) {
            std::fprintf(stderr, "xmig_gauge: %s threw: %s\n",
                         spec.cells[i].name.c_str(), outs[i].error.c_str());
            status = 1;
        }
        std::printf("%s %llu %s %s\n", spec.name.c_str(),
                    static_cast<unsigned long long>(seed),
                    spec.cells[i].name.c_str(), digest(outs[i].row).c_str());
    }
    const std::vector<std::string> verdicts = crossovers(spec, outs);
    for (size_t m = 0; m < spec.mixes.size(); ++m)
        std::printf("%s %llu %s %s\n", spec.name.c_str(),
                    static_cast<unsigned long long>(seed),
                    crossoverKey(spec.mixes[m]).c_str(), verdicts[m].c_str());
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::string refusal = buildRefusal();
    if (!refusal.empty()) {
        std::fprintf(stderr, "xmig_gauge: refusing to time a %s\n",
                     refusal.c_str());
        return 3;
    }
    const WorkloadSpec spec =
        makeWorkloadSpec(args.workload, args.seed, args.workdir);
    if (args.writeGoldens)
        return writeGoldens(spec, args.seed);
    const Goldens goldens = loadGoldens(args.goldens);
    const auto golden = expectedFromGoldens(goldens, spec, args.seed);
    const double ready = nowSeconds();
    if (args.setupOnly)
        return setupOnly(spec, ready);

    // Measured phase. A traced run alternates passes with and without
    // spans so the tracing overhead is measured on the same host load.
    std::vector<Pass> passes;
    const double phaseStart = nowSeconds();
    while (passes.size() < (args.trace ? 2u : 1u) ||
           nowSeconds() - phaseStart < args.seconds) {
        passes.push_back(
            measurePass(spec, args.trace && passes.size() % 2 == 1));
        if (args.trace)
            continue;
        ProbeTime &probe = passes.back().probe;
        probe = hostProbe(spec.jobs);
        for (int i = 1; i < kProbesPerPass; ++i) {
            const ProbeTime t = hostProbe(spec.jobs);
            probe.wall = std::min(probe.wall, t.wall);
            probe.cpu = std::min(probe.cpu, t.cpu);
        }
    }
    const double peakRss = peakRssMiB();

    Checker checker;
    const bool goldenSeed = !golden.empty();
    checkPasses(spec, passes,
                goldenSeed ? golden
                           : expectedFromReference(spec, goldens,
                                                   passes.front(), checker),
                checker);

    // paper_ratio_err is taken at the default seed whatever --seed is:
    // at these budgets rows with few L2 misses (175.vpr, health) swing
    // by large factors between seeds, which would drown a fidelity
    // change. The default-seed pass is checked against its goldens.
    const double seedRatioErr = paperRatioError(spec, passes.front().outs);
    double ratioErr = seedRatioErr;
    if (!args.trace && args.seed != kDefaultSeed) {
        const WorkloadSpec base =
            makeWorkloadSpec(args.workload, kDefaultSeed, args.workdir);
        Pass fidelity;
        fidelity.outs =
            runPass(base, /*reference=*/false, nullptr, checkJobs(base));
        checkPasses(base, {fidelity},
                    expectedFromGoldens(goldens, base, kDefaultSeed),
                    checker);
        ratioErr = paperRatioError(base, fidelity.outs);
    }

    Metrics metrics;
    Spans spans;
    ProbeTime slowdown{1, 1};
    std::string measured;
    if (!args.trace) {
        const QuietPass quiet = quietPass(spec, passes);
        const double instr =
            static_cast<double>(passes.front().instructions);
        slowdown = hostSlowdown(passes);
        metrics.push_back({"sim_mips",
                           instr / quiet.wall / 1e6 * slowdown.wall,
                           "Minstr/s"});
        metrics.push_back({"cpu_ns_per_instr",
                           quiet.cpu / instr * 1e9 / slowdown.cpu, "ns"});
        measured = ",\"measured\":{\"sim_mips\":" +
                   jsonNumber(instr / quiet.wall / 1e6) +
                   ",\"cpu_ns_per_instr\":" +
                   jsonNumber(quiet.cpu / instr * 1e9) + "}";
        metrics.push_back({"peak_rss_mb", peakRss, "MiB"});
        metrics.push_back({"paper_ratio_err", ratioErr, "log2"});
    } else {
        std::vector<double> traced, untraced, idle, slowest;
        for (const Pass &p : passes) {
            (p.traced ? traced : untraced).push_back(p.span);
            if (!p.traced)
                continue;
            double busy = 0, longest = 0;
            for (const Span &sp : p.spans) {
                spans.push_back(sp);
                if (sp.layer != "cell")
                    continue;
                busy += sp.end - sp.start;
                longest = std::max(longest, sp.end - sp.start);
            }
            idle.push_back(1.0 - busy / (spec.jobs * p.span));
            slowest.push_back(longest / p.span);
        }
        metrics.push_back({"sim.runner_idle_frac", median(idle), "frac"});
        metrics.push_back(
            {"sim.slowest_cell_share", median(slowest), "frac"});
        metrics.push_back({"gauge.trace_overhead_frac",
                           median(traced) / median(untraced) - 1.0,
                           "frac"});
        Checks checks;
        runLayers(args.seed, args.workdir, metrics, spans, checks);
        for (const auto &[ok, what] : checks)
            checker.check(ok, what);
        writeSpans(args.spansOut, spans);
    }

    const BuildInfo b = buildInfo();
    std::string json = "{\"workload\":" + jsonString(spec.name) +
                       ",\"seed\":" + std::to_string(args.seed) +
                       ",\"check\":" +
                       jsonString(goldenSeed ? "golden" : "reference") +
                       ",\"passes\":" + std::to_string(passes.size()) +
                       ",\"seed_paper_ratio_err\":" +
                       jsonNumber(seedRatioErr) +
                       ",\"ready\":" + jsonNumber(ready) +
                       ",\"host_slowdown\":{\"wall\":" +
                       jsonNumber(slowdown.wall) + ",\"cpu\":" +
                       jsonNumber(slowdown.cpu) + "}" +
                       measured +
                       ",\"attempted\":" + std::to_string(checker.attempted) +
                       ",\"failed\":" + std::to_string(checker.failed) +
                       ",\"failures\":[";
    for (size_t i = 0; i < checker.messages.size(); ++i)
        json += (i ? "," : "") + jsonString(checker.messages[i]);
    json += "],\"meta\":{\"host_cores\":" + std::to_string(hostCores()) +
            ",\"jobs\":" + std::to_string(spec.jobs) +
            ",\"compiler\":" + jsonString(b.compiler) +
            ",\"build_type\":" + jsonString(b.buildType) +
            ",\"XMIG_AUDIT_LEVEL\":" + jsonString(b.auditLevel) +
            ",\"XMIG_FAULT\":" + jsonString(b.fault) +
            ",\"XMIG_JOURNAL\":" + jsonString(b.journal) +
            ",\"XMIG_TRACE\":" + jsonString(b.trace) +
            "},\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i)
        json += (i ? "," : "") + jsonString(metrics[i].name) +
                ":{\"value\":" + jsonNumber(metrics[i].value) +
                ",\"unit\":" + jsonString(metrics[i].unit) + "}";
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
