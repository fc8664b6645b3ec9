/**
 * @file
 * xmig-gauge per-layer replays (traced runs only).
 *
 * For each benchmark class (art, mcf, gzip, em3d) the stream of one
 * table2 cell is emitted, recorded, and replayed through each layer's
 * public batch entry point in isolation, with a span around every
 * timed call. Each timed call is repeated and its median kept.
 *
 *   workloads  Workload::run into a counting sink
 *   mem        TraceWriter / TraceReader round trip of the stream
 *   cache      L1Filter::filterBatch
 *   multicore  MigrationMachine::accessBatch, 1-core and 4-core
 *   core       MigrationController::onRequestBatch on the L1-miss
 *              requests (L2-miss bits from a 1-core L2 model), and
 *              AffinityEngine::referenceBatch on the sampled lines
 *   sim        runQuadcore on the same budget
 *   obs        runQuadcore with a RunObservatory; export timed on a
 *              hand-fed machine pair
 *
 * The arena layer runs one Figure 1 mix (all three arms).
 * Self times are derived by subtraction: the 4-core machine minus
 * the L1 filter and the controller, runQuadcore minus emission and
 * both machines.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/l1_filter.hpp"
#include "core/engine.hpp"
#include "core/migration_controller.hpp"
#include "core/soa_oe_store.hpp"
#include "gauge.hpp"
#include "mem/trace_io.hpp"
#include "multicore/arena.hpp"
#include "multicore/machine.hpp"
#include "sim/observe.hpp"
#include "util/hashing.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

namespace gauge {

namespace {

/** Same stream as a table2 cell: 1M warm-up + 1M instructions. */
constexpr uint64_t kStreamInstr = 2'000'000;
constexpr int kReps = 3;
constexpr size_t kChunk = MigrationMachine::kBatchRefs;

struct BenchClass
{
    const char *tag;
    const char *bench;
};

const BenchClass kClasses[] = {
    {"art", "179.art"}, {"mcf", "181.mcf"}, {"gzip", "164.gzip"},
    {"em3d", "em3d"}};

class CountingSink : public RefSink
{
  public:
    void
    access(const MemRef &ref) override
    {
        ++refs;
        instructions += ref.isIfetch();
    }
    uint64_t refs = 0;
    uint64_t instructions = 0;
};

class RecordingSink : public RefSink
{
  public:
    void access(const MemRef &ref) override { refs.push_back(ref); }
    std::vector<MemRef> refs;
};

/**
 * Run `body` kReps times; it builds its untimed state and returns the
 * steady-clock bounds of its timed call. Records a span per call and
 * returns the median duration.
 */
template <typename Body>
double
timedMedian(Spans &spans, const std::string &layer, const std::string &cls,
            Body body)
{
    std::vector<double> durations;
    for (int r = 0; r < kReps; ++r) {
        const std::pair<double, double> t = body();
        spans.push_back({layer, cls, t.first, t.second});
        durations.push_back(t.second - t.first);
    }
    return median(durations);
}

template <typename Feed>
void
inChunks(const std::vector<MemRef> &refs, Feed feed)
{
    for (size_t i = 0; i < refs.size(); i += kChunk)
        feed(refs.data() + i, std::min(kChunk, refs.size() - i));
}

L1FilterConfig
l1Config()
{
    // The section 4.2 L1 level, as MigrationMachine builds it.
    const MachineConfig mc;
    L1FilterConfig c;
    c.il1Bytes = mc.il1Bytes;
    c.dl1Bytes = mc.dl1Bytes;
    c.lineBytes = mc.lineBytes;
    c.fullyAssociative = false;
    c.ways = mc.l1Ways;
    c.unifiedReadWrite = false;
    return c;
}

uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<uint64_t>(n);
}

uint64_t
fileLines(const std::string &path)
{
    std::ifstream in(path);
    uint64_t n = 0;
    std::string line;
    while (std::getline(in, line))
        n += !line.empty();
    return n;
}

QuadcoreParams
cellParams(uint64_t seed)
{
    QuadcoreParams p;
    p.warmupInstructions = kStreamInstr / 2;
    p.instructionsPerBenchmark = kStreamInstr / 2;
    p.seed = seed;
    return p;
}

void
classLayers(const BenchClass &cls, uint64_t seed, const std::string &workdir,
            Metrics &m, Spans &spans, Checks &checks)
{
    const std::string tag = cls.tag;
    const auto put = [&](const std::string &name, double v,
                         const char *unit) {
        m.push_back({name + "." + tag, v, unit});
    };

    // workloads: emission alone.
    CountingSink counted;
    const double tEmit = timedMedian(spans, "workloads.emit", tag, [&] {
        auto w = makeWorkload(cls.bench);
        counted = CountingSink();
        const double t0 = nowSeconds();
        w->run(counted, kStreamInstr, seed);
        return std::make_pair(t0, nowSeconds());
    });
    const double refs = static_cast<double>(counted.refs);
    const double instr = static_cast<double>(counted.instructions);
    put("workloads.emit_ns_per_ref", tEmit / refs * 1e9, "ns");
    put("workloads.refs_per_instr", refs / instr, "ratio");

    RecordingSink rec;
    rec.refs.reserve(counted.refs);
    makeWorkload(cls.bench)->run(rec, kStreamInstr, seed);
    const std::vector<MemRef> &stream = rec.refs;

    // mem: trace file round trip.
    const std::string tracePath = workdir + "/layer-" + tag + ".trace";
    const double tWrite = timedMedian(spans, "mem.trace_write", tag, [&] {
        TraceWriter writer(tracePath);
        const double t0 = nowSeconds();
        for (const MemRef &r : stream)
            writer.access(r);
        writer.close();
        return std::make_pair(t0, nowSeconds());
    });
    const double traceBytes = static_cast<double>(fileBytes(tracePath));
    CountingSink replayed;
    const double tRead = timedMedian(spans, "mem.trace_read", tag, [&] {
        TraceReader reader(tracePath);
        replayed = CountingSink();
        const double t0 = nowSeconds();
        reader.replay(replayed);
        return std::make_pair(t0, nowSeconds());
    });
    std::filesystem::remove(tracePath);
    put("mem.trace_write_ns_per_ref", tWrite / refs * 1e9, "ns");
    put("mem.trace_read_ns_per_ref", tRead / refs * 1e9, "ns");
    put("mem.trace_bytes_per_ref", traceBytes / refs, "B");
    checks.push_back({replayed.refs == counted.refs,
                      tag + ": trace round trip returned " +
                          std::to_string(replayed.refs) + " of " +
                          std::to_string(counted.refs) + " refs"});

    // cache: the L1 level alone; keep its events for the controller.
    std::vector<LineEvent> events;
    const double tL1 = timedMedian(spans, "cache.l1_filter", tag, [&] {
        NullLineSink sink;
        L1Filter l1(l1Config(), sink);
        LineEvent ev[kChunk];
        uint32_t idx[kChunk], evInstr[kChunk], ifetch = 0;
        std::vector<LineEvent> out;
        out.reserve(stream.size() / 4);
        const double t0 = nowSeconds();
        inChunks(stream, [&](const MemRef *refsIn, size_t n) {
            const size_t e =
                l1.filterBatch(refsIn, n, ev, idx, evInstr, &ifetch);
            out.insert(out.end(), ev, ev + e);
        });
        const double t1 = nowSeconds();
        events = std::move(out);
        return std::make_pair(t0, t1);
    });
    const double nEvents = static_cast<double>(events.size());
    put("cache.l1_filter_ns_per_ref", tL1 / refs * 1e9, "ns");
    put("cache.l1_events_per_ref", nEvents / refs, "ratio");

    // multicore: both machines on the whole stream.
    const double tM1 = timedMedian(spans, "multicore.machine1", tag, [&] {
        MachineConfig c;
        c.numCores = 1;
        MigrationMachine machine(c);
        const double t0 = nowSeconds();
        inChunks(stream, [&](const MemRef *r, size_t n) {
            machine.accessBatch(r, n);
        });
        return std::make_pair(t0, nowSeconds());
    });
    MachineStats m4{};
    const double tM4 = timedMedian(spans, "multicore.machine4", tag, [&] {
        MigrationMachine machine{MachineConfig{}};
        const double t0 = nowSeconds();
        inChunks(stream, [&](const MemRef *r, size_t n) {
            machine.accessBatch(r, n);
        });
        const double t1 = nowSeconds();
        m4 = machine.stats();
        return std::make_pair(t0, t1);
    });

    // core: controller on the L1-miss requests, engine on the sampled
    // lines. L2-miss bits come from a 1-core L2 of the section 4.2
    // geometry (the machine probes the active core's L2 instead).
    std::vector<MigrationController::Request> requests;
    {
        CacheConfig l2c;
        l2c.capacityBytes = MachineConfig{}.l2Bytes;
        l2c.ways = MachineConfig{}.l2Ways;
        l2c.skewed = true;
        l2c.seed = 11;
        Cache l2(l2c);
        for (const LineEvent &e : events) {
            const bool miss =
                !l2.access(e.line, e.type == RefType::Store).hit;
            if (e.l1Miss)
                requests.push_back({e.line, miss, e.pointer});
        }
    }
    const MigrationControllerConfig ctlCfg = MachineConfig::defaultController();
    double sampledFrac = 0, oeHit = 0, transitions = 0;
    const double tCtl = timedMedian(spans, "core.controller", tag, [&] {
        MigrationController ctl(ctlCfg);
        const double t0 = nowSeconds();
        for (size_t i = 0; i < requests.size(); i += kChunk)
            ctl.onRequestBatch(requests.data() + i,
                               std::min(kChunk, requests.size() - i));
        const double t1 = nowSeconds();
        const double req = static_cast<double>(ctl.stats().requests);
        sampledFrac =
            static_cast<double>(ctl.rootEngine().references()) / req;
        const OeStoreStats &st = ctl.store().stats();
        oeHit = st.lookups ? static_cast<double>(st.hits()) /
                                 static_cast<double>(st.lookups)
                           : 0;
        transitions =
            static_cast<double>(ctl.splitterTransitions()) / req * 1000;
        return std::make_pair(t0, t1);
    });
    std::vector<uint64_t> sampled;
    for (const auto &r : requests)
        if (sampledLine(r.line, ctlCfg.samplingCutoff))
            sampled.push_back(r.line);
    const double tEngine = timedMedian(spans, "core.engine", tag, [&] {
        SoaAffinityStore store(ctlCfg.affinityCache);
        EngineConfig ec;
        ec.affinityBits = ctlCfg.affinityBits;
        ec.windowSize = ctlCfg.windowX;
        AffinityEngine engine(ec, store);
        RefOutcome out[kChunk];
        const double t0 = nowSeconds();
        for (size_t i = 0; i < sampled.size(); i += kChunk)
            engine.referenceBatch(sampled.data() + i,
                                  std::min(kChunk, sampled.size() - i), out);
        return std::make_pair(t0, nowSeconds());
    });
    const double nReq = static_cast<double>(requests.size());
    put("core.controller_ns_per_request", tCtl / nReq * 1e9, "ns");
    put("core.engine_ns_per_ref",
        tEngine / static_cast<double>(sampled.size()) * 1e9, "ns");
    put("core.sampled_frac", sampledFrac, "frac");
    put("core.oe_hit_ratio", oeHit, "frac");
    put("core.splitter_transitions_per_krequest", transitions, "1/krequest");

    put("multicore.machine1_ns_per_ref", tM1 / refs * 1e9, "ns");
    put("multicore.machine4_ns_per_ref", tM4 / refs * 1e9, "ns");
    put("multicore.machine4_self_ns_per_event",
        (tM4 - tL1 - tCtl) / nEvents * 1e9, "ns");
    put("multicore.l2_miss_per_event",
        static_cast<double>(m4.l2Misses) / nEvents, "ratio");
    put("multicore.l2_forwards_per_kinstr",
        static_cast<double>(m4.l2ToL2Forwards) / instr * 1000, "1/kinstr");
    put("multicore.migrations_per_kinstr",
        static_cast<double>(m4.migrations) / instr * 1000, "1/kinstr");
    put("sim.baseline_share", tM1 / (tM1 + tM4), "frac");

    // sim: the public cell call on the same stream.
    const QuadcoreParams params = cellParams(seed);
    QuadcoreRow plain, observed;
    const double tQuad = timedMedian(spans, "sim.quadcore", tag, [&] {
        const double t0 = nowSeconds();
        plain = runQuadcore(cls.bench, params);
        return std::make_pair(t0, nowSeconds());
    });
    put("sim.quadcore_ns_per_instr", tQuad / instr * 1e9, "ns");
    put("sim.feed_self_ns_per_ref", (tQuad - tEmit - tM1 - tM4) / refs * 1e9,
        "ns");

    // obs: the same cell observed (journal and metrics; sampling
    // cannot ride a warm-up cell, see gauge/README.md).
    ObserveOptions o;
    const std::string base = workdir + "/layer-" + tag;
    o.metricsOut = base + ".metrics.jsonl";
    o.journalOut = base + ".journal.jsonl";
    const double tObserved = timedMedian(spans, "obs.observed_cell", tag, [&] {
        RunObservatory observatory(o);
        const double t0 = nowSeconds();
        observed = runQuadcore(cls.bench, params, &observatory);
        return std::make_pair(t0, nowSeconds());
    });
    checks.push_back({observed.l2Misses4x == plain.l2Misses4x &&
                          observed.l2MissesBaseline ==
                              plain.l2MissesBaseline &&
                          observed.migrations == plain.migrations &&
                          observed.l1Misses == plain.l1Misses,
                      tag + ": observed row differs from the unobserved row"});
    // Export alone, on a machine pair fed by hand through the
    // observatory (runQuadcore exports inside the call). Without a
    // warm-up reset this pair can also carry the time-series sampler.
    o.samplesOut = base + ".samples.csv";
    double tExport = 0;
    {
        MachineConfig bc;
        bc.numCores = 1;
        MigrationMachine baseline(bc);
        MigrationMachine migration{MachineConfig{}};
        RunObservatory observatory(o);
        observatory.attachMachine(baseline, "baseline", false);
        observatory.attachMachine(migration, "machine", true);
        for (const MemRef &r : stream) {
            baseline.access(r);
            migration.access(r);
            observatory.onReference();
        }
        const double t0 = nowSeconds();
        observatory.finish();
        tExport = nowSeconds() - t0;
        spans.push_back({"obs.export", tag, t0, t0 + tExport});
    }
    const double artifacts = static_cast<double>(
        fileBytes(o.metricsOut) + fileBytes(o.samplesOut) +
        fileBytes(o.journalOut));
    put("obs.observed_overhead_frac", tObserved / tQuad - 1.0, "frac");
    put("obs.journal_events_per_kinstr",
        static_cast<double>(fileLines(o.journalOut)) / instr * 1000,
        "1/kinstr");
    put("obs.artifact_bytes", artifacts, "B");
    put("obs.export_s", tExport, "s");
    for (const std::string &p : {o.metricsOut, o.samplesOut, o.journalOut})
        std::filesystem::remove(p);
}

/** The arena layer: one Figure 1 mix, all three arms. */
void
arenaLayer(uint64_t seed, Metrics &m, Spans &spans)
{
    const std::vector<std::string> mix = {"179.art", "181.mcf"};
    double probe = 0, run = 0;
    uint64_t refs = 0, turns = 0, instr = 0, l3Acc = 0, l3Miss = 0;
    for (size_t arm = 0; arm < 3; ++arm) {
        const double t0 = nowSeconds();
        TenantArena arena(figure1Arena(mix, arm, seed));
        const double t1 = nowSeconds();
        const ArenaResult r = arena.run();
        const double t2 = nowSeconds();
        spans.push_back({"multicore.arena_probe", "art+mcf", t0, t1});
        spans.push_back({"multicore.arena_run", "art+mcf", t1, t2});
        probe += t1 - t0;
        run += t2 - t1;
        for (const TenantResult &t : r.tenants) {
            refs += t.refs;
            turns += t.turns;
            instr += t.instructions;
        }
        l3Acc += r.sharedL3Accesses;
        l3Miss += r.sharedL3Misses;
    }
    m.push_back({"multicore.arena_probe_s", probe, "s"});
    m.push_back({"multicore.arena_ns_per_ref",
                 run / static_cast<double>(refs) * 1e9, "ns"});
    m.push_back({"multicore.arena_turns_per_minstr",
                 static_cast<double>(turns) / static_cast<double>(instr) * 1e6,
                 "1/Minstr"});
    m.push_back({"multicore.arena_l3_miss_ratio",
                 static_cast<double>(l3Miss) / static_cast<double>(l3Acc),
                 "frac"});
}

} // namespace

void
runLayers(uint64_t seed, const std::string &workdir, Metrics &metrics,
          Spans &spans, Checks &checks)
{
    for (const BenchClass &cls : kClasses)
        classLayers(cls, seed, workdir, metrics, spans, checks);
    arenaLayer(seed, metrics, spans);
}

} // namespace gauge
