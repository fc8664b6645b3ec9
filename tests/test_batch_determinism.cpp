/**
 * @file
 * xmig-bolt batching byte-identity: the batched feed mode must be
 * indistinguishable from the per-reference path in
 * every observable — Table-2 rows, machine counters, journal JSONL
 * bytes, time-series CSV bytes, simulated-time trace events, sweep
 * text at any --jobs — with and without an armed fault plan; and
 * checkpoints must round-trip mid-stream. These are the acceptance
 * properties of docs/parallelism.md, "batching".
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/oe_store.hpp"
#include "core/soa_oe_store.hpp"
#include "fault/fault_injector.hpp"
#include "mem/trace.hpp"
#include "multicore/machine.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "sim/observe.hpp"
#include "sim/quadcore.hpp"
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

QuadcoreRow
runWith(const std::string &bench, FeedMode feed,
        uint64_t warmup = 0, const std::string &plan = "")
{
    QuadcoreParams p;
    p.instructionsPerBenchmark = 120'000;
    p.warmupInstructions = warmup;
    p.feed = feed;
    p.machine.faultPlan = plan;
    return runQuadcore(bench, p);
}

/** The lines of `text` that contain `needle`. */
std::string
linesWith(const std::string &text, const std::string &needle)
{
    std::istringstream in(text);
    std::string line;
    std::string out;
    while (std::getline(in, line)) {
        if (line.find(needle) != std::string::npos)
            out += line + "\n";
    }
    return out;
}

/** Every MachineStats field, the active core and the injector totals. */
std::string
machineText(const MigrationMachine &m)
{
    const MachineStats &s = m.stats();
    std::ostringstream out;
    out << "instr=" << s.instructions << " refs=" << s.refs
        << " l1m=" << s.l1Misses << " l2a=" << s.l2Accesses
        << " l2m=" << s.l2Misses << " fwd=" << s.l2ToL2Forwards
        << " wb=" << s.l3Writebacks << " mig=" << s.migrations
        << " bus=" << s.updateBusStores << " pff=" << s.prefetchFills
        << " pfu=" << s.prefetchUseful << " l3a=" << s.l3Accesses
        << " l3m=" << s.l3Misses << " memwb=" << s.memoryWritebacks
        << " off=" << s.coreOffEvents << " on=" << s.coreOnEvents
        << " lost=" << s.dirtyLinesLost << " drop=" << s.busDrops
        << " scrub=" << s.coherenceRepairs
        << " active=" << m.activeCore();
    if (const FaultInjector *inj = m.injector()) {
        out << " ticks=" << inj->stats().ticks;
        for (size_t i = 0; i < static_cast<size_t>(FaultSite::kCount);
             ++i) {
            out << ' ' << faultSiteName(static_cast<FaultSite>(i)) << '='
                << inj->stats().injected[i];
        }
    }
    return out.str();
}

void
expectRowsEqual(const QuadcoreRow &a, const QuadcoreRow &b,
                const std::string &what)
{
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << what;
    EXPECT_EQ(a.l2MissesBaseline, b.l2MissesBaseline) << what;
    EXPECT_EQ(a.l2Misses4x, b.l2Misses4x) << what;
    EXPECT_EQ(a.migrations, b.migrations) << what;
    EXPECT_EQ(a.l2ToL2Forwards, b.l2ToL2Forwards) << what;
}

} // namespace

TEST(BatchDeterminism, EveryTable1WorkloadAgreesAcrossFeedModes)
{
    for (const std::string &name : allWorkloadNames()) {
        const QuadcoreRow per = runWith(name, FeedMode::PerRef);
        expectRowsEqual(per, runWith(name, FeedMode::Batched),
                        name + " batched");
    }
}

TEST(BatchDeterminism, AdversarialWorkloadsAgreeAcrossFeedModes)
{
    for (const std::string &name : adversarialWorkloadNames()) {
        const QuadcoreRow per = runWith(name, FeedMode::PerRef);
        expectRowsEqual(per, runWith(name, FeedMode::Batched),
                        name + " batched");
    }
}

TEST(BatchDeterminism, WarmupResetLandsMidChunkExactly)
{
    // 37'777 instructions is not a multiple of K = 64 references, so
    // the counter reset lands inside a chunk of the batched feed.
    const QuadcoreRow per =
        runWith("179.art", FeedMode::PerRef, 37'777);
    expectRowsEqual(per, runWith("179.art", FeedMode::Batched, 37'777),
                    "warmup batched");
}

TEST(BatchDeterminism, ArmedFaultPlanAgreesAcrossFeedModes)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    // The fault-armed machine ticks its injector once per reference
    // inside replayBatch(), so both feed modes must see the identical
    // fault timeline: the same row, journal bytes, injector ticks and
    // per-site injection counts.
    const std::string plan =
        "seed=5;rate=0.001:bus_drop;at=60000:core_off=1;"
        "at=90000:core_on=1";
    std::string journal[2];
    std::string faults[2];
    QuadcoreRow rows[2];
    const FeedMode modes[2] = {FeedMode::PerRef, FeedMode::Batched};
    for (int m = 0; m < 2; ++m) {
        const std::string base = testing::TempDir() +
                                 "xmig_fault_feed_" + std::to_string(m);
        ObserveOptions oo;
        oo.metricsOut = base + ".metrics.jsonl";
        oo.journalOut = base + ".journal.jsonl";
        RunObservatory observatory(oo);
        QuadcoreParams p;
        p.instructionsPerBenchmark = 120'000;
        p.feed = modes[m];
        p.machine.faultPlan = plan;
        rows[m] = runQuadcore("179.art", p, &observatory);
        journal[m] = slurp(oo.journalOut);
        faults[m] = linesWith(slurp(oo.metricsOut), "\"machine.faults.");
    }
    ASSERT_NE(faults[0].find("machine.faults.ticks"), std::string::npos);
    EXPECT_EQ(faults[0], faults[1]) << "batched injector stats diverged";
    if (obs::kJournalCompiled) {
        ASSERT_NE(journal[0].find("core_off"), std::string::npos);
    }
    EXPECT_EQ(journal[0], journal[1]) << "batched journal diverged";
    expectRowsEqual(rows[0], rows[1], "fault batched");
    expectRowsEqual(rows[0],
                    runWith("179.art", FeedMode::Batched, 0, plan),
                    "fault observed vs unobserved");
}

TEST(BatchDeterminism, FaultArmedAccessBatchMatchesAccessInOddChunks)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    // Core churn scheduled off chunk edges and drawn once per tick,
    // plus faults drawn inside the post-L1 events: any drift in when
    // the injector ticks shows in the counters or the journal.
    MachineConfig cfg;
    cfg.faultPlan = "seed=11;at=1000:core_off=1;at=5001:core_on=1;"
                    "at=20063:core_off=3;at=70001:core_on=3;"
                    "rate=0.00002:core_off=2;at=150000:core_on=2;"
                    "rate=0.001:bus_drop;rate=0.0005:flip=oe;"
                    "rate=0.0005:mig_drop";
    CircularStream s(20'000);
    std::vector<MemRef> refs;
    for (uint64_t i = 0; i < 100'000; ++i) {
        refs.push_back(MemRef::ifetch(0x400000 + (i % 4096) * 4));
        const uint64_t addr = s.next() * 64;
        refs.push_back(i % 4 == 0 ? MemRef::store(addr)
                                  : MemRef::load(addr));
    }

    MigrationMachine a(cfg), b(cfg);
    obs::Journal ja, jb;
    a.attachJournal(&ja);
    b.attachJournal(&jb);
    for (const MemRef &ref : refs)
        a.access(ref);
    const size_t lengths[] = {1, 63, 64, 65, 127, 128, 129, 7, 200};
    size_t turn = 0;
    for (size_t at = 0; at < refs.size();) {
        const size_t k = std::min(lengths[turn++ % std::size(lengths)],
                                  refs.size() - at);
        b.accessBatch(refs.data() + at, k);
        at += k;
    }
    EXPECT_GT(a.stats().coreOffEvents, 2u);
    EXPECT_GT(a.stats().busDrops, 0u);
    EXPECT_EQ(machineText(a), machineText(b));
    if (obs::kJournalCompiled) {
        ASSERT_NE(ja.renderJsonl().find("core_off"), std::string::npos);
    }
    EXPECT_EQ(ja.renderJsonl(), jb.renderJsonl());
}

TEST(BatchDeterminism, JournalJsonlBytesAgreeAcrossFeedModes)
{
    if (!obs::kJournalCompiled)
        GTEST_SKIP() << "journal compiled out";
    std::string jsonl[2];
    const FeedMode modes[2] = {FeedMode::PerRef, FeedMode::Batched};
    for (int m = 0; m < 2; ++m) {
        ObserveOptions oo;
        oo.journalOut = testing::TempDir() + "xmig_batch_journal_" +
                        std::to_string(m) + ".jsonl";
        RunObservatory observatory(oo);
        QuadcoreParams p;
        p.instructionsPerBenchmark = 120'000;
        p.feed = modes[m];
        runQuadcore("storm.thrash", p, &observatory);
        jsonl[m] = slurp(oo.journalOut);
    }
    ASSERT_FALSE(jsonl[0].empty());
    EXPECT_EQ(jsonl[0], jsonl[1]) << "batched journal diverged";
}

TEST(BatchDeterminism, ObservedRunArtifactsAgreeAcrossFeedModes)
{
    // Neither the warm-up end (37'777 instructions) nor the sample
    // cadence (777 references) is a multiple of K = 64, so both cut
    // chunks of the batched feed short.
    std::string samples[2];
    std::string journal[2];
    std::string metrics[2];
    QuadcoreRow rows[2];
    const FeedMode modes[2] = {FeedMode::PerRef, FeedMode::Batched};
    for (int m = 0; m < 2; ++m) {
        const std::string base = testing::TempDir() +
                                 "xmig_observed_feed_" +
                                 std::to_string(m);
        ObserveOptions oo;
        oo.samplesOut = base + ".csv";
        oo.journalOut = base + ".jsonl";
        oo.metricsOut = base + ".metrics.jsonl";
        oo.sampleEvery = 777;
        RunObservatory observatory(oo);
        QuadcoreParams p;
        p.instructionsPerBenchmark = 120'000;
        p.warmupInstructions = 37'777;
        p.feed = modes[m];
        rows[m] = runQuadcore("179.art", p, &observatory);
        samples[m] = slurp(oo.samplesOut);
        journal[m] = slurp(oo.journalOut);
        metrics[m] = slurp(oo.metricsOut);
    }
    ASSERT_FALSE(samples[0].empty());
    EXPECT_EQ(samples[0], samples[1]) << "batched samples diverged";
    // baseline.il1.* / .dl1.* included: the baseline replays chunks
    // the migration machine filtered, with the L1 tallies merged.
    ASSERT_NE(metrics[0].find("baseline.il1.accesses"), std::string::npos);
    EXPECT_EQ(metrics[0], metrics[1]) << "batched metrics diverged";
    if (obs::kJournalCompiled) {
        ASSERT_FALSE(journal[0].empty());
    }
    EXPECT_EQ(journal[0], journal[1]) << "batched journal diverged";
    expectRowsEqual(rows[0], rows[1], "observed batched");
    expectRowsEqual(rows[0],
                    runWith("179.art", FeedMode::Batched, 37'777),
                    "observed vs unobserved");
}

TEST(BatchDeterminism, TracedCoreOffRunAgreesAcrossFeedModes)
{
    if (!obs::kTraceCompiled)
        GTEST_SKIP() << "trace compiled out";
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    // The simulated-time (pid 0) events, core_off/core_on included,
    // must not depend on how the feed interleaves the two machines.
    // Wall-clock profiling scopes (pid 1) legitimately differ.
    auto simulatedTime = [](const std::string &trace) {
        std::istringstream in(trace);
        std::string line;
        std::string out;
        while (std::getline(in, line)) {
            if (line.find("\"pid\":0,") != std::string::npos)
                out += line + "\n";
        }
        return out;
    };
    std::string events[2];
    const FeedMode modes[2] = {FeedMode::PerRef, FeedMode::Batched};
    for (int m = 0; m < 2; ++m) {
        ObserveOptions oo;
        oo.traceOut = testing::TempDir() + "xmig_traced_feed_" +
                      std::to_string(m) + ".json";
        RunObservatory observatory(oo);
        QuadcoreParams p;
        p.instructionsPerBenchmark = 120'000;
        p.feed = modes[m];
        p.machine.faultPlan = "at=60000:core_off=1;at=90000:core_on=1";
        runQuadcore("179.art", p, &observatory);
        events[m] = simulatedTime(slurp(oo.traceOut));
    }
    ASSERT_NE(events[0].find("\"core_off\""), std::string::npos);
    EXPECT_EQ(events[0], events[1]) << "batched trace diverged";
}

TEST(BatchDeterminism, SweepTextIdenticalAcrossJobsAndFeedModes)
{
    const std::vector<std::string> benches = {"179.art", "181.mcf",
                                              "em3d"};
    auto sweepText = [&](FeedMode feed, unsigned jobs) {
        SweepSpec spec;
        spec.cells = benches.size();
        spec.run = [&](size_t i) {
            QuadcoreParams p;
            p.instructionsPerBenchmark = 60'000;
            p.feed = feed;
            const QuadcoreRow r = runQuadcore(benches[i], p);
            RunResult res;
            res.rows.push_back(
                {"",
                 {r.name, std::to_string(r.l2Misses4x),
                  std::to_string(r.migrations)}});
            return res;
        };
        const std::vector<RunResult> results = runSweep(spec, jobs);
        AsciiTable table({"benchmark", "l2miss", "migrations"});
        collateRows(results, table);
        return table.render();
    };
    const std::string reference = sweepText(FeedMode::PerRef, 1);
    for (const unsigned jobs : {1u, 3u, 8u}) {
        EXPECT_EQ(reference, sweepText(FeedMode::Batched, jobs))
            << "jobs=" << jobs;
    }
}

TEST(BatchDeterminism, EngineBatchMatchesScalarAndChunkSplits)
{
    EngineConfig ec;
    ec.windowSize = 128;
    AffinityCacheConfig ac;
    SoaAffinityStore sa(ac), sb(ac);
    AffinityEngine a(ec, sa), b(ec, sb);
    CircularStream stream(4000);
    std::vector<uint64_t> lines;
    for (int i = 0; i < 1000; ++i)
        lines.push_back(stream.next());

    std::vector<RefOutcome> want;
    for (const uint64_t line : lines)
        want.push_back(a.reference(line));

    // Odd chunk lengths: splits never align with K = 64.
    std::vector<RefOutcome> got(lines.size());
    size_t at = 0;
    for (const size_t k : {64u, 36u, 7u, 129u, 1u, 763u}) {
        b.referenceBatch(lines.data() + at, k, got.data() + at);
        at += k;
    }
    ASSERT_EQ(at, lines.size());
    for (size_t i = 0; i < lines.size(); ++i) {
        ASSERT_EQ(want[i].ae, got[i].ae) << "ref " << i;
        ASSERT_EQ(want[i].inWindow, got[i].inWindow) << "ref " << i;
    }
    EXPECT_EQ(a.checkpoint().windowAffinity,
              b.checkpoint().windowAffinity);
    EXPECT_EQ(a.checkpoint().delta, b.checkpoint().delta);
    EXPECT_EQ(a.checkpoint().sumIe, b.checkpoint().sumIe);
}

TEST(BatchDeterminism, EngineBatchFallbackArmMatchesScalar)
{
    // referenceBatch() must agree with reference() on DistinctLru
    // windows too.
    EngineConfig ec;
    ec.windowSize = 64;
    ec.window = WindowKind::DistinctLru;
    AffinityCacheConfig ac;
    SoaAffinityStore sa(ac), sb(ac);
    AffinityEngine a(ec, sa), b(ec, sb);
    CircularStream stream(500);
    std::vector<uint64_t> lines;
    for (int i = 0; i < 400; ++i)
        lines.push_back(stream.next());
    std::vector<RefOutcome> got(lines.size());
    b.referenceBatch(lines.data(), lines.size(), got.data());
    for (size_t i = 0; i < lines.size(); ++i) {
        const RefOutcome want = a.reference(lines[i]);
        ASSERT_EQ(want.ae, got[i].ae) << "ref " << i;
        ASSERT_EQ(want.inWindow, got[i].inWindow) << "ref " << i;
    }
}

TEST(BatchDeterminism, EngineCheckpointRoundTripsMidBatch)
{
    EngineConfig ec;
    ec.windowSize = 128;
    AffinityCacheConfig ac;
    SoaAffinityStore sb(ac), sc(ac);
    AffinityEngine b(ec, sb);
    CircularStream stream(4000);
    std::vector<uint64_t> lines;
    for (int i = 0; i < 100; ++i)
        lines.push_back(stream.next());

    // 64 + 36: checkpoint lands on a chunk boundary of the first call
    // but mid-stream of the logical 100-reference batch.
    std::vector<RefOutcome> out(lines.size());
    b.referenceBatch(lines.data(), 64, out.data());
    const EngineCheckpoint ckpt = b.checkpoint();
    std::vector<OeEntrySnapshot> entries;
    sb.snapshotEntries(entries);
    const OeStoreStats storeStats = sb.stats();
    b.referenceBatch(lines.data() + 64, 36, out.data() + 64);

    AffinityEngine c(ec, sc);
    sc.restoreEntries(entries, storeStats);
    c.restore(ckpt);
    for (size_t i = 64; i < lines.size(); ++i)
        EXPECT_EQ(c.reference(lines[i]).ae, out[i].ae) << "ref " << i;
}

TEST(BatchDeterminism, MachineCheckpointBetweenOddLengthBatches)
{
    MachineConfig cfg;
    MigrationMachine a(cfg), b(cfg);
    CircularStream s(20'000);
    std::vector<MemRef> refs;
    for (uint64_t i = 0; i < 150'000; ++i) {
        refs.push_back(MemRef::ifetch(0x400000 + (i % 4096) * 4));
        const uint64_t addr = s.next() * 64;
        refs.push_back(i % 4 == 0 ? MemRef::store(addr)
                                  : MemRef::load(addr));
    }

    // a: scalar; b: odd-length batches. Checkpoint both mid-stream.
    const size_t half = refs.size() / 2 + 33; // not a chunk multiple
    for (size_t i = 0; i < half; ++i)
        a.access(refs[i]);
    for (size_t at = 0; at < half;) {
        const size_t k = std::min<size_t>(97, half - at);
        b.accessBatch(refs.data() + at, k);
        at += k;
    }
    const MachineCheckpoint ca = a.checkpoint();
    const MachineCheckpoint cb = b.checkpoint();
    EXPECT_EQ(ca.stats.refs, cb.stats.refs);
    EXPECT_EQ(ca.stats.instructions, cb.stats.instructions);
    EXPECT_EQ(ca.stats.l1Misses, cb.stats.l1Misses);
    EXPECT_EQ(ca.stats.l2Misses, cb.stats.l2Misses);
    EXPECT_EQ(ca.stats.migrations, cb.stats.migrations);

    // Restore the batched machine's checkpoint into two fresh
    // machines and drive one scalar, one batched: they must stay in
    // lockstep to the end of the stream.
    MigrationMachine c(cfg), d(cfg);
    c.restore(cb);
    d.restore(cb);
    for (size_t i = half; i < refs.size(); ++i)
        c.access(refs[i]);
    for (size_t at = half; at < refs.size();) {
        const size_t k = std::min<size_t>(101, refs.size() - at);
        d.accessBatch(refs.data() + at, k);
        at += k;
    }
    EXPECT_EQ(c.stats().refs, d.stats().refs);
    EXPECT_EQ(c.stats().instructions, d.stats().instructions);
    EXPECT_EQ(c.stats().l1Misses, d.stats().l1Misses);
    EXPECT_EQ(c.stats().l2Misses, d.stats().l2Misses);
    EXPECT_EQ(c.stats().migrations, d.stats().migrations);
    EXPECT_EQ(c.activeCore(), d.activeCore());
}

} // namespace xmig
