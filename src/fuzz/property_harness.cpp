#include "fuzz/property_harness.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <sstream>

#include "fault/fault_injector.hpp"
#include "multicore/machine.hpp"
#include "util/contracts.hpp"
#include "workloads/registry.hpp"

namespace xmig {

namespace {

/**
 * Deterministic fingerprint of everything the oracles compare:
 * machine counters, final active core, controller control plane and
 * recovery counters, and the injector's per-site totals. Two runs
 * are "bit-identical" iff their fingerprints match.
 */
std::string
fingerprint(const MigrationMachine &m)
{
    std::ostringstream out;
    const MachineStats &s = m.stats();
    out << "refs=" << s.refs << " l1m=" << s.l1Misses
        << " l2a=" << s.l2Accesses << " l2m=" << s.l2Misses
        << " fwd=" << s.l2ToL2Forwards << " wb=" << s.l3Writebacks
        << " mig=" << s.migrations << " bus=" << s.updateBusStores
        << " off=" << s.coreOffEvents << " on=" << s.coreOnEvents
        << " lost=" << s.dirtyLinesLost << " drop=" << s.busDrops
        << " scrub=" << s.coherenceRepairs
        << " active=" << m.activeCore();
    if (const MigrationController *c = m.controller()) {
        out << " live=" << c->liveMask() << " ways=" << c->splitWays()
            << " cactive=" << c->activeCore()
            << " req=" << c->stats().requests
            << " trans=" << c->stats().transitions
            << " cmig=" << c->stats().migrations;
        const RecoveryStats &r = c->recovery();
        out << " rlost=" << r.coresLost << " rjoin=" << r.coresJoined
            << " rsplit=" << r.resplits
            << " rforce=" << r.forcedMigrations
            << " rcorr=" << r.storeCorruptions
            << " rsdrop=" << r.storeDrops
            << " rmdrop=" << r.migDropped << " rmdel=" << r.migDelayed
            << " rmto=" << r.migTimeouts << " rmre=" << r.migRetries
            << " rfre=" << r.filterReinits;
    }
    if (const FaultInjector *inj = m.injector()) {
        out << " ticks=" << inj->stats().ticks;
        for (size_t i = 0;
             i < static_cast<size_t>(FaultSite::kCount); ++i) {
            out << ' '
                << faultSiteName(static_cast<FaultSite>(i)) << '='
                << inj->stats().injected[i];
        }
    }
    return out.str();
}

/** Feed refs [begin, end) of a recorded stream into a machine. */
void
feed(MigrationMachine &m, const std::vector<MemRef> &refs,
     size_t begin, size_t end)
{
    for (size_t i = begin; i < end; ++i)
        m.access(refs[i]);
}

/**
 * feed() through accessBatch() in odd chunk lengths, so chunk edges
 * fall on both sides of every fault tick and of the machine's K-ref
 * chunks: the batched path must match the per-reference one.
 */
void
feedBatched(MigrationMachine &m, const std::vector<MemRef> &refs,
            size_t begin, size_t end)
{
    static constexpr size_t kLengths[] = {1, 63, 64, 65, 7, 129, 200};
    size_t turn = 0;
    for (size_t at = begin; at < end;) {
        const size_t k = std::min(kLengths[turn++ % std::size(kLengths)], end - at);
        m.accessBatch(refs.data() + at, k);
        at += k;
    }
}

bool
isPow2(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

unsigned
popcount64(uint64_t v)
{
    unsigned n = 0;
    for (; v != 0; v &= v - 1)
        ++n;
    return n;
}

} // namespace

CaseResult
PropertyHarness::run(const FuzzCase &c) const
{
    CaseResult result;
    const auto addFailure = [&](const std::string &oracle,
                                const std::string &detail) {
        result.failures.push_back({oracle, detail});
    };

    // The machine constructor parseOrFatal()s its plan; a malformed
    // spec must be reported, not allowed to exit the process.
    FaultPlan plan;
    std::string parse_error;
    if (!FaultPlan::parse(c.plan, &plan, &parse_error)) {
        addFailure("invalid_plan", parse_error);
        return result;
    }

    // xmig-lint: allow(no-wallclock) -- wall-clock watchdog oracle:
    // host time bounds the *harness*, never reaches a sim result.
    const auto start = std::chrono::steady_clock::now();

    // Record the reference stream once; workload emission is
    // machine-independent, so every machine below sees the same
    // stream by construction.
    RefRecorder recorder;
    makeWorkload(c.benchmark)
        ->run(recorder, c.instructions, c.workloadSeed);
    const std::vector<MemRef> &refs = recorder.refs();
    XMIG_ASSERT(!refs.empty(), "workload emitted no references");

    MachineConfig config;
    config.faultPlan = c.plan;

    // Primary run, with a mid-stream checkpoint (about halfway, and
    // thus mid-fault for plans whose events cluster in the horizon).
    const size_t ckpt_at = refs.size() / 2;
    MigrationMachine a(config);
    feed(a, refs, 0, ckpt_at);
    const MachineCheckpoint ckpt = a.checkpoint();
    feed(a, refs, ckpt_at, refs.size());
    const std::string print_a = fingerprint(a);

    result.refs = a.stats().refs;
    result.migrations = a.stats().migrations;
    if (const FaultInjector *inj = a.injector())
        result.faultsInjected = inj->stats().total();
    result.coverage = collectCoverage(a);

    // Oracle: replay. Same (workload seed, plan) => same machine,
    // whether fed per reference (run A) or batched (run B).
    {
        MigrationMachine b(config);
        feedBatched(b, refs, 0, refs.size());
        const std::string print_b = fingerprint(b);
        if (print_b != print_a)
            addFailure("replay", "run A: " + print_a +
                                 "\nrun B: " + print_b);
    }

    // Oracle: checkpoint. Restore into two fresh machines and feed
    // both the identical suffix, one per reference and one batched;
    // they must agree with each other.
    // (The injector is architectural-state-free and restarts at tick
    // 0 on restore, so the restored pair is not compared to run A.)
    {
        MigrationMachine r1(config);
        MigrationMachine r2(config);
        r1.restore(ckpt);
        r2.restore(ckpt);
        feed(r1, refs, ckpt_at, refs.size());
        feedBatched(r2, refs, ckpt_at, refs.size());
        const std::string p1 = fingerprint(r1);
        const std::string p2 = fingerprint(r2);
        if (p1 != p2)
            addFailure("checkpoint", "restored 1: " + p1 +
                                     "\nrestored 2: " + p2);
    }

    // Oracle: topology invariants on the primary run.
    const MigrationController *ctrl = a.controller();
    XMIG_ASSERT(ctrl != nullptr, "quadcore machine has a controller");
    {
        const uint64_t live = ctrl->liveMask();
        const unsigned live_cores = popcount64(live);
        if (live == 0)
            addFailure("topology", "live mask is empty");
        else if (((live >> ctrl->activeCore()) & 1) == 0)
            addFailure("topology",
                       "active core " +
                           std::to_string(ctrl->activeCore()) +
                           " not in live mask " + std::to_string(live));
        if (a.activeCore() != ctrl->activeCore())
            addFailure("topology",
                       "machine active core " +
                           std::to_string(a.activeCore()) +
                           " != controller " +
                           std::to_string(ctrl->activeCore()));
        if (!isPow2(ctrl->splitWays()) ||
            ctrl->splitWays() > live_cores)
            addFailure("topology",
                       "split ways " +
                           std::to_string(ctrl->splitWays()) +
                           " vs " + std::to_string(live_cores) +
                           " live cores");
        if (!plan.targets(FaultSite::CoreOff) &&
            live != (uint64_t{1} << config.numCores) - 1)
            addFailure("topology",
                       "no core_off rules but live mask is " +
                           std::to_string(live));
        // Post-core_on recovery: a rejoin is only accepted for a
        // core that actually left, so joins can never outrun losses.
        if (ctrl->recovery().coresJoined > ctrl->recovery().coresLost)
            addFailure("topology",
                       "more rejoins than losses: " +
                           std::to_string(ctrl->recovery().coresJoined) +
                           " > " +
                           std::to_string(ctrl->recovery().coresLost));
    }

    // Oracle: coherence. Plans that never touch the update bus must
    // end with the modified-bit invariant intact (bus-drop plans are
    // exempt: the scrubber repairs on a cadence, so a violation can
    // be legitimately in flight at shutdown).
    if (!plan.targets(FaultSite::BusDrop)) {
        const uint64_t multi = a.countMultiModifiedLines();
        if (multi != 0)
            addFailure("coherence",
                       std::to_string(multi) +
                           " lines with multiple modified copies");
    }

    // Oracle: accounting. Injector totals must reconcile with what
    // the machine and controller say happened.
    if (const FaultInjector *inj = a.injector()) {
        const FaultStats &fs = inj->stats();
        if (fs.ticks != a.stats().refs)
            addFailure("accounting",
                       "injector ticks " + std::to_string(fs.ticks) +
                           " != machine refs " +
                           std::to_string(a.stats().refs));
        if (a.stats().busDrops != fs.of(FaultSite::BusDrop))
            addFailure("accounting",
                       "machine bus drops " +
                           std::to_string(a.stats().busDrops) +
                           " != injected " +
                           std::to_string(fs.of(FaultSite::BusDrop)));
        if (a.stats().coreOffEvents > fs.of(FaultSite::CoreOff) ||
            a.stats().coreOnEvents > fs.of(FaultSite::CoreOn))
            addFailure("accounting",
                       "accepted churn exceeds injected churn");
        if (a.stats().coreOffEvents != ctrl->recovery().coresLost ||
            a.stats().coreOnEvents != ctrl->recovery().coresJoined)
            addFailure("accounting",
                       "machine and controller disagree on churn");
        for (size_t i = 0;
             i < static_cast<size_t>(FaultSite::kCount); ++i) {
            const auto site = static_cast<FaultSite>(i);
            if (!plan.targets(site) && fs.of(site) != 0)
                addFailure("accounting",
                           std::string("untargeted site ") +
                               faultSiteName(site) + " injected " +
                               std::to_string(fs.of(site)) +
                               " faults");
        }
    } else {
        addFailure("accounting", "fault injector not armed");
    }

    // Oracle: watchdog. The drive loops above are finite by
    // construction, so this is a backstop against livelock *inside*
    // the machine (it would show up as a grossly blown budget).
    if (config_.timeoutMs != 0) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                // xmig-lint: allow(no-wallclock) -- watchdog oracle
                // reads host time only to bound harness runtime.
                std::chrono::steady_clock::now() - start)
                .count();
        if (static_cast<uint64_t>(elapsed) > config_.timeoutMs)
            addFailure("watchdog",
                       "case took " + std::to_string(elapsed) +
                           " ms (budget " +
                           std::to_string(config_.timeoutMs) + " ms)");
    }

    // Test-only broken oracle (see HarnessConfig::brokenOracle).
    if (config_.brokenOracle && plan.targets(FaultSite::CoreOff) &&
        plan.targets(FaultSite::BusDrop))
        addFailure("broken_self_test",
                   "plan targets both core_off and bus_drop");

    return result;
}

} // namespace xmig
