#include "sim/quadcore.hpp"

#include "obs/prof.hpp"
#include "sim/observe.hpp"
#include "workloads/registry.hpp"

namespace xmig {

namespace {

/**
 * Feeds both machines and zeroes their counters once the warm-up
 * instruction budget has retired.
 */
class WarmupTee : public RefSink
{
  public:
    WarmupTee(MigrationMachine &baseline, MigrationMachine &migration,
              uint64_t warmup_instructions)
        : baseline_(baseline),
          migration_(migration),
          warmup_(warmup_instructions),
          done_(warmup_instructions == 0)
    {
    }

    void
    access(const MemRef &ref) override
    {
        baseline_.access(ref);
        migration_.access(ref);
        if (!done_ && ref.isIfetch() && ++instructions_ >= warmup_) {
            baseline_.resetStats();
            migration_.resetStats();
            done_ = true;
        }
    }

  protected:
    MigrationMachine &baseline_;
    MigrationMachine &migration_;
    uint64_t warmup_;
    uint64_t instructions_ = 0;
    bool done_;
};

/**
 * WarmupTee that also advances the observatory's sampling clock.
 * Kept as a separate sink so the unobserved feed path stays
 * instruction-identical to a build without the observability layer
 * (measured: the extra per-reference hook costs ~5% even when the
 * branch never takes).
 */
class ObservedWarmupTee final : public WarmupTee
{
  public:
    ObservedWarmupTee(MigrationMachine &baseline,
                      MigrationMachine &migration,
                      uint64_t warmup_instructions,
                      RunObservatory &observatory)
        : WarmupTee(baseline, migration, warmup_instructions),
          observatory_(observatory)
    {
    }

    void
    access(const MemRef &ref) override
    {
        const bool warming = !done_;
        WarmupTee::access(ref);
        if (warming && done_)
            observatory_.onStatsReset();
        observatory_.onReference();
    }

  private:
    RunObservatory &observatory_;
};

/**
 * xmig-bolt batched feed: buffers K references and drives both
 * machines through accessBatch(). Warm-up runs per-reference so the
 * counter reset lands at the exact reference WarmupTee resets at;
 * the caller must flush() after the workload ends.
 */
class BatchFeedTee final : public RefSink
{
  public:
    BatchFeedTee(MigrationMachine &baseline, MigrationMachine &migration,
                 uint64_t warmup_instructions)
        : baseline_(baseline),
          migration_(migration),
          warmup_(warmup_instructions),
          done_(warmup_instructions == 0)
    {
    }

    void
    access(const MemRef &ref) override
    {
        if (!done_) {
            baseline_.access(ref);
            migration_.access(ref);
            if (ref.isIfetch() && ++instructions_ >= warmup_) {
                baseline_.resetStats();
                migration_.resetStats();
                done_ = true;
            }
            return;
        }
        buf_[count_++] = ref;
        if (count_ == MigrationMachine::kBatchRefs)
            flush();
    }

    void
    flush()
    {
        if (count_ == 0)
            return;
        baseline_.accessBatch(buf_, count_);
        migration_.accessBatch(buf_, count_);
        count_ = 0;
    }

  private:
    MigrationMachine &baseline_;
    MigrationMachine &migration_;
    uint64_t warmup_;
    uint64_t instructions_ = 0;
    bool done_;
    MemRef buf_[MigrationMachine::kBatchRefs];
    size_t count_ = 0;
};

} // namespace

QuadcoreRow
runQuadcore(const std::string &benchmark, const QuadcoreParams &params,
            RunObservatory *observatory)
{
    XMIG_PROF_SCOPE("runQuadcore");
    auto workload = makeWorkload(benchmark);

    MachineConfig base_cfg = params.machine;
    base_cfg.numCores = 1;
    // The fault plan targets the migration machine only: the baseline
    // must stay a clean reference (and a single-core machine would
    // just warn the plan away).
    base_cfg.faultPlan.clear();
    MigrationMachine baseline(base_cfg);

    MachineConfig mig_cfg = params.machine;
    MigrationMachine migration(mig_cfg);

    if (observatory) {
        observatory->attachMachine(baseline, "baseline",
                                   /*sampled=*/false);
        observatory->attachMachine(migration, "machine",
                                   /*sampled=*/true);
    }

    {
        XMIG_PROF_SCOPE("feed");
        const uint64_t total = params.warmupInstructions +
                               params.instructionsPerBenchmark;
        // Sampling cadence and trace interleave are defined over
        // single references; the batched feed stands down to the
        // scalar path while either is recording (observe.hpp).
        FeedMode feed = params.feed;
        if (observatory && (observatory->samplingActive() ||
                            observatory->tracingActive()))
            feed = FeedMode::PerRef;

        if (feed == FeedMode::Batched) {
            BatchFeedTee tee(baseline, migration,
                             params.warmupInstructions);
            workload->run(tee, total, params.seed);
            tee.flush();
        } else if (observatory) {
            ObservedWarmupTee tee(baseline, migration,
                                  params.warmupInstructions,
                                  *observatory);
            workload->run(tee, total, params.seed);
        } else {
            WarmupTee tee(baseline, migration,
                          params.warmupInstructions);
            workload->run(tee, total, params.seed);
        }
    }

    // Registered pointers reach into the two machines above, so every
    // export has to happen before this frame unwinds.
    if (observatory)
        observatory->finish();

    QuadcoreRow row;
    row.name = workload->info().name;
    row.suite = workload->info().suite;
    row.instructions = migration.stats().instructions;
    row.l1Misses = migration.stats().l1Misses;
    row.l2MissesBaseline = baseline.stats().l2Misses;
    row.l2Misses4x = migration.stats().l2Misses;
    row.migrations = migration.stats().migrations;
    row.l2ToL2Forwards = migration.stats().l2ToL2Forwards;
    return row;
}

std::vector<QuadcoreRow>
runQuadcoreAll(const QuadcoreParams &params)
{
    std::vector<QuadcoreRow> rows;
    for (const auto &name : allWorkloadNames())
        rows.push_back(runQuadcore(name, params));
    return rows;
}

} // namespace xmig
