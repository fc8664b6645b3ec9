#include "sim/quadcore.hpp"

#include <algorithm>

#include "obs/prof.hpp"
#include "sim/observe.hpp"
#include "workloads/registry.hpp"

namespace xmig {

namespace {

/**
 * The one feed of a Table 2 cell: buffers references and hands each
 * chunk to both machines. A chunk is cut when it is full (K
 * references, or 1 under FeedMode::PerRef), at the reference that
 * retires the last warm-up instruction, and at the reference that
 * completes a time-series sample interval — so the counter reset and
 * every sample see both machines exactly as a per-reference feed
 * leaves them. The caller must flush() after the workload ends.
 *
 * A batched chunk is filtered through the L1 level once, by the
 * migration machine, and the post-L1 chunk is replayed into both
 * machines: L1 contents are mirrored across cores, so the L1 miss
 * stream does not depend on migration (DESIGN.md section 7). Under
 * PerRef each machine filters through its own L1, one reference at
 * a time — the reference path the batched feed is checked against.
 */
class FeedTee final : public RefSink
{
  public:
    FeedTee(MigrationMachine &baseline, MigrationMachine &migration,
            const QuadcoreParams &params, RunObservatory *observatory)
        : baseline_(baseline),
          migration_(migration),
          observatory_(observatory),
          perRef_(params.feed == FeedMode::PerRef),
          warmup_(params.warmupInstructions),
          warming_(params.warmupInstructions > 0)
    {
        cutAt_ = nextCut();
    }

    void
    access(const MemRef &ref) override
    {
        buf_[count_++] = ref;
        const bool warmupEnds =
            warming_ && ref.isIfetch() && ++instructions_ >= warmup_;
        if (count_ == cutAt_ || warmupEnds)
            flush(warmupEnds);
    }

    void
    flush(bool warmupEnds = false)
    {
        if (count_ == 0)
            return;
        if (perRef_) {
            for (size_t i = 0; i < count_; ++i) {
                baseline_.access(buf_[i]);
                migration_.access(buf_[i]);
            }
        } else {
            migration_.filterBatch(buf_, count_, chunk_);
            baseline_.replayBatch(chunk_);
            migration_.replayBatch(chunk_);
        }
        if (warmupEnds) {
            baseline_.resetStats();
            migration_.resetStats();
            warming_ = false;
            if (observatory_)
                observatory_->onStatsReset();
        }
        if (observatory_)
            observatory_->onReference(count_);
        count_ = 0;
        cutAt_ = nextCut();
    }

  private:
    size_t
    nextCut() const
    {
        const size_t full = perRef_ ? 1 : MigrationMachine::kBatchRefs;
        if (!observatory_)
            return full;
        return static_cast<size_t>(
            std::min<uint64_t>(full, observatory_->refsUntilSample()));
    }

    MigrationMachine &baseline_;
    MigrationMachine &migration_;
    RunObservatory *observatory_;
    bool perRef_;
    uint64_t warmup_;
    uint64_t instructions_ = 0;
    bool warming_;
    MemRef buf_[MigrationMachine::kBatchRefs];
    MigrationMachine::PostL1Chunk chunk_;
    size_t count_ = 0;
    size_t cutAt_ = 0; ///< chunk length at which the next cut falls
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
        FeedTee tee(baseline, migration, params, observatory);
        workload->run(tee, total, params.seed);
        tee.flush();
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
