/**
 * @file
 * Tests for the xmig-swift work-stealing job pool and the shared
 * sweep harness: deterministic index ordering, serial-path identity
 * at jobs == 1, and exception propagation matching the serial loop.
 */

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "sim/runner/batch_queue.hpp"
#include "sim/runner/job_pool.hpp"
#include "sim/runner/sweep.hpp"

namespace xmig {
namespace {

TEST(JobPool, ResolvesWorkerCount)
{
    EXPECT_EQ(JobPool(1).jobs(), 1u);
    EXPECT_EQ(JobPool(7).jobs(), 7u);
    EXPECT_EQ(JobPool(0).jobs(), JobPool::defaultJobs());
    EXPECT_GE(JobPool::defaultJobs(), 1u);
}

TEST(JobPool, ResultsLandInIndexOrder)
{
    const JobPool pool(8);
    const std::vector<uint64_t> out = runIndexed<uint64_t>(
        pool, 100, [](size_t i) { return uint64_t(i) * i + 3; });
    ASSERT_EQ(out.size(), 100u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], uint64_t(i) * i + 3);
}

TEST(JobPool, EveryJobRunsExactlyOnce)
{
    const JobPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.run(hits.size(), [&](size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

// jobs == 1 must be the *literal* serial path: every job executes
// inline on the calling thread, in index order.
TEST(JobPool, SingleWorkerRunsInlineInOrder)
{
    const JobPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    pool.run(16, [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 16u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

// A single job is also inline, whatever the worker count.
TEST(JobPool, SingleJobRunsInline)
{
    const JobPool pool(8);
    const std::thread::id caller = std::this_thread::get_id();
    bool ran = false;
    pool.run(1, [&](size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ran = true;
    });
    EXPECT_TRUE(ran);
}

// The serial loop would surface the exception of the first failing
// index; the pool must rethrow that same one after the join, and the
// independent jobs after a failure must still have run.
TEST(JobPool, RethrowsLowestIndexedFailure)
{
    const JobPool pool(4);
    std::atomic<int> ran{0};
    try {
        pool.run(64, [&](size_t i) {
            ++ran;
            if (i == 41)
                throw std::runtime_error("job 41");
            if (i == 7)
                throw std::runtime_error("job 7");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 7");
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(JobPool, RethrowsLowestIndexedFailureInline)
{
    const JobPool pool(1);
    EXPECT_THROW(pool.run(4,
                          [](size_t i) {
                              if (i >= 2)
                                  throw std::range_error("boom");
                          }),
                 std::range_error);
}

RunResult
cellResult(size_t i)
{
    RunResult r;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "block %zu\n", i);
    r.text = buf;
    std::snprintf(buf, sizeof(buf), "%zu", i);
    r.rows.push_back({i < 2 ? "first" : "second", {buf, "x"}});
    return r;
}

// The sweep contract: whatever the worker count, collation happens in
// cell-index order, so the rendered output is bit-identical.
TEST(Sweep, ParallelCollationMatchesSerial)
{
    SweepSpec spec;
    spec.cells = 5;
    spec.run = cellResult;

    const std::vector<RunResult> serial = runSweep(spec, 1);
    const std::vector<RunResult> parallel = runSweep(spec, 8);
    ASSERT_EQ(serial.size(), parallel.size());

    EXPECT_EQ(collateText(serial), collateText(parallel));
    EXPECT_EQ(collateText(serial),
              "block 0\nblock 1\nblock 2\nblock 3\nblock 4\n");

    AsciiTable a({"i", "v"}), b({"i", "v"});
    collateRows(serial, a);
    collateRows(parallel, b);
    EXPECT_EQ(a.render(), b.render());
    // Section headers appear once per label change, in index order.
    const std::string text = a.render();
    EXPECT_NE(text.find("first"), std::string::npos);
    EXPECT_NE(text.find("second"), std::string::npos);
    EXPECT_LT(text.find("first"), text.find("second"));
    EXPECT_EQ(text.find("first"), text.rfind("first"));
    EXPECT_EQ(text.find("second"), text.rfind("second"));
}

TEST(Sweep, EmptySweepIsEmpty)
{
    SweepSpec spec;
    spec.cells = 0;
    spec.run = cellResult;
    const std::vector<RunResult> results = runSweep(spec, 4);
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(collateText(results), "");
}

// ---------------------------------------------------------------
// BatchQueue SPSC ring corners (xmig-bolt / xmig-arena handoff).
// ---------------------------------------------------------------

BatchQueue::Chunk
chunkTagged(uint32_t tag)
{
    BatchQueue::Chunk c;
    c.count = 1;
    c.refs[0].addr = tag;
    return c;
}

TEST(BatchQueue, CapacityOneRingStillPipelines)
{
    // The degenerate ring: every push must wait for the matching
    // pop, lock-step, and order must survive.
    BatchQueue queue(1);
    EXPECT_EQ(queue.capacity(), 1u);
    std::thread producer([&queue] {
        for (uint32_t i = 0; i < 100; ++i)
            EXPECT_TRUE(queue.push(chunkTagged(i)));
        queue.close();
    });
    BatchQueue::Chunk out;
    uint32_t expected = 0;
    while (queue.pop(out))
        EXPECT_EQ(out.refs[0].addr, expected++);
    EXPECT_EQ(expected, 100u);
    producer.join();
}

TEST(BatchQueueDeathTest, ZeroSlotsAreRejected)
{
    // A zero-slot ring could never hand a chunk over; the contract
    // fires at every audit level rather than silently resizing.
    EXPECT_DEATH(BatchQueue queue(0), "at least one slot");
}

TEST(BatchQueue, WrapsCleanlyAtPowerOfTwoBoundary)
{
    // Drive head/tail far past several 2^k multiples of the slot
    // count and check FIFO order and payload never skew. The ring is
    // index-mod-slots, so an off-by-one at the wrap would surface as
    // a reordered or repeated tag within the first few laps.
    BatchQueue queue(8);
    constexpr uint32_t kChunks = 8 * 16 + 3; // 16 full laps + tail
    std::thread producer([&queue] {
        for (uint32_t i = 0; i < kChunks; ++i)
            EXPECT_TRUE(queue.push(chunkTagged(i)));
        queue.close();
    });
    BatchQueue::Chunk out;
    uint32_t expected = 0;
    while (queue.pop(out))
        EXPECT_EQ(out.refs[0].addr, expected++);
    EXPECT_EQ(expected, kChunks);
    producer.join();
}

TEST(BatchQueue, CloseWhileFullDrainsBufferedChunksFirst)
{
    // close() with a full ring must not drop the buffered chunks:
    // pop() keeps returning them, and only reports end-of-stream
    // once the ring is empty.
    BatchQueue queue(2);
    EXPECT_TRUE(queue.push(chunkTagged(1)));
    EXPECT_TRUE(queue.push(chunkTagged(2)));
    queue.close();
    BatchQueue::Chunk out;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.refs[0].addr, 1u);
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.refs[0].addr, 2u);
    EXPECT_FALSE(queue.pop(out)) << "closed and drained";
    EXPECT_FALSE(queue.pop(out)) << "end-of-stream is sticky";
}

TEST(BatchQueue, CancelUnblocksProducerStuckOnFullRing)
{
    // The arena teardown path: a producer blocked in push() on a
    // full ring must wake and see false when the consumer cancels.
    BatchQueue queue(1);
    EXPECT_TRUE(queue.push(chunkTagged(1)));
    std::atomic<int> result{-1};
    std::thread producer([&queue, &result] {
        result = queue.push(chunkTagged(2)) ? 1 : 0;
    });
    // Give the producer a chance to block on the full ring; even if
    // cancel() lands first, push() must still report false.
    for (int i = 0; i < 256 && result == -1; ++i)
        std::this_thread::yield();
    queue.cancel();
    producer.join();
    EXPECT_EQ(result, 0) << "push after cancel must report false";
    EXPECT_TRUE(queue.cancelled());
    BatchQueue::Chunk out;
    EXPECT_FALSE(queue.pop(out))
        << "cancel discards buffered chunks and closes the stream";
    EXPECT_FALSE(queue.push(chunkTagged(3)))
        << "cancellation is sticky for future pushes";
}

} // namespace
} // namespace xmig
