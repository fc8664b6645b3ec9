/**
 * @file
 * xmig-gauge host side: clocks, resource use, build metadata, digests.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "gauge.hpp"

namespace gauge {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

unsigned
hostCores()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

namespace {

/**
 * The probe's work: 2^20 references of a xorshift stream (four in
 * five to a hot 16K-line region, the rest to a 512K-line one) through
 * a 4096-set, 8-way LRU tag array, like the simulator's cache models.
 * Returns the hit count so the work can't be elided.
 */
uint64_t
probeWork()
{
    constexpr unsigned kSets = 4096, kWays = 8;
    std::vector<uint64_t> tags(kSets * kWays, ~0ULL);
    std::vector<uint32_t> ages(kSets * kWays, 0);
    uint64_t x = 0x9e3779b97f4a7c15ULL, hits = 0;
    uint32_t clock = 0;
    for (unsigned i = 0; i < (1u << 20); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t line =
            (x & 0xff) < 205 ? (x >> 20) & 0x3fff : (x >> 20) & 0x7ffff;
        uint64_t *t = &tags[(line % kSets) * kWays];
        uint32_t *a = &ages[(line % kSets) * kWays];
        const uint64_t tag = line / kSets;
        unsigned hit = kWays, victim = 0;
        for (unsigned w = 0; w < kWays; ++w) {
            if (t[w] == tag)
                hit = w;
            if (a[w] < a[victim])
                victim = w;
        }
        if (hit < kWays) {
            ++hits;
            a[hit] = ++clock;
        } else {
            t[victim] = tag;
            a[victim] = ++clock;
        }
    }
    return hits;
}

} // namespace

ProbeTime
hostProbe(unsigned threads)
{
    std::vector<ProbeTime> times(std::max(1u, threads));
    std::vector<uint64_t> hits(times.size());
    const auto threadCpu = [] {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    };
    const auto run = [&](size_t i) {
        const double c0 = threadCpu();
        const double t0 = nowSeconds();
        hits[i] = probeWork();
        times[i] = {nowSeconds() - t0, threadCpu() - c0};
    };
    std::vector<std::thread> others;
    for (size_t i = 1; i < times.size(); ++i)
        others.emplace_back(run, i);
    run(0);
    for (std::thread &t : others)
        t.join();
    ProbeTime fastest = times[0];
    for (size_t i = 0; i < times.size(); ++i) {
        if (hits[i] != hits[0])
            std::abort(); // the probe is deterministic
        fastest.wall = std::min(fastest.wall, times[i].wall);
        fastest.cpu = std::min(fastest.cpu, times[i].cpu);
    }
    return fastest;
}

std::string
digest(const std::string &row)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char ch : row) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ULL;
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

BuildInfo
buildInfo()
{
    return {GAUGE_COMPILER, GAUGE_BUILD_TYPE, GAUGE_AUDIT_LEVEL,
            GAUGE_FAULT,    GAUGE_JOURNAL,    GAUGE_TRACE,
            GAUGE_SANITIZE};
}

std::string
buildRefusal()
{
    const BuildInfo b = buildInfo();
    if (!b.sanitize.empty())
        return "sanitizer build (XMIG_SANITIZE=" + b.sanitize + ")";
    if (b.buildType == "Debug")
        return "Debug build";
#if !defined(__OPTIMIZE__)
    return "unoptimized build (build type '" + b.buildType + "')";
#else
    return "";
#endif
}

} // namespace gauge
