#include "cache/l1_filter.hpp"

#include "util/logging.hpp"

namespace xmig {

L1Filter::L1Filter(const L1FilterConfig &config, LineSink &sink)
    : config_(config),
      geom_(config.lineBytes),
      sink_(&sink)
{
    if (config_.fullyAssociative) {
        faIl1_ = std::make_unique<FullyAssocLru>(
            config_.il1Bytes / config_.lineBytes);
        faDl1_ = std::make_unique<FullyAssocLru>(
            config_.dl1Bytes / config_.lineBytes);
    } else {
        CacheConfig il1;
        il1.capacityBytes = config_.il1Bytes;
        il1.ways = config_.ways;
        il1.lineBytes = config_.lineBytes;
        il1.write = WritePolicy::WriteBackAllocate; // ifetch never writes
        saIl1_ = std::make_unique<Cache>(il1);

        CacheConfig dl1 = il1;
        dl1.capacityBytes = config_.dl1Bytes;
        dl1.write = config_.unifiedReadWrite
            ? WritePolicy::WriteBackAllocate
            : WritePolicy::WriteThroughNoAllocate;
        saDl1_ = std::make_unique<Cache>(dl1);
    }
}

void
L1Filter::access(const MemRef &ref)
{
    const uint64_t line = geom_.lineOf(ref.addr);
    const bool is_store = !config_.unifiedReadWrite && ref.isStore();

    bool hit;
    if (ref.isIfetch()) {
        hit = config_.fullyAssociative
            ? faIl1_->access(line)
            : saIl1_->access(line, false).hit;
    } else if (config_.fullyAssociative) {
        hit = faDl1_->access(line);
    } else {
        hit = saDl1_->access(line, is_store).hit;
    }

    // Downstream sees: every miss, plus (in write-through mode) every
    // store, hit or miss, since WT stores always propagate.
    if (!hit || is_store) {
        LineEvent event;
        event.line = line;
        event.type = ref.type;
        event.l1Miss = !hit;
        event.pointer = ref.pointer;
        sink_->onLine(event);
    }
}

size_t
L1Filter::filterBatch(const MemRef *refs, size_t n, LineEvent *events,
                      uint32_t *ref_idx, uint32_t *ev_instr,
                      uint32_t *ifetch_total)
{
    size_t m = 0;
    uint32_t instr = 0;
    if (!config_.fullyAssociative) {
        Cache &il1 = *saIl1_;
        Cache &dl1 = *saDl1_;
        const bool unified = config_.unifiedReadWrite;
        // Access/hit tallies stay in registers across the run; the
        // settle below folds them into the CacheStats, so the final
        // counters match n access() calls exactly.
        uint64_t il1_acc = 0, il1_hit = 0;
        uint64_t dl1_acc = 0, dl1_hit = 0;
        for (size_t i = 0; i < n; ++i) {
            const MemRef &ref = refs[i];
            const uint64_t line = geom_.lineOf(ref.addr);
            bool is_store = false;
            bool hit;
            if (ref.isIfetch()) {
                ++instr;
                ++il1_acc;
                hit = il1.accessTallied(line, false, il1_hit).hit;
            } else {
                is_store = !unified && ref.isStore();
                ++dl1_acc;
                hit = dl1.accessTallied(line, is_store, dl1_hit).hit;
            }
            if (!hit || is_store) {
                events[m].line = line;
                events[m].type = ref.type;
                events[m].l1Miss = !hit;
                events[m].pointer = ref.pointer;
                ref_idx[m] = static_cast<uint32_t>(i);
                ev_instr[m] = instr;
                ++m;
            }
        }
        il1.settleBatchStats(il1_acc, il1_hit);
        dl1.settleBatchStats(dl1_acc, dl1_hit);
        *ifetch_total = instr;
        return m;
    }
    for (size_t i = 0; i < n; ++i) {
        const MemRef &ref = refs[i];
        const uint64_t line = geom_.lineOf(ref.addr);
        const bool is_store = !config_.unifiedReadWrite && ref.isStore();
        bool hit;
        if (ref.isIfetch()) {
            ++instr;
            hit = faIl1_->access(line);
        } else {
            hit = faDl1_->access(line);
        }
        if (!hit || is_store) {
            events[m].line = line;
            events[m].type = ref.type;
            events[m].l1Miss = !hit;
            events[m].pointer = ref.pointer;
            ref_idx[m] = static_cast<uint32_t>(i);
            ev_instr[m] = instr;
            ++m;
        }
    }
    *ifetch_total = instr;
    return m;
}

void
L1Filter::addStats(const CacheStats &il1, const CacheStats &dl1)
{
    if (config_.fullyAssociative) {
        faIl1_->addStats(il1);
        faDl1_->addStats(dl1);
    } else {
        saIl1_->addStats(il1);
        saDl1_->addStats(dl1);
    }
}

void
L1Filter::resetStats()
{
    if (config_.fullyAssociative) {
        faIl1_->resetStats();
        faDl1_->resetStats();
    } else {
        saIl1_->resetStats();
        saDl1_->resetStats();
    }
}

const CacheStats &
L1Filter::il1Stats() const
{
    return config_.fullyAssociative ? faIl1_->stats() : saIl1_->stats();
}

const CacheStats &
L1Filter::dl1Stats() const
{
    return config_.fullyAssociative ? faDl1_->stats() : saDl1_->stats();
}

} // namespace xmig
