/**
 * @file
 * Calendar queue of runnable cores, keyed (local time, core id).
 *
 * The scheduler's previous ready structure was a plain priority_queue
 * into which every syncPoint pushed a fresh {time, id} entry;
 * schedulerLoop and syncPoint then skipped entries that had gone
 * stale (core done, running, or advanced past the recorded time). At
 * ~60 yielding cores that floods the heap with garbage and puts a
 * stale-entry scan plus O(log n) sift chains of dependent loads on
 * the hottest loop in the simulator.
 *
 * ReadyQueue exploits two properties of the scheduling discipline:
 *
 *  1. The popped minimum time never decreases (the minimum-time core
 *     runs, advances, and re-queues at a later time; a suspended
 *     core is only re-keyed when an event wakes it from a parked ULI
 *     wait, and never below the last pop). So a cursor at the last
 *     popped time is a lower bound for every queued core.
 *  2. Queued core times cluster within a few hundred cycles of the
 *     cursor (one work quantum or one memory-transaction latency).
 *
 * Cores therefore live on a timing wheel of single-cycle buckets,
 * each bucket a per-core bitmask (same time => ordered by id via
 * count-trailing-zeros), with a bucket-occupancy bitmap to jump over
 * empty cycles and a rarely-used overflow list for cores more than
 * wheelSize cycles ahead (injected multi-million-cycle stalls). The
 * running minimum is cached, making the syncPoint "is anyone earlier
 * than me" test one compare and the common pop O(1)+short-scan.
 *
 * Pop order is identical to the old structure's valid-pop order: the
 * lexicographic minimum (time, id) over live, suspended cores. The
 * byte-identity suite (tests/test_hotpath.cc) pins this equivalence.
 */

#ifndef BIGTINY_SIM_READY_QUEUE_HH
#define BIGTINY_SIM_READY_QUEUE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace bigtiny::sim
{

class ReadyQueue
{
  public:
    /** One-cycle buckets covered by the wheel; must be a power of 2. */
    static constexpr size_t wheelSize = 2048;

    /** Size for @p n cores and drop all entries. */
    void
    init(int n)
    {
        numCores = static_cast<size_t>(n);
        idWords = (numCores + 63) / 64;
        keys.assign(numCores, 0);
        masks.assign(wheelSize * idWords, 0);
        bitmap.assign(wheelSize / 64, 0);
        overflowIds.clear();
        cursor = 0;
        count = 0;
        cachedTime = maxCycle;
        cachedId = -1;
    }

    bool empty() const { return count == 0; }
    size_t size() const { return count; }

    /** Insert core @p id with key @p t; it must not be present. */
    void
    insert(CoreId id, Cycle t)
    {
        keys[static_cast<size_t>(id)] = t;
        if (t - cursor < wheelSize) {
            const size_t b = t & (wheelSize - 1);
            uint64_t &word =
                masks[b * idWords + (static_cast<size_t>(id) >> 6)];
            panic_if(word & (uint64_t{1} << (id & 63)),
                     "ReadyQueue: core %d inserted twice", id);
            word |= uint64_t{1} << (id & 63);
            bitmap[b >> 6] |= uint64_t{1} << (b & 63);
        } else {
            overflowIds.push_back(id);
        }
        ++count;
        if (t < cachedTime || (t == cachedTime && id < cachedId)) {
            cachedTime = t;
            cachedId = id;
        }
    }

    /** Remove and return the minimum (time, id) entry. */
    std::pair<Cycle, CoreId>
    popMin()
    {
        const Cycle t = cachedTime;
        const CoreId id = cachedId;
        if (t - cursor < wheelSize) {
            const size_t b = t & (wheelSize - 1);
            uint64_t &word =
                masks[b * idWords + (static_cast<size_t>(id) >> 6)];
            word &= ~(uint64_t{1} << (id & 63));
            if (bucketEmpty(b))
                bitmap[b >> 6] &= ~(uint64_t{1} << (b & 63));
        } else {
            removeOverflow(id);
        }
        cursor = t; // popped minimum is globally non-decreasing
        if (--count == 0) {
            cachedTime = maxCycle;
            cachedId = -1;
        } else {
            recomputeMin();
        }
        return {t, id};
    }

    /**
     * Move queued core @p id to the earlier key @p t, not below the
     * last pop (an event woke a parked core). The minimum can only
     * drop, so no rescan.
     */
    void
    decreaseKey(CoreId id, Cycle t)
    {
        const Cycle old = keys[static_cast<size_t>(id)];
        panic_if(t > old || t < cursor,
                 "ReadyQueue: bad decreaseKey of core %d", id);
        if (old - cursor < wheelSize) {
            const size_t b = old & (wheelSize - 1);
            masks[b * idWords + (static_cast<size_t>(id) >> 6)] &=
                ~(uint64_t{1} << (id & 63));
            if (bucketEmpty(b))
                bitmap[b >> 6] &= ~(uint64_t{1} << (b & 63));
        } else {
            removeOverflow(id);
        }
        --count;
        insert(id, t);
    }

    /** Key of the minimum entry; maxCycle when empty. O(1). */
    Cycle minTime() const { return cachedTime; }

    /** Key of queued core @p id (meaningful only while queued). */
    Cycle keyOf(CoreId id) const { return keys[static_cast<size_t>(id)]; }

    /** Keys from the last pop up to (excluding) this sit on the wheel;
     *  later ones go to the overflow list. */
    Cycle horizon() const { return cursor + wheelSize; }

    /**
     * True when some queued core orders before (@p t, @p id) — the
     * syncPoint "another core must run first" test. O(1).
     */
    bool
    hasEarlierThan(Cycle t, CoreId id) const
    {
        return cachedTime < t || (cachedTime == t && cachedId < id);
    }

    void
    clear()
    {
        if (count > 0)
            init(static_cast<int>(numCores));
    }

  private:
    static constexpr Cycle maxCycle = ~static_cast<Cycle>(0);

    bool
    bucketEmpty(size_t b) const
    {
        for (size_t w = 0; w < idWords; ++w)
            if (masks[b * idWords + w])
                return false;
        return true;
    }

    CoreId
    firstIdIn(size_t b) const
    {
        for (size_t w = 0; w < idWords; ++w) {
            const uint64_t bits = masks[b * idWords + w];
            if (bits)
                return static_cast<CoreId>(
                    (w << 6) + __builtin_ctzll(bits));
        }
        panic("ReadyQueue: empty bucket scanned");
    }

    void
    removeOverflow(CoreId id)
    {
        for (size_t i = 0; i < overflowIds.size(); ++i) {
            if (overflowIds[i] == id) {
                overflowIds[i] = overflowIds.back();
                overflowIds.pop_back();
                return;
            }
        }
        panic("ReadyQueue: overflow core %d missing", id);
    }

    /** Move overflow cores that drifted into the window onto the wheel. */
    void
    migrateOverflow()
    {
        for (size_t i = 0; i < overflowIds.size();) {
            const CoreId id = overflowIds[i];
            const Cycle t = keys[static_cast<size_t>(id)];
            if (t - cursor < wheelSize) {
                const size_t b = t & (wheelSize - 1);
                masks[b * idWords + (static_cast<size_t>(id) >> 6)] |=
                    uint64_t{1} << (id & 63);
                bitmap[b >> 6] |= uint64_t{1} << (b & 63);
                overflowIds[i] = overflowIds.back();
                overflowIds.pop_back();
            } else {
                ++i;
            }
        }
    }

    /**
     * Recompute the cached minimum after a pop. All wheel times lie
     * in [cursor, cursor + wheelSize), so the first occupied bucket
     * in that circular window — starting at the cursor's own bucket —
     * is the minimum time, and ctz of its mask the minimum id.
     */
    void
    recomputeMin()
    {
        if (!overflowIds.empty())
            migrateOverflow();
        const size_t base = cursor & (wheelSize - 1);
        // Common case: another core queued at exactly the cursor time.
        if (!bucketEmpty(base)) {
            cachedTime = cursor;
            cachedId = firstIdIn(base);
            return;
        }
        // Scan the occupancy bitmap circularly for the next bucket.
        // Bits at or below the base position in the first word belong
        // to the far end of the window and are picked up by the final
        // wrapped iteration.
        size_t w = base >> 6;
        uint64_t bits = bitmap[w] & ~((uint64_t{2} << (base & 63)) - 1);
        for (size_t i = 0; i <= wheelSize / 64; ++i) {
            if (bits) {
                const size_t bit =
                    (w << 6) +
                    static_cast<size_t>(__builtin_ctzll(bits));
                const size_t dist = (bit - base) & (wheelSize - 1);
                cachedTime = cursor + dist;
                cachedId = firstIdIn(bit);
                return;
            }
            w = (w + 1) & (wheelSize / 64 - 1);
            bits = bitmap[w];
        }
        // Wheel empty: the minimum lives in the overflow list.
        panic_if(overflowIds.empty(),
                 "ReadyQueue: %zu cores queued but none found", count);
        cachedTime = maxCycle;
        cachedId = -1;
        for (const CoreId id : overflowIds) {
            const Cycle t = keys[static_cast<size_t>(id)];
            if (t < cachedTime || (t == cachedTime && id < cachedId)) {
                cachedTime = t;
                cachedId = id;
            }
        }
    }

    std::vector<Cycle> keys;      //!< per-core key (valid when queued)
    std::vector<uint64_t> masks;  //!< per-bucket core-id bitmasks
    std::vector<uint64_t> bitmap; //!< non-empty-bucket occupancy bits
    std::vector<CoreId> overflowIds; //!< cores >= wheelSize ahead
    Cycle cursor = 0;     //!< last popped time (lower bound on keys)
    Cycle cachedTime = maxCycle; //!< current minimum entry
    CoreId cachedId = -1;
    size_t numCores = 0;
    size_t idWords = 0;   //!< 64-bit words per bucket mask
    size_t count = 0;
};

} // namespace bigtiny::sim

#endif // BIGTINY_SIM_READY_QUEUE_HH
