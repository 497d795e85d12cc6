/**
 * @file
 * Per-layer probes: host nanoseconds per call into one simulator
 * layer's public functions, timed from outside the layer.
 *
 * Each probe runs a fixed number of operations in several batches and
 * reports the median batch's ns per operation. The memory probes run
 * on a fresh System built from the workload's own SystemConfig, on its
 * first tiny core, so they see that configuration's protocol and L1
 * size.
 */

#ifndef BIGTINY_PERFBENCH_PROBES_HH
#define BIGTINY_PERFBENCH_PROBES_HH

#include "sim/config.hh"
#include "timing.hh"

namespace perfbench
{

/** ns per call of each MemorySystem entry point. */
struct MemProbe
{
    double loadHitNs = 0;  //!< load() that hits in the L1
    double loadMissNs = 0; //!< load() that misses the L1, hits the L2
    double storeNs = 0;    //!< store() to lines the core touched last
    double amoNs = 0;      //!< amo(Add) on one word
    double invalidateNs = 0; //!< cacheInvalidate() over 8 valid lines
    double flushNs = 0;      //!< cacheFlush() over 8 dirty lines
    /** False when the L1's own counters show the hit or miss probe
     *  did not take the path it is named after. */
    bool pathsAsLabelled = true;

    /** Add @p p's times scaled by @p weight (for averaging). */
    void
    add(const MemProbe &p, double weight)
    {
        loadHitNs += p.loadHitNs * weight;
        loadMissNs += p.loadMissNs * weight;
        storeNs += p.storeNs * weight;
        amoNs += p.amoNs * weight;
        invalidateNs += p.invalidateNs * weight;
        flushNs += p.flushNs * weight;
        pathsAsLabelled &= p.pathsAsLabelled;
    }
};

MemProbe probeMem(const bigtiny::sim::SystemConfig &cfg, SpanLog &log);

/** ns per ReadyQueue popMin + insert pair with @p cores queued. */
double probeReadyQueue(int cores, SpanLog &log);

/** ns per event through EventQueue schedule + runDue. */
double probeEventWheel(SpanLog &log);

/** ns per Fiber context switch (half of a ping-pong). */
double probeFiberSwitch(SpanLog &log);

} // namespace perfbench

#endif // BIGTINY_PERFBENCH_PROBES_HH
