/**
 * @file
 * The simulated hardware thread (core) and its guest-facing API.
 *
 * Guest code — the work-stealing runtime and the application kernels —
 * runs on a fiber bound to a Core and interacts with the simulated
 * machine exclusively through this class: explicit compute-cycle
 * charging (work), loads/stores/AMOs against the simulated memory
 * hierarchy, the cache_invalidate / cache_flush instructions of the
 * software-centric protocols, and the ULI send/receive interface.
 *
 * Timing model:
 *  - Tiny cores charge costs directly (single-issue in-order,
 *    1 cycle per non-memory instruction, blocking memory ops).
 *  - Big cores are modeled analytically: compute cycles are divided
 *    by SystemConfig::bigIpcFactor and miss latency by bigMlp
 *    (out-of-order overlap). See DESIGN.md for calibration.
 */

#ifndef BIGTINY_SIM_CORE_HH
#define BIGTINY_SIM_CORE_HH

#include <functional>

#include "common/types.hh"
#include "mem/memory_system.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "uli/uli.hh"

namespace bigtiny::sim
{

class System;

class Core
{
  public:
    Core(System &sys, CoreId id, CoreKind kind);

    CoreId id() const { return _id; }
    CoreKind kind() const { return _kind; }
    Cycle now() const { return time; }
    System &system() { return sys; }

    // --- compute ------------------------------------------------------
    /** Charge @p cycles of non-memory work (scaled on big cores). */
    void work(uint64_t cycles, TimeCat cat = TimeCat::Work);

    // --- memory -------------------------------------------------------
    uint64_t load(Addr a, uint32_t len, TimeCat cat = TimeCat::Load);
    void store(Addr a, uint64_t v, uint32_t len,
               TimeCat cat = TimeCat::Store);
    uint64_t amo(mem::AmoOp op, Addr a, uint64_t operand, uint32_t len,
                 TimeCat cat = TimeCat::Atomic);

    /** Compare-and-swap; @return true when the swap happened. */
    bool cas(Addr a, uint64_t expect, uint64_t desire, uint32_t len,
             TimeCat cat = TimeCat::Atomic);

    /** Synchronizing read: amo_or(a, 0); always reads fresh data. */
    uint64_t
    amoLoad(Addr a, uint32_t len, TimeCat cat = TimeCat::Atomic)
    {
        return amo(mem::AmoOp::Or, a, 0, len, cat);
    }

    /** cache_invalidate instruction (no-op on MESI). */
    void cacheInvalidate();

    /** cache_flush instruction (acts on GPU-WB only). */
    void cacheFlush();

    template <typename T>
    T
    ld(Addr a, TimeCat cat = TimeCat::Load)
    {
        static_assert(sizeof(T) <= 8);
        uint64_t raw = load(a, sizeof(T), cat);
        T v;
        std::memcpy(&v, &raw, sizeof(T));
        return v;
    }

    template <typename T>
    void
    st(Addr a, T v, TimeCat cat = TimeCat::Store)
    {
        static_assert(sizeof(T) <= 8);
        uint64_t raw = 0;
        std::memcpy(&raw, &v, sizeof(T));
        store(a, raw, sizeof(T), cat);
    }

    // --- ULI ------------------------------------------------------------
    void uliEnable() { uliUnit.enabled = true; }
    void uliDisable() { uliUnit.enabled = false; }
    bool uliEnabled() const { return uliUnit.enabled; }

    void
    uliSetHandler(std::function<void(CoreId, uint64_t)> h)
    {
        uliUnit.handler = std::move(h);
    }

    struct UliResp
    {
        bool ack;
        uint64_t payload;
    };

    /**
     * Send a ULI request and spin (servicing our own incoming ULIs,
     * which prevents thief-thief deadlock) until the response arrives.
     * Polls that provably observe nothing are skipped by parking the
     * core in the scheduler (System::uliWaitStep, DESIGN.md §12.1).
     */
    UliResp uliSendReqAndWait(CoreId victim, uint64_t payload = 0);

    /** Reply to @p thief from within the ULI handler. */
    void uliSendResp(CoreId thief, bool ack, uint64_t payload = 0);

    /** Deliver a pending ULI if reception is possible (called at
     * instruction boundaries). Inline fast path: no request pending
     * (the overwhelmingly common case on the syncPoint path). */
    void
    pollUli()
    {
        if (!uliUnit.reqPending || !uliUnit.enabled ||
            uliUnit.inHandler) [[likely]]
            return;
        deliverUli();
    }

    uli::UliUnit uliUnit;

    // --- instrumentation -------------------------------------------------
    CoreStats stats;

    /**
     * Logical instruction counter: +n per work(n), +1 per memory
     * operation, independent of core kind and contention. The DAG
     * profiler samples it to compute work/span (the paper's Cilkview
     * analog).
     */
    uint64_t instCount() const { return instCounter; }

    /** True while executing guest code on this core's fiber. */
    bool running = false;

    /** Set by System when the guest function has finished. */
    bool done = false;

    /**
     * Host-side: ULI-wait steps taken so far, each at most one
     * scheduler round trip. Not part of any statistics output.
     */
    uint64_t uliWaitSteps() const { return waitSteps; }

  private:
    friend class System;

    /** Charge raw @p lat cycles to @p cat, no big-core scaling. */
    void chargeRaw(Cycle lat, TimeCat cat);

    /** Scale a memory latency for the core kind. */
    Cycle scaleMem(Cycle lat, bool hit) const;

    /** Block until this core is the globally minimum-time agent. */
    void syncPoint();

    /** Slow path of pollUli: vector to the software ULI handler. */
    void deliverUli();

    System &sys;
    CoreId _id;
    CoreKind _kind;
    Cycle time = 0;
    uint64_t instCounter = 0;
    double workCarry = 0.0; //!< fractional big-core compute cycles

    /** Injected stall (sim-stall-core), consumed at the next syncPoint. */
    Cycle pendingStall = 0;

    // Cold state last: the fields above keep the hot-path layout.
    uint64_t waitSteps = 0; //!< see uliWaitSteps()

    /**
     * Parked in a ULI wait: queued at a deadline beyond its next poll
     * while `time` stays at that poll (System::uliWaitStep).
     */
    bool parked = false;
};

} // namespace bigtiny::sim

#endif // BIGTINY_SIM_CORE_HH
