/**
 * @file
 * The simulated machine: cores, memory system, ULI network, and the
 * deterministic fiber scheduler that interleaves guest execution in
 * global (time, core-id) order.
 *
 * Scheduling discipline: guest code on a core may only perform a
 * globally visible action (memory transaction, ULI poll) when that
 * core is the minimum-time agent in the system; Core::syncPoint()
 * enforces this by yielding to the scheduler until it is. Events
 * (ULI message arrivals) interleave at their exact timestamps. The
 * result is a deterministic, repeatable interleaving for any seed.
 */

#ifndef BIGTINY_SIM_SYSTEM_HH
#define BIGTINY_SIM_SYSTEM_HH

#include <chrono>
#include <memory>
#include <vector>

#include "fault/failure.hh"
#include "mem/address_space.hh"
#include "mem/memory_system.hh"
#include "sim/config.hh"
#include "sim/core.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/ready_queue.hh"
#include "trace/sampler.hh"
#include "trace/trace.hh"
#include "uli/uli.hh"

namespace bigtiny::sim
{

class System
{
  public:
    explicit System(SystemConfig cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Bind a guest function to a core; it runs when run() starts. */
    void attachGuest(CoreId c, std::function<void(Core &)> guest);

    /**
     * Run every attached guest to completion.
     *
     * @param max_cycles cycle budget; 0 uses SystemConfig::watchdogCycles.
     *
     * On any detected failure — cycle budget, deadlock (no retired
     * instruction and no executed event for cfg.deadlockCycles), wall
     * clock, coherence violation, or a structured runtime error — every
     * guest fiber is unwound cleanly and a fault::SimFailure carrying a
     * FailureReport is thrown; the simulation never hangs or exits with
     * silently wrong statistics.
     */
    void run(Cycle max_cycles = 0);

    /** The fault injector driving this run (empty plan when no faults). */
    fault::Injector &injector() { return *faultInjector; }

    /**
     * Report a detected failure and abort the simulation. Callable from
     * guest fibers, event handlers, and (for unit-level checks) outside
     * run(); always throws.
     */
    [[noreturn]] void raiseFailure(fault::Verdict v, std::string reason);

    /** Largest core time (total execution cycles). */
    Cycle elapsed() const;

    Core &core(CoreId c) { return *cores[c]; }
    int numCores() const { return static_cast<int>(cores.size()); }

    const SystemConfig &config() const { return cfg; }
    mem::MemorySystem &mem() { return *memSys; }
    mem::ArenaAllocator &arena() { return allocator; }
    EventQueue &events() { return eventQueue; }
    uli::UliNetwork &uliNet() { return *uliNetwork; }

    /** Aggregate per-core stats over a core-kind filter. */
    CoreStats aggregateCoreStats(bool tiny_only) const;

    /** Aggregate L1 cache stats over all cores (or tiny only). */
    CacheStats aggregateCacheStats(bool tiny_only) const;

    /**
     * Event tracer; non-null only when SystemConfig::traceCategories
     * is non-zero. One track per core plus a network track (ULI
     * in-flight counter). Host-side only — never charges simulated
     * cycles, so enabling it cannot perturb the model.
     */
    trace::Tracer *tracer() { return eventTracer.get(); }

    /** The network counter track's id (== numCores()). */
    int networkTrack() const { return numCores(); }

    /**
     * Interval sampler; non-null only when SystemConfig::sampleCycles
     * is non-zero. Driven from the scheduler loop, finalized at the
     * end of run().
     */
    trace::IntervalSampler *sampler() { return intervalSampler.get(); }

    /**
     * Progress heartbeat: called every SystemConfig::progressCycles
     * cycles from the watchdog path with the current cycle. btsim
     * installs a closure that prints cycle/tasks/steals to stderr.
     */
    std::function<void(Cycle)> progressHook;

    /**
     * Installed by rt::Runtime (cleared in its destructor): fills the
     * vectors with cumulative per-cluster steal-attempt and
     * steal-success counts, indexed by the thief's cluster. The
     * interval sampler calls it per snapshot to emit per-cluster
     * steal columns; null for serial runs (the columns are omitted).
     */
    std::function<void(std::vector<uint64_t> &,
                       std::vector<uint64_t> &)>
        stealSampleHook;

    /**
     * Called by an event handler that changed state a ULI wait on
     * @p c observes (its response or request buffer, a pending stall).
     * A parked @p c moves to the first poll at or after the event's
     * cycle — where the polling loop would first have seen the change.
     */
    void
    wakeParked(Core &c)
    {
        if (c.parked) [[unlikely]]
            wakeParkedSlow(c);
    }

  private:
    friend class Core;

    /**
     * Called from a core's fiber: yield until this core is the
     * minimum-time agent, running due events along the way. Yields
     * chain directly to the next scheduled core's fiber; the
     * scheduler fiber is re-entered only when a guest finishes.
     */
    void syncPoint(Core &c);

    /** Queue @p c at @p key and run others until it is popped. */
    void yieldAt(Core &c, Cycle key);

    /**
     * One step of a ULI wait (Core::uliSendReqAndWait), entered at the
     * next poll with its 2 cycles charged. Equivalent to syncPoint(c)
     * followed by every further poll up to the deadline that cannot
     * see a change: the core parks at that deadline instead, and an
     * event that could change what it observes wakes it earlier.
     */
    void uliWaitStep(Core &c);

    void wakeParkedSlow(Core &c);

    /**
     * Advance parked @p c to the first poll of its grid (time + 2k)
     * ordered after (@p t, @p id), never past its ready-queue key.
     * Skipped polls are charged to TimeCat::Sync in one step.
     */
    void settleParked(Core &c, Cycle t, CoreId id);

    /** Settle every parked core to the current slot (failure path). */
    void settleAllParked();

    /**
     * Fire due events one cycle at a time, then pop the minimum-time
     * core and return its fiber marked running; the cycle budget and
     * the sampler see each candidate minimum before its events. The
     * one scheduling decision, shared by schedulerLoop, syncPoint and
     * uliWaitStep.
     */
    Fiber *pickNext();

    /** Scheduler-side: seed the fiber chain until all guests finish. */
    void schedulerLoop();

    /**
     * Cycle-budget + deadlock + wall-clock checks (from syncPoint).
     * One compare on the fast path: nextAnyCheck is the earliest cycle
     * at which any of the individual checks is due.
     */
    void
    watchdogCheck(Core &c)
    {
        if (c.time < nextAnyCheck) [[likely]]
            return;
        watchdogCheckSlow(c);
    }

    void watchdogCheckSlow(Core &c);

    /** Recompute nextAnyCheck from the per-check due cycles. */
    void armWatchdogChecks();

    /** Consume an injected sim-stall-core stall on @p c. */
    void applyStall(Core &c);

    /** Resume every unfinished fiber until it unwinds (abort path). */
    void unwindGuests();

    /** Exit-state invariants: no pending ULI state on any core. */
    void verifyQuiescence();

    /** Monotone counter; stable value == no forward progress. */
    uint64_t progressSignature() const;

    fault::FailureReport buildFailureReport(fault::Verdict v, Cycle cycle,
                                            std::string reason) const;

    SystemConfig cfg;
    std::unique_ptr<mem::MemorySystem> memSys;
    mem::ArenaAllocator allocator;
    EventQueue eventQueue;
    std::unique_ptr<uli::UliNetwork> uliNetwork;

    std::vector<std::unique_ptr<Core>> cores;
    std::vector<std::unique_ptr<Fiber>> fibers;

    /**
     * Live, suspended cores keyed (time, id); at most one entry per
     * core and keys always current (a core's time only advances while
     * it runs, and a running core is never queued) — except a parked
     * ULI waiter, keyed at its wake-up poll and settled to it when
     * popped. Every pop is valid — no stale entries to skip.
     */
    ReadyQueue ready;
    int liveGuests = 0;
    Cycle watchdog = ~static_cast<Cycle>(0);
    Fiber *schedFiber = nullptr;
    Core *runningCore = nullptr;

    /**
     * Latest point passed in the global (time, core) order: the
     * running core's last syncPoint, or — with no core running — the
     * event cycle being fired (events order before every core at their
     * cycle). Parked cores settle relative to it.
     */
    Cycle slotTime = 0;

    std::unique_ptr<fault::Injector> faultInjector;
    std::unique_ptr<trace::Tracer> eventTracer;
    std::unique_ptr<trace::IntervalSampler> intervalSampler;
    Cycle nextProgressBeat = 0;

    // --- failure machinery (see raiseFailure) -------------------------
    bool insideRun = false;  //!< between run() entry and exit
    bool aborting = false;   //!< failure raised; fibers must unwind
    std::unique_ptr<fault::SimFailure> pendingFailure; //!< first failure

    // --- watchdog progress tracking -----------------------------------
    uint64_t lastProgressSig = 0;
    Cycle lastProgressCycle = 0;
    Cycle nextWatchdogCheck = 0;
    Cycle nextWallCheck = 0;
    Cycle nextAnyCheck = 0; //!< min of all due cycles (fast-path gate)
    Cycle watchdogInterval = 1;
    bool wallLimited = false;
    std::chrono::steady_clock::time_point wallDeadline;
};

} // namespace bigtiny::sim

#endif // BIGTINY_SIM_SYSTEM_HH
