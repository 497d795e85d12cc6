#include "sim/system.hh"

#include "common/log.hh"

namespace bigtiny::sim
{

System::System(SystemConfig cfg_in) : cfg(std::move(cfg_in))
{
    cfg.check();
    faultInjector = std::make_unique<fault::Injector>(cfg.faults);
    if (cfg.traceCategories != 0) {
        // One track per core plus one for the ULI network counters.
        eventTracer = std::make_unique<trace::Tracer>(
            cfg.numCores() + 1, cfg.traceCategories);
        // Cluster tags appear only on explicitly clustered configs so
        // traces of the classic presets stay byte-identical.
        bool clustered = cfg.clusterRows * cfg.clusterCols > 1;
        for (CoreId c = 0; c < cfg.numCores(); ++c) {
            std::string name =
                "core " + std::to_string(c) +
                (cfg.cores[c] == CoreKind::Big ? " (big" : " (tiny");
            if (clustered)
                name += " cl" + std::to_string(cfg.clusterOf(c));
            eventTracer->setTrackName(c, name + ")");
        }
        eventTracer->setTrackName(cfg.numCores(), "network");
        faultInjector->setTracer(eventTracer.get());
    }
    if (cfg.sampleCycles != 0)
        intervalSampler =
            std::make_unique<trace::IntervalSampler>(cfg.sampleCycles);
    memSys = std::make_unique<mem::MemorySystem>(cfg, faultInjector.get(),
                                                 eventTracer.get());
    uliNetwork = std::make_unique<uli::UliNetwork>(*this);
    cores.reserve(cfg.numCores());
    for (CoreId c = 0; c < cfg.numCores(); ++c)
        cores.push_back(std::make_unique<Core>(*this, c, cfg.cores[c]));
    fibers.resize(cfg.numCores());
    // With faults armed, the shadow checker becomes a fail-fast
    // detector: the first violation aborts with a structured report.
    // Fault-free runs keep the passive count-and-report behavior.
    if (auto *chk = memSys->checker(); chk && !cfg.faults.empty()) {
        chk->onViolation = [this](const check::Violation &v) {
            raiseFailure(fault::Verdict::CoherenceViolation,
                         v.describe());
        };
    }
}

System::~System() = default;

void
System::attachGuest(CoreId c, std::function<void(Core &)> guest)
{
    panic_if(c < 0 || c >= numCores(), "attachGuest: bad core %d", c);
    panic_if(fibers[c] != nullptr, "core %d already has a guest", c);
    Core *core = cores[c].get();
    fibers[c] = std::make_unique<Fiber>(
        [this, core, guest = std::move(guest)] {
            try {
                guest(*core);
            } catch (const fault::FiberUnwind &) {
                // System is aborting; the fiber unwound cleanly.
            } catch (const fault::SimFailure &f) {
                if (!pendingFailure)
                    pendingFailure =
                        std::make_unique<fault::SimFailure>(f);
                aborting = true;
            } catch (const std::exception &e) {
                if (!pendingFailure) {
                    settleAllParked();
                    pendingFailure = std::make_unique<fault::SimFailure>(
                        buildFailureReport(
                            fault::Verdict::GuestError, core->now(),
                            fault::format("guest on core %d threw: %s",
                                          core->id(), e.what())));
                }
                aborting = true;
            }
            // Finish bookkeeping happens here (not in schedulerLoop):
            // with direct fiber chaining the scheduler no longer
            // observes every switch, only the onFinish return.
            core->running = false;
            if (runningCore == core)
                runningCore = nullptr;
            if (!core->done) {
                core->done = true;
                --liveGuests;
            }
        });
}

void
System::run(Cycle max_cycles)
{
    if (max_cycles == 0)
        max_cycles = cfg.watchdogCycles;
    schedFiber = Fiber::current();
    watchdog = max_cycles;
    liveGuests = 0;
    ready.init(numCores());
    for (CoreId c = 0; c < numCores(); ++c) {
        if (!fibers[c])
            continue;
        fibers[c]->setOnFinish(schedFiber);
        ready.insert(c, cores[c]->time);
        ++liveGuests;
    }
    fatal_if(liveGuests == 0, "System::run with no guests attached");

    // Arm sim-stall-core rules: an event at args[1] adds args[2] idle
    // cycles to core args[0], consumed at its next syncPoint.
    for (const fault::FaultRule &r : cfg.faults.rules) {
        if (r.site != fault::FaultSite::SimStallCore)
            continue;
        Core *target = cores[r.args[0]].get();
        Cycle stall = r.args[2];
        eventQueue.schedule(r.args[1], [this, target, stall] {
            wakeParked(*target);
            target->pendingStall += stall;
            faultInjector->record(fault::FaultSite::SimStallCore,
                                  target->id(), target->time, stall);
        });
    }

    insideRun = true;
    aborting = false;
    nextProgressBeat = cfg.progressCycles;
    lastProgressSig = progressSignature();
    lastProgressCycle = 0;
    watchdogInterval = std::max<Cycle>(cfg.deadlockCycles / 16, 1);
    nextWatchdogCheck = watchdogInterval;
    nextWallCheck = 0;
    wallLimited = cfg.wallClockLimitMs > 0;
    if (wallLimited)
        wallDeadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(cfg.wallClockLimitMs);
    armWatchdogChecks();

    try {
        schedulerLoop();
    } catch (const fault::FiberUnwind &) {
        // Failure raised on the scheduler stack (event handler or the
        // scheduler's own budget check).
        aborting = true;
    }
    insideRun = false;

    if (aborting || pendingFailure) {
        unwindGuests();
        ready.clear();
        eventQueue.clear();
        // Close the time-series on the failure path too, so a partial
        // run's samples survive into the written artifacts.
        if (intervalSampler)
            intervalSampler->finish(*this);
        panic_if(!pendingFailure, "System aborted without a failure");
        fault::SimFailure failure = *pendingFailure;
        pendingFailure.reset();
        aborting = false;
        throw failure;
    }
    if (intervalSampler)
        intervalSampler->finish(*this);
    verifyQuiescence();
}

Fiber *
System::pickNext()
{
    // Hardware events at or before the minimum core's time fire first,
    // one cycle at a time: an event may wake a parked core to a key
    // below the current minimum, and that core then runs first.
    for (;;) {
        const Cycle t = ready.minTime();
        if (t > watchdog) [[unlikely]]
            raiseFailure(fault::Verdict::CycleBudget,
                         fault::format("simulation exceeded %llu cycles",
                                       (unsigned long long)watchdog));
        // Interval sampling hooks the deterministic min-time candidate:
        // the global order of boundary crossings is identical for
        // every host and --jobs count.
        if (intervalSampler && t >= intervalSampler->nextDue())
            [[unlikely]]
            intervalSampler->sampleUpTo(*this, t);
        const Cycle e = eventQueue.nextTime();
        if (e > t) [[likely]]
            break;
        slotTime = e;
        eventQueue.runDue(e);
    }
    // ReadyQueue entries are valid by construction — the popped
    // (time, id) is always the minimum over live suspended cores.
    auto [t, id] = ready.popMin();
    Core &c = *cores[id];
    if (t != c.time) [[unlikely]] {
        // Only a parked core is queued ahead of its own time.
        panic_if(!c.parked, "event changed a core's local time");
        c.chargeRaw(t - c.time, TimeCat::Sync);
    }
    slotTime = t;
    runningCore = &c;
    c.running = true;
    return fibers[id].get();
}

void
System::schedulerLoop()
{
    // Guest fibers chain to each other directly at yield points
    // (syncPoint); control only returns here when a guest finishes
    // (Fiber::setOnFinish) or the run aborts, so this loop re-seeds
    // the chain rather than mediating every switch.
    while (liveGuests > 0) {
        if (aborting)
            return;
        panic_if(ready.empty(), "scheduler: live guests but none ready");
        pickNext()->run();
    }
    if (aborting)
        return;
    // Drain any remaining events (e.g., in-flight ULI responses).
    eventQueue.runDue(EventQueue::maxCycle);
}

void
System::yieldAt(Core &c, Cycle key)
{
    // Hand off straight to the next scheduled core's fiber (one
    // context switch, no scheduler-fiber round trip). The
    // model-visible sequence — queue ourselves, pop the global
    // minimum, fire its due events, resume it — is exactly the
    // scheduler's.
    ready.insert(c.id(), key);
    c.running = false;
    runningCore = nullptr;
    Fiber *next = pickNext();
    if (next != fibers[c.id()].get())
        next->run(); // resumed when we are the minimum again
    // else: only an event was due; pickNext ran it and re-picked us.
}

void
System::syncPoint(Core &c)
{
    if (aborting)
        throw fault::FiberUnwind{};
    // Guest-side watchdog: a lone spinning core never yields to the
    // scheduler, so the hang checks must live here as well.
    watchdogCheck(c);
    for (;;) {
        bool earlier_event = eventQueue.nextTime() <= c.time;
        bool earlier_core = ready.hasEarlierThan(c.time, c.id());
        if (!earlier_event && !earlier_core)
            break;
        yieldAt(c, c.time);
        if (aborting)
            throw fault::FiberUnwind{};
    }
    slotTime = c.time;
    if (c.pendingStall > 0)
        applyStall(c);
    c.pollUli();
}

void
System::uliWaitStep(Core &c)
{
    // Polls before `limit` only re-check an unchanged response buffer:
    // no watchdog check or sample is due there, and the key stays on
    // the ready wheel. Park at the last of them; the ordinary step
    // from there reaches the first poll that must run in full.
    Cycle limit = std::min(nextAnyCheck, ready.horizon());
    if (intervalSampler)
        limit = std::min(limit, intervalSampler->nextDue());
    if (limit <= c.time + 2) {
        syncPoint(c);
        return;
    }
    if (aborting)
        throw fault::FiberUnwind{};
    c.parked = true;
    yieldAt(c, c.time + ((limit - c.time - 1) & ~Cycle{1}));
    c.parked = false;
    // Resumed at the deadline or an earlier wake; pickNext settled our
    // time to that poll, which now runs in full.
    syncPoint(c);
}

void
System::wakeParkedSlow(Core &c)
{
    // slotTime is the cycle of the event being fired: the wait would
    // first see it at the first poll at or after that cycle, which is
    // never past the parked key (the key was the queue's minimum or
    // later when the event came due).
    settleParked(c, slotTime, -1);
    if (c.time != ready.keyOf(c.id()))
        ready.decreaseKey(c.id(), c.time);
}

void
System::settleParked(Core &c, Cycle t, CoreId id)
{
    // First poll p = time + 2k with (p, c) after (t, id).
    const Cycle at = c.id() > id ? t : t + 1;
    Cycle p = at <= c.time ? c.time
                           : c.time + ((at - c.time + 1) & ~Cycle{1});
    p = std::min(p, ready.keyOf(c.id()));
    c.chargeRaw(p - c.time, TimeCat::Sync);
}

void
System::settleAllParked()
{
    // With a core running, the slot is its last syncPoint; otherwise
    // an event cycle, which orders before every core at that cycle.
    const CoreId id = runningCore ? runningCore->id() : -1;
    for (const auto &c : cores)
        if (c->parked)
            settleParked(*c, slotTime, id);
}

uint64_t
System::progressSignature() const
{
    uint64_t sig = eventQueue.executed();
    for (const auto &c : cores)
        sig += c->instCounter;
    return sig;
}

void
System::armWatchdogChecks()
{
    // The budget check fires at the first syncPoint with time beyond
    // the watchdog; the others at their own cadences. Guests whose
    // time stays below all of them take the one-compare fast path.
    Cycle next = watchdog == EventQueue::maxCycle ? watchdog
                                                  : watchdog + 1;
    if (wallLimited && nextWallCheck < next)
        next = nextWallCheck;
    if (cfg.progressCycles && progressHook &&
        nextProgressBeat < next)
        next = nextProgressBeat;
    if (nextWatchdogCheck < next)
        next = nextWatchdogCheck;
    nextAnyCheck = next;
}

void
System::watchdogCheckSlow(Core &c)
{
    Cycle now = c.time;
    if (now > watchdog)
        raiseFailure(
            fault::Verdict::CycleBudget,
            fault::format("core %d exceeded the %llu-cycle budget",
                          c.id(), (unsigned long long)watchdog));
    // The wall-clock deadline gets its own, much finer cadence: short
    // runs never reach the first deadlock granule, but a host-side
    // timeout must still fire on them promptly.
    if (wallLimited && now >= nextWallCheck) {
        nextWallCheck = now + wallCheckGranule;
        if (std::chrono::steady_clock::now() > wallDeadline)
            raiseFailure(
                fault::Verdict::WallClockTimeout,
                fault::format("host wall-clock limit of %llu ms "
                              "exceeded",
                              (unsigned long long)cfg.wallClockLimitMs));
    }
    if (cfg.progressCycles && progressHook && now >= nextProgressBeat) {
        while (nextProgressBeat <= now)
            nextProgressBeat += cfg.progressCycles;
        progressHook(now);
    }
    if (now >= nextWatchdogCheck) {
        nextWatchdogCheck = now + watchdogInterval;
        uint64_t sig = progressSignature();
        if (sig != lastProgressSig) {
            lastProgressSig = sig;
            lastProgressCycle = now;
        } else if (now > lastProgressCycle &&
                   now - lastProgressCycle >= cfg.deadlockCycles) {
            raiseFailure(
                fault::Verdict::Deadlock,
                fault::format(
                    "no instruction retired and no event executed "
                    "for %llu cycles (stuck since cycle %llu)",
                    (unsigned long long)(now - lastProgressCycle),
                    (unsigned long long)lastProgressCycle));
        }
    }
    armWatchdogChecks();
}

void
System::applyStall(Core &c)
{
    // Charge the injected stall as idle time in workQuantum-sized steps
    // so the watchdog keeps running: a stall longer than deadlockCycles
    // on an otherwise-quiet system trips the deadlock detector at a
    // predictable cycle.
    while (c.pendingStall > 0) {
        Cycle step = std::min<Cycle>(c.pendingStall, workQuantum);
        c.pendingStall -= step;
        c.chargeRaw(step, TimeCat::Idle);
        watchdogCheck(c);
    }
}

void
System::raiseFailure(fault::Verdict v, std::string reason)
{
    if (!pendingFailure) {
        // Report parked cores at the poll the polling loop would have
        // reached by now.
        settleAllParked();
        Cycle now = runningCore ? runningCore->now() : elapsed();
        pendingFailure = std::make_unique<fault::SimFailure>(
            buildFailureReport(v, now, std::move(reason)));
    }
    if (insideRun) {
        aborting = true;
        throw fault::FiberUnwind{};
    }
    fault::SimFailure failure = *pendingFailure;
    pendingFailure.reset();
    throw failure;
}

void
System::unwindGuests()
{
    // aborting is set, so every syncPoint throws FiberUnwind: resuming
    // a fiber unwinds its guest stack (running destructors — keeps
    // sanitizer runs leak-clean) until the fiber finishes.
    for (CoreId c = 0; c < numCores(); ++c) {
        if (!fibers[c] || cores[c]->done)
            continue;
        while (!fibers[c]->finished())
            fibers[c]->run();
        cores[c]->done = true;
    }
    liveGuests = 0;
}

void
System::verifyQuiescence()
{
    for (const auto &c : cores) {
        if (c->uliUnit.reqPending)
            raiseFailure(fault::Verdict::Quiescence,
                         fault::format("core %d exited with a pending "
                                       "ULI request from core %d",
                                       c->id(), c->uliUnit.reqSender));
        if (c->uliUnit.respReady)
            raiseFailure(fault::Verdict::Quiescence,
                         fault::format("core %d exited with an unread "
                                       "ULI response",
                                       c->id()));
    }
}

fault::FailureReport
System::buildFailureReport(fault::Verdict v, Cycle cycle,
                           std::string reason) const
{
    fault::FailureReport r;
    r.verdict = v;
    r.cycle = cycle;
    r.reason = std::move(reason);
    r.cores.reserve(cores.size());
    for (const auto &c : cores) {
        r.cores.push_back({c->id(),
                           c->kind() == CoreKind::Big ? 'B' : 'T',
                           c->done, c->time, c->instCounter,
                           c->uliUnit.enabled, c->uliUnit.inHandler,
                           c->uliUnit.reqPending, c->uliUnit.respReady});
    }
    r.pendingEvents = eventQueue.pending();
    r.hasNextEvent = !eventQueue.empty();
    r.nextEventTime = r.hasNextEvent ? eventQueue.nextTime() : 0;
    r.faultLog = faultInjector->log();
    return r;
}

Cycle
System::elapsed() const
{
    Cycle t = 0;
    for (const auto &c : cores)
        t = std::max(t, c->now());
    return t;
}

CoreStats
System::aggregateCoreStats(bool tiny_only) const
{
    CoreStats agg;
    for (const auto &c : cores) {
        if (tiny_only && c->kind() != CoreKind::Tiny)
            continue;
        agg.add(c->stats);
    }
    return agg;
}

CacheStats
System::aggregateCacheStats(bool tiny_only) const
{
    CacheStats agg;
    for (CoreId c = 0; c < numCores(); ++c) {
        if (tiny_only && cores[c]->kind() != CoreKind::Tiny)
            continue;
        agg.add(memSys->l1(c).stats);
    }
    return agg;
}

} // namespace bigtiny::sim
