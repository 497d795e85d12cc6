#include "sim/core.hh"

#include <cstring>

#include "common/log.hh"
#include "sim/system.hh"

namespace bigtiny::sim
{

Core::Core(System &sys, CoreId id, CoreKind kind)
    : sys(sys), _id(id), _kind(kind)
{}

void
Core::chargeRaw(Cycle lat, TimeCat cat)
{
    time += lat;
    stats.timeByCat[static_cast<size_t>(cat)] += lat;
}

Cycle
Core::scaleMem(Cycle lat, bool hit) const
{
    if (_kind == CoreKind::Tiny || hit || lat <= 1)
        return lat;
    // Out-of-order cores overlap misses with independent work.
    Cycle scaled = 1 + static_cast<Cycle>(
        static_cast<double>(lat - 1) / sys.config().bigMlp);
    return scaled;
}

void
Core::syncPoint()
{
    sys.syncPoint(*this);
}

void
Core::work(uint64_t cycles, TimeCat cat)
{
    instCounter += cycles;
    uint64_t charge = cycles;
    if (_kind == CoreKind::Big) {
        workCarry += static_cast<double>(cycles) /
                     sys.config().bigIpcFactor;
        charge = static_cast<uint64_t>(workCarry);
        workCarry -= static_cast<double>(charge);
    }
    do {
        uint64_t step = std::min(charge, workQuantum);
        syncPoint();
        chargeRaw(step, cat);
        charge -= step;
    } while (charge > 0);
}

uint64_t
Core::load(Addr a, uint32_t len, TimeCat cat)
{
    syncPoint();
    uint64_t v = 0;
    auto r = sys.mem().load(_id, time, a, &v, len);
    chargeRaw(scaleMem(r.lat, r.hit), cat);
    ++stats.memOps;
    ++instCounter;
    return v;
}

void
Core::store(Addr a, uint64_t v, uint32_t len, TimeCat cat)
{
    syncPoint();
    auto r = sys.mem().store(_id, time, a, &v, len);
    // Stores retire through a store buffer; on an in-order core we
    // still charge the full occupancy (blocking model), on a big core
    // the miss latency is overlapped.
    chargeRaw(scaleMem(r.lat, r.hit), cat);
    ++stats.memOps;
    ++instCounter;
}

uint64_t
Core::amo(mem::AmoOp op, Addr a, uint64_t operand, uint32_t len,
          TimeCat cat)
{
    panic_if(op == mem::AmoOp::Cas, "use cas()/amoCas() for CAS");
    syncPoint();
    uint64_t old = 0;
    auto r = sys.mem().amo(_id, time, op, a, operand, 0, len, old);
    chargeRaw(scaleMem(r.lat, r.hit), cat);
    ++stats.memOps;
    ++instCounter;
    return old;
}

bool
Core::cas(Addr a, uint64_t expect, uint64_t desire, uint32_t len,
          TimeCat cat)
{
    syncPoint();
    uint64_t old = 0;
    auto r = sys.mem().amo(_id, time, mem::AmoOp::Cas, a, desire,
                           expect, len, old);
    chargeRaw(scaleMem(r.lat, r.hit), cat);
    ++stats.memOps;
    ++instCounter;
    return old == expect;
}

void
Core::cacheInvalidate()
{
    syncPoint();
    auto r = sys.mem().cacheInvalidate(_id, time);
    if (BT_TRACE_ON(sys.tracer(), trace::CatMem))
        sys.tracer()->complete(trace::CatMem, _id, time, time + r.lat,
                               "cache-invalidate", "lat", r.lat);
    chargeRaw(r.lat, TimeCat::Flush);
    ++instCounter;
}

void
Core::cacheFlush()
{
    syncPoint();
    auto r = sys.mem().cacheFlush(_id, time);
    if (BT_TRACE_ON(sys.tracer(), trace::CatMem))
        sys.tracer()->complete(trace::CatMem, _id, time, time + r.lat,
                               "cache-flush", "lat", r.lat);
    chargeRaw(r.lat, TimeCat::Flush);
    ++instCounter;
}

Core::UliResp
Core::uliSendReqAndWait(CoreId victim, uint64_t payload)
{
    panic_if(victim == _id, "ULI to self");
    syncPoint();
    sys.uliNet().sendReq(_id, victim, payload, time);
    chargeRaw(1, TimeCat::Sync);
    ++instCounter;
    // Poll every 2 cycles until the response lands. Servicing our own
    // incoming ULIs (pollUli at each poll) avoids thief/thief
    // deadlock; uliWaitStep skips the polls that would see nothing.
    while (!uliUnit.respReady) {
        ++waitSteps;
        chargeRaw(2, TimeCat::Sync);
        sys.uliWaitStep(*this);
    }
    uliUnit.respReady = false;
    return {uliUnit.respAck, uliUnit.respPayload};
}

void
Core::uliSendResp(CoreId thief, bool ack, uint64_t payload)
{
    syncPoint();
    sys.uliNet().sendResp(_id, thief, ack, payload, time);
    chargeRaw(1, TimeCat::Sync);
    ++instCounter;
}

void
Core::deliverUli()
{
    panic_if(!uliUnit.handler, "ULI delivered with no handler");
    uliUnit.inHandler = true;
    uliUnit.reqPending = false;
    CoreId sender = uliUnit.reqSender;
    uint64_t payload = uliUnit.reqPayload;
    // Pipeline drain before vectoring to the handler (paper: a few
    // cycles on tiny cores, 10-50 on big cores).
    Cycle drain = _kind == CoreKind::Big ? sys.config().uliDrainBig
                                         : sys.config().uliDrainTiny;
    chargeRaw(drain, TimeCat::Sync);
    Cycle h0 = time;
    uliUnit.handler(sender, payload);
    sys.uliNet().stats.handlerCycles += time - h0;
    if (BT_TRACE_ON(sys.tracer(), trace::CatUli))
        sys.tracer()->complete(trace::CatUli, _id, h0, time,
                               "uli-handler", "sender",
                               static_cast<uint64_t>(sender),
                               "payload", payload);
    uliUnit.inHandler = false;
}

} // namespace bigtiny::sim
