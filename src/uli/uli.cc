#include "uli/uli.hh"

#include <cstdlib>

#include "common/log.hh"
#include "sim/system.hh"

namespace bigtiny::uli
{

uint32_t
UliNetwork::hops(CoreId a, CoreId b) const
{
    const auto &cfg = sys.config();
    int ar = a / cfg.meshCols, ac = a % cfg.meshCols;
    int br = b / cfg.meshCols, bc = b % cfg.meshCols;
    return static_cast<uint32_t>(std::abs(ar - br) + std::abs(ac - bc));
}

Cycle
UliNetwork::flightLat(CoreId a, CoreId b) const
{
    // +1 for the receiver-side delivery/ejection cycle; the hop count
    // itself must come from hops(), not back-derived from this (the
    // stats were off by one whenever uliHopLat == 1).
    return static_cast<Cycle>(hops(a, b)) * sys.config().uliHopLat + 1;
}

void
UliNetwork::traceInflight(int delta, Cycle at)
{
    // Tracing-only bookkeeping: the counter tracks messages physically
    // in the mesh (dropped-by-fault messages never enter it).
    inflight += static_cast<uint64_t>(delta);
    sys.tracer()->counter(trace::CatUli, sys.networkTrack(), at,
                          "uli-inflight", inflight);
}

void
UliNetwork::sendReq(CoreId sender, CoreId victim, uint64_t payload,
                    Cycle now)
{
    ++stats.reqs;
    stats.hopTraversals += hops(sender, victim);
    Cycle arrival = now + flightLat(sender, victim);

    auto &inj = sys.injector();
    int copies = 1;
    if (inj.armed(fault::FaultSite::UliDropReq) &&
        inj.fire(fault::FaultSite::UliDropReq, sender, now,
                 static_cast<uint64_t>(victim)))
        return; // the request vanishes in the mesh
    if (inj.armed(fault::FaultSite::UliDelayReq)) {
        if (const auto *r = inj.fire(fault::FaultSite::UliDelayReq,
                                     sender, now,
                                     static_cast<uint64_t>(victim)))
            arrival += r->args[0] ? r->args[0] : 10000;
    }
    if (inj.armed(fault::FaultSite::UliDupReq) &&
        inj.fire(fault::FaultSite::UliDupReq, sender, now,
                 static_cast<uint64_t>(victim)))
        copies = 2;

    bool tracing = BT_TRACE_ON(sys.tracer(), trace::CatUli);
    if (tracing) {
        sys.tracer()->instant(trace::CatUli, sender, now, "uli-req",
                              "victim", static_cast<uint64_t>(victim),
                              "payload", payload);
        traceInflight(copies, now);
    }
    auto deliver = [this, sender, victim, payload, arrival, tracing] {
        if (tracing)
            traceInflight(-1, arrival);
        sim::Core &v = sys.core(victim);
        bool deliverable = !v.done && v.uliUnit.enabled &&
                           !v.uliUnit.reqPending && !v.uliUnit.inHandler;
        if (!deliverable) {
            if (tracing)
                sys.tracer()->instant(
                    trace::CatUli, victim, arrival, "uli-req-nack",
                    "thief", static_cast<uint64_t>(sender));
            // Hardware-generated NACK; no software involvement.
            sendResp(victim, sender, false, 0, arrival);
            return;
        }
        if (tracing)
            sys.tracer()->instant(trace::CatUli, victim, arrival,
                                  "uli-req-arrive", "thief",
                                  static_cast<uint64_t>(sender),
                                  "payload", payload);
        v.uliUnit.reqPending = true;
        v.uliUnit.reqSender = sender;
        v.uliUnit.reqPayload = payload;
        sys.wakeParked(v); // a waiting victim serves it at its next poll
    };
    for (int i = 0; i < copies; ++i)
        sys.events().schedule(arrival, deliver);
}

void
UliNetwork::sendResp(CoreId sender, CoreId thief, bool ack,
                     uint64_t payload, Cycle now)
{
    ++stats.resps;
    if (ack)
        ++stats.acks;
    else
        ++stats.nacks;
    stats.hopTraversals += hops(sender, thief);
    Cycle arrival = now + flightLat(sender, thief);

    auto &inj = sys.injector();
    int copies = 1;
    if (inj.armed(fault::FaultSite::UliDropResp) &&
        inj.fire(fault::FaultSite::UliDropResp, sender, now,
                 static_cast<uint64_t>(thief)))
        return; // the response vanishes; the thief spins forever
    if (inj.armed(fault::FaultSite::UliDelayResp)) {
        if (const auto *r = inj.fire(fault::FaultSite::UliDelayResp,
                                     sender, now,
                                     static_cast<uint64_t>(thief)))
            arrival += r->args[0] ? r->args[0] : 10000;
    }
    if (inj.armed(fault::FaultSite::UliDupResp) &&
        inj.fire(fault::FaultSite::UliDupResp, sender, now,
                 static_cast<uint64_t>(thief)))
        copies = 2;

    bool tracing = BT_TRACE_ON(sys.tracer(), trace::CatUli);
    if (tracing) {
        sys.tracer()->instant(trace::CatUli, sender, now, "uli-resp",
                              "thief", static_cast<uint64_t>(thief),
                              "ack", ack ? 1 : 0);
        traceInflight(copies, now);
    }
    auto deliver = [this, thief, ack, payload, arrival, tracing] {
        if (tracing) {
            traceInflight(-1, arrival);
            sys.tracer()->instant(trace::CatUli, thief, arrival,
                                  "uli-resp-arrive", "ack",
                                  ack ? 1 : 0, "payload", payload);
        }
        sim::Core &t = sys.core(thief);
        sys.wakeParked(t);
        if (t.uliUnit.respReady)
            sys.raiseFailure(
                fault::Verdict::UliProtocol,
                fault::format("ULI response buffer overrun on core %d",
                              thief));
        t.uliUnit.respReady = true;
        t.uliUnit.respAck = ack;
        t.uliUnit.respPayload = payload;
    };
    for (int i = 0; i < copies; ++i)
        sys.events().schedule(arrival, deliver);
}

} // namespace bigtiny::uli
