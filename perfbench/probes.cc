#include "probes.hh"

#include <algorithm>

#include "common/rng.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/ready_queue.hh"
#include "sim/system.hh"

using namespace bigtiny;

namespace perfbench
{

namespace
{

constexpr int batches = 7;

/** Median over the batches of ns per op; @p batch runs @p ops ops. */
template <typename Fn>
double
nsPerOp(int ops, Fn &&batch)
{
    std::vector<double> per;
    for (int b = 0; b < batches; ++b) {
        auto t0 = Clock::now();
        batch();
        per.push_back(secondsSince(t0) * 1e9 / ops);
    }
    return median(per);
}

/**
 * Median over the batches of the ns per op of only the timed part of
 * each op: @p prepare runs untimed, @p timed is bracketed by clock
 * reads, and the cost of an empty bracket is subtracted.
 */
template <typename Prep, typename Fn>
double
nsPerTimedCall(int ops, Prep &&prepare, Fn &&timed)
{
    auto bracket = [&](auto &&body) {
        std::vector<double> per;
        for (int b = 0; b < batches; ++b) {
            Clock::duration sum{};
            for (int i = 0; i < ops; ++i) {
                prepare();
                auto t0 = Clock::now();
                body();
                sum += Clock::now() - t0;
            }
            per.push_back(
                std::chrono::duration<double, std::nano>(sum).count() /
                ops);
        }
        return median(per);
    };
    const double empty = bracket([] {});
    return std::max(0.0, bracket(timed) - empty);
}

CoreId
firstTinyCore(const sim::SystemConfig &cfg)
{
    for (size_t c = 0; c < cfg.cores.size(); ++c) {
        if (cfg.cores[c] == sim::CoreKind::Tiny)
            return static_cast<CoreId>(c);
    }
    return 0;
}

} // namespace

MemProbe
probeMem(const sim::SystemConfig &cfg, SpanLog &log)
{
    ScopedSpan whole(log, "probe.mem." + cfg.name);
    sim::System sys(cfg);
    mem::MemorySystem &ms = sys.mem();
    const CoreId c = firstTinyCore(cfg);
    const sim::CacheStats &st = ms.l1(c).stats;
    const uint32_t l1Lines = cfg.l1BytesOf(c) / lineBytes;

    const Addr hot = sys.arena().allocLines(4 * lineBytes);
    // Four times the L1: a sequential walk evicts every line before
    // it comes round again, so each load misses the L1 and, after the
    // first pass, hits the L2.
    const Addr walk = sys.arena().allocLines(4ull * l1Lines * lineBytes);
    const Addr scratch = sys.arena().allocLines(8 * lineBytes);

    Cycle now = 0;
    uint64_t val = 0;
    auto load = [&](Addr a) { now += ms.load(c, now, a, &val, 8).lat; };
    auto store = [&](Addr a) {
        ++val;
        now += ms.store(c, now, a, &val, 8).lat;
    };
    auto hotAddr = [&](int i) {
        return hot + static_cast<Addr>(i & 3) * lineBytes +
            static_cast<Addr>((i >> 2) & 7) * 8;
    };

    MemProbe p;
    constexpr int ops = 1 << 15;
    {
        ScopedSpan s(log, "probe.mem.load_hit");
        for (int i = 0; i < 4; ++i)
            load(hotAddr(i));
        const uint64_t missesBefore = st.loadMisses;
        p.loadHitNs = nsPerOp(ops, [&] {
            for (int i = 0; i < ops; ++i)
                load(hotAddr(i));
        });
        p.pathsAsLabelled &= st.loadMisses == missesBefore;
    }
    {
        ScopedSpan s(log, "probe.mem.load_miss");
        const uint64_t walkLines = 4ull * l1Lines;
        for (uint64_t l = 0; l < walkLines; ++l)
            load(walk + l * lineBytes);
        const uint64_t missesBefore = st.loadMisses;
        uint64_t next = 0;
        p.loadMissNs = nsPerOp(ops, [&] {
            for (int i = 0; i < ops; ++i) {
                load(walk + next * lineBytes);
                next = next + 1 == walkLines ? 0 : next + 1;
            }
        });
        p.pathsAsLabelled &=
            st.loadMisses - missesBefore ==
            static_cast<uint64_t>(ops) * batches;
    }
    {
        ScopedSpan s(log, "probe.mem.store");
        p.storeNs = nsPerOp(ops, [&] {
            for (int i = 0; i < ops; ++i)
                store(hotAddr(i));
        });
    }
    {
        ScopedSpan s(log, "probe.mem.amo");
        uint64_t old = 0;
        p.amoNs = nsPerOp(ops, [&] {
            for (int i = 0; i < ops; ++i)
                now += ms.amo(c, now, mem::AmoOp::Add, hot, 1, 0, 8, old)
                           .lat;
        });
    }
    constexpr int calls = 1 << 11;
    {
        ScopedSpan s(log, "probe.mem.invalidate");
        p.invalidateNs = nsPerTimedCall(
            calls,
            [&] {
                for (int l = 0; l < 8; ++l)
                    load(scratch + static_cast<Addr>(l) * lineBytes);
            },
            [&] { now += ms.cacheInvalidate(c, now).lat; });
    }
    {
        ScopedSpan s(log, "probe.mem.flush");
        p.flushNs = nsPerTimedCall(
            calls,
            [&] {
                for (int l = 0; l < 8; ++l)
                    store(scratch + static_cast<Addr>(l) * lineBytes);
            },
            [&] { now += ms.cacheFlush(c, now).lat; });
    }
    return p;
}

double
probeReadyQueue(int cores, SpanLog &log)
{
    ScopedSpan s(log, "probe.sim.ready_queue");
    sim::ReadyQueue q;
    q.init(cores);
    for (int i = 0; i < cores; ++i)
        q.insert(i, static_cast<Cycle>(i % 64));
    Rng rng(1);
    constexpr int ops = 1 << 16;
    // The scheduler's pattern: the earliest core runs, advances by a
    // work quantum or a memory latency, and is queued again.
    return nsPerOp(ops, [&] {
        for (int i = 0; i < ops; ++i) {
            auto [t, id] = q.popMin();
            q.insert(id, t + 1 + rng.nextBounded(48));
        }
    });
}

double
probeEventWheel(SpanLog &log)
{
    ScopedSpan s(log, "probe.sim.event_wheel");
    sim::EventQueue eq;
    Cycle now = 0;
    uint64_t fired = 0;
    constexpr int ops = 1 << 16;
    return nsPerOp(ops, [&] {
        for (int i = 0; i < ops; ++i) {
            eq.schedule(now + 1 + static_cast<Cycle>(i * 7 % 29),
                        [&fired] { ++fired; });
            eq.runDue(now);
            ++now;
        }
    });
}

double
probeFiberSwitch(SpanLog &log)
{
    ScopedSpan s(log, "probe.sim.fiber_switch");
    constexpr int ops = 1 << 15;
    sim::Fiber f([] {
        for (int i = 0; i < ops * batches; ++i)
            sim::Fiber::primary()->run();
    });
    const double pingPong = nsPerOp(ops, [&] {
        for (int i = 0; i < ops; ++i)
            f.run();
    });
    f.run(); // let the entry function return
    return pingPong / 2;
}

} // namespace perfbench
