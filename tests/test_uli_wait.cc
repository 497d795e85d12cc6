/**
 * @file
 * Tests for event-driven ULI waits (DESIGN.md §12.1).
 *
 * A thief waiting for a ULI response parks in the scheduler instead of
 * polling every 2 cycles; events that could change what the wait sees
 * wake it at the poll where the polling loop would first have seen the
 * change. The model must be unchanged, bit for bit, so the artifacts
 * below were captured with the polling loop and are pinned by digest
 * (tests/golden/uli_wait.sha256):
 *
 *  - stats and trace of cilk5-nq on bt-hcc-dnv-dts (a DTS config the
 *    hot-path goldens do not cover);
 *  - the interval-sampler time series of cilk5-nq on bt-hcc-gwb-dts
 *    (sample boundaries land inside waits);
 *  - a uli-delay-resp + sim-stall-core run, completed and cut by the
 *    cycle budget (verdict, FailureReport, stats with the report):
 *    the stall lands on a parked thief, and the report lists parked
 *    cores at the polls the loop would have reached.
 *
 * Each artifact is regenerated in-process exactly as tools/btsim
 * writes it.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "apps/registry.hh"
#include "bench/driver.hh"
#include "common/sha256.hh"
#include "core/worker.hh"
#include "fault/fault.hh"
#include "sim/system.hh"
#include "trace/exporter.hh"
#include "trace/trace.hh"

using namespace bigtiny;

namespace
{

std::map<std::string, std::string>
loadPins()
{
    std::ifstream in(std::string(BIGTINY_SOURCE_DIR) +
                     "/tests/golden/uli_wait.sha256");
    std::map<std::string, std::string> m;
    std::string digest, name;
    while (in >> digest >> name)
        m[name] = digest;
    return m;
}

/** What one btsim invocation writes. */
struct Artifacts
{
    std::string stats, trace, timeseries, report;
};

/**
 * Run cilk5-nq (n=7, grain=2) on @p config like `btsim` with the
 * given fault spec, cycle budget, trace categories and sample period.
 */
Artifacts
runNq(const char *config, const std::string &faults, Cycle max_cycles,
      const char *trace_categories, Cycle sample_cycles)
{
    bench::RunSpec spec =
        bench::RunSpec::forApp("cilk5-nq").config(config).n(7).grain(2);
    sim::SystemConfig cfg = sim::configByName(spec.configName);
    if (!faults.empty())
        cfg.faults = fault::FaultPlan::parse(faults);
    if (max_cycles)
        cfg.watchdogCycles = max_cycles;
    if (trace_categories)
        cfg.traceCategories = trace::parseCategories(trace_categories);
    cfg.sampleCycles = sample_cycles;

    sim::System sys(cfg);
    auto app = apps::makeApp(spec.app, spec.params);
    app->setup(sys);
    rt::Runtime runtime(sys);
    Artifacts a;
    std::ostringstream stats;
    try {
        runtime.run([&](rt::Worker &w) { app->runParallel(w); });
        sys.mem().drainAll();
        trace::writeRunStatsJson(stats, sys, &runtime, app->validate(sys),
                                 nullptr);
    } catch (const fault::SimFailure &f) {
        trace::writeRunStatsJson(stats, sys, &runtime, false,
                                 &f.report());
        a.report = f.report().render();
    }
    a.stats = stats.str();
    if (sys.tracer()) {
        std::ostringstream tr;
        sys.tracer()->writeJson(tr);
        a.trace = tr.str();
    }
    if (sys.sampler()) {
        std::ostringstream ts;
        sys.sampler()->writeCsv(ts);
        a.timeseries = ts.str();
    }
    return a;
}

const char *kDelayStall = "uli-delay-resp@1=30000,sim-stall-core=8:10001:5000";

} // namespace

TEST(UliWaitPins, DnvDtsStatsAndTraceByteIdentical)
{
    auto pins = loadPins();
    ASSERT_EQ(pins.size(), 6u) << "tests/golden/uli_wait.sha256 missing";
    Artifacts a = runNq("bt-hcc-dnv-dts", "", 0, "task,steal,uli", 0);
    EXPECT_EQ(common::sha256Hex(a.stats),
              pins["cilk5_nq_bt_hcc_dnv_dts.stats.json"]);
    EXPECT_EQ(common::sha256Hex(a.trace),
              pins["cilk5_nq_bt_hcc_dnv_dts.trace.json"]);
}

TEST(UliWaitPins, GwbDtsTimeSeriesByteIdentical)
{
    auto pins = loadPins();
    Artifacts a = runNq("bt-hcc-gwb-dts", "", 0, nullptr, 250);
    EXPECT_EQ(common::sha256Hex(a.timeseries),
              pins["cilk5_nq_bt_hcc_gwb_dts.timeseries.csv"]);
}

TEST(UliWaitPins, DelayedResponseAndStallByteIdentical)
{
    auto pins = loadPins();
    Artifacts ok = runNq("bt-hcc-gwb-dts", kDelayStall, 0, nullptr, 0);
    EXPECT_TRUE(ok.report.empty()) << ok.report;
    EXPECT_EQ(common::sha256Hex(ok.stats), pins["delay_stall.stats.json"]);

    // Cut by the cycle budget while thieves are parked mid-wait.
    Artifacts cut = runNq("bt-hcc-gwb-dts", kDelayStall, 5000, nullptr, 0);
    EXPECT_NE(cut.report.find("simulation failure: cycle-budget"),
              std::string::npos);
    EXPECT_EQ(common::sha256Hex(cut.report),
              pins["delay_stall_budget.report.txt"])
        << cut.report;
    EXPECT_EQ(common::sha256Hex(cut.stats),
              pins["delay_stall_budget.stats.json"]);
}

// A thief waiting out a 10,000-cycle delayed response used to take one
// scheduler round trip per 2-cycle poll (~5,000). Parked, it is resumed
// only at ready-wheel horizons and by the response itself — and still
// resumes on the polling grid, with the whole wait charged as Sync.
TEST(UliWait, LongDelayResumesBoundedTimes)
{
    sim::SystemConfig cfg;
    cfg.name = "uli-wait";
    cfg.meshRows = 1;
    cfg.meshCols = 2;
    cfg.cores.assign(2, sim::CoreKind::Tiny);
    cfg.tinyProtocol = sim::Protocol::GpuWB;
    cfg.dts = true;
    cfg.faults = fault::FaultPlan::parse("uli-delay-resp@1=10000");
    sim::System sys(cfg);

    sys.attachGuest(1, [&](sim::Core &c) {
        c.uliSetHandler([&](CoreId s, uint64_t p) {
            c.uliSendResp(s, true, p + 1);
        });
        c.uliEnable();
        c.work(20000);
    });
    sim::Core::UliResp resp{false, 0};
    Cycle sent = 0, back = 0;
    uint64_t sync_before = 0, sync_after = 0;
    sys.attachGuest(0, [&](sim::Core &c) {
        c.work(100);
        sent = c.now();
        sync_before = c.stats.timeByCat[static_cast<size_t>(
            sim::TimeCat::Sync)];
        resp = c.uliSendReqAndWait(1, 41);
        back = c.now();
        sync_after = c.stats.timeByCat[static_cast<size_t>(
            sim::TimeCat::Sync)];
    });
    sys.run();

    EXPECT_TRUE(resp.ack);
    EXPECT_EQ(resp.payload, 42u);
    EXPECT_GE(back - sent, 10000u);
    // One cycle to send, then 2-cycle polls.
    EXPECT_EQ((back - sent - 1) % 2, 0u);
    EXPECT_EQ(sync_after - sync_before, back - sent);
    const uint64_t steps = sys.core(0).uliWaitSteps();
    EXPECT_GE(steps, 1u);
    EXPECT_LE(steps, 16u) << "wait steps: " << steps;
}
