/**
 * @file
 * Host-throughput benchmark of the BigTiny simulator.
 *
 *   perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
 *             [--out=DIR] [--git-sha=SHA] [--src-digest=HEX]
 *
 * Runs one workload's simulations sequentially on one host thread,
 * straight through the library (never a result cache, never sweep
 * threads), and times its own calls into each layer. Host time is
 * reported as measured; simulated statistics are reported as exact
 * counts so that two builds compare exactly.
 *
 * --trace=0 repeats the workload for about --seconds and reports the
 * end-to-end metrics (medians over the repetitions). --trace=1 runs
 * the per-layer probes on the workload's own configurations, one
 * traced repetition between two untraced ones, and cross-checks every
 * simulation against bench::runOne; it reports the per-layer metrics
 * and the tracing overhead. Either way the last line of stdout is one
 * JSON object {correct, attempted, failed, metrics}. See README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hh"
#include "bench/driver.hh"
#include "common/cli.hh"
#include "core/runtime.hh"
#include "fault/failure.hh"
#include "probes.hh"
#include "sim/system.hh"
#include "timing.hh"

using namespace bigtiny;
using perfbench::Clock;
using perfbench::median;
using perfbench::ScopedSpan;
using perfbench::secondsSince;
using perfbench::SpanLog;

namespace
{

/** mm-mesi64's simulated cycles at the default seed; the value every
 *  BENCH_hotpath.json entry records for the same run. */
constexpr uint64_t mmMesi64Cycles = 14273516;

/** One simulation of a workload. */
struct SimRun
{
    std::string app;
    std::string config;
    apps::AppParams params;
    std::string steal;      //!< steal policy; "" = runtime default
    bool lifecycle = false; //!< LifecycleTracker on (as in sweeps)
};

struct Workload
{
    std::string name;
    std::vector<SimRun> runs;
};

std::optional<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    Workload w{name, {}};
    if (name == "mm-mesi64") {
        w.runs.push_back({"cilk5-mm", "bt-mesi",
                          cli::benchParams("cilk5-mm"), "", false});
    } else if (name == "steal1024") {
        const std::string mesh = "bt-0b1024t@32x32/clusters=4x4";
        w.runs.push_back(
            {"cilk5-mt", mesh + "/proto=gwb", {}, "hier", false});
        w.runs.push_back(
            {"cilk5-nq", mesh + "/proto=mesi", {}, "random", false});
    } else if (name == "hcc-mix") {
        for (const char *app :
             {"cilk5-cs", "cilk5-lu", "ligra-bfs", "ligra-mis"}) {
            for (const char *cfg : {"bt-hcc-dnv-dts", "bt-hcc-gwt",
                                    "bt-hcc-gwb", "bt-hcc-gwb-dts"}) {
                w.runs.push_back(
                    {app, cfg, cli::benchParams(app, 1.0), "", true});
            }
        }
    } else {
        return std::nullopt;
    }
    for (auto &r : w.runs)
        r.params.seed = seed;
    return w;
}

/** Deterministic simulated statistics of one or more simulations. */
struct Counts
{
    uint64_t cycles = 0;
    uint64_t tasks = 0;
    uint64_t steals = 0;
    uint64_t stealAttempts = 0;
    uint64_t l1Accesses = 0;
    uint64_t l1Misses = 0;
    uint64_t l2Misses = 0;
    uint64_t dramAccesses = 0;
    uint64_t invLines = 0;
    uint64_t flushLines = 0;
    uint64_t nocBytes = 0;
    uint64_t nocMsgs = 0;
    uint64_t uliReqs = 0;
    uint64_t uliNacks = 0;
    uint64_t tasksTracked = 0;

    bool operator==(const Counts &) const = default;

    void
    add(const Counts &o)
    {
        cycles += o.cycles;
        tasks += o.tasks;
        steals += o.steals;
        stealAttempts += o.stealAttempts;
        l1Accesses += o.l1Accesses;
        l1Misses += o.l1Misses;
        l2Misses += o.l2Misses;
        dramAccesses += o.dramAccesses;
        invLines += o.invLines;
        flushLines += o.flushLines;
        nocBytes += o.nocBytes;
        nocMsgs += o.nocMsgs;
        uliReqs += o.uliReqs;
        uliNacks += o.uliNacks;
        tasksTracked += o.tasksTracked;
    }

    /** (name, value) pairs in print order. */
    std::vector<std::pair<const char *, uint64_t>>
    named() const
    {
        return {{"sim.cycles", cycles},
                {"core.tasks", tasks},
                {"core.steals", steals},
                {"core.steal_attempts", stealAttempts},
                {"mem.l1_accesses", l1Accesses},
                {"mem.l1_misses", l1Misses},
                {"mem.l2_misses", l2Misses},
                {"mem.dram_accesses", dramAccesses},
                {"mem.inv_lines", invLines},
                {"mem.flush_lines", flushLines},
                {"mem.noc_bytes", nocBytes},
                {"mem.noc_msgs", nocMsgs},
                {"uli.reqs", uliReqs},
                {"uli.nacks", uliNacks},
                {"trace.tasks_tracked", tasksTracked}};
    }
};

/** Host seconds in each layer call of one or more simulations. */
struct Phases
{
    double construct = 0; //!< sim::System constructor
    double setup = 0;     //!< apps::makeApp + App::setup
    double run = 0;       //!< rt::Runtime::run
    double drain = 0;     //!< MemorySystem::drainAll
    double validate = 0;  //!< App::validate

    void
    add(const Phases &o)
    {
        construct += o.construct;
        setup += o.setup;
        run += o.run;
        drain += o.drain;
        validate += o.validate;
    }
};

template <typename Fn>
double
timed(SpanLog &log, const char *name, int run, Fn &&fn)
{
    ScopedSpan s(log, name, run);
    auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

bool
hasTinyCore(const sim::SystemConfig &cfg)
{
    return std::find(cfg.cores.begin(), cfg.cores.end(),
                     sim::CoreKind::Tiny) != cfg.cores.end();
}

sim::SystemConfig
configOf(const SimRun &r)
{
    sim::SystemConfig cfg = sim::configByName(r.config);
    cfg.trackLifecycle = r.lifecycle;
    return cfg;
}

struct Outcome
{
    Counts counts;
    Phases t;
    double wall = 0; //!< the whole simulation, destruction included
    bool ok = false;
};

/**
 * One simulation, step for step as bench::runOne does it, with each
 * layer call timed: construct, setup, run, collect, drain, validate.
 */
Outcome
runTimed(const SimRun &r, SpanLog &log, int id)
{
    ScopedSpan whole(log, "run " + r.app + "@" + r.config, id);
    Outcome o;
    const sim::SystemConfig cfg = configOf(r);
    try {
        std::optional<sim::System> sys;
        std::unique_ptr<apps::App> app;
        o.t.construct =
            timed(log, "sim.construct", id, [&] { sys.emplace(cfg); });
        o.t.setup = timed(log, "apps.setup", id, [&] {
            app = apps::makeApp(r.app, r.params);
            app->setup(*sys);
        });
        std::optional<rt::Runtime> runtime;
        timed(log, "core.init", id, [&] {
            runtime.emplace(*sys);
            if (!r.steal.empty())
                runtime->setStealPolicy(r.steal);
        });
        o.t.run = timed(log, "core.run", id, [&] {
            runtime->run([&](rt::Worker &w) { app->runParallel(w); });
        });

        Counts &c = o.counts;
        c.cycles = sys->elapsed();
        c.tasks = runtime->profiler.numTasks();
        const sim::RuntimeStats rs = runtime->totalStats();
        c.steals = rs.tasksStolen;
        c.stealAttempts = rs.stealAttempts;
        const sim::CacheStats cache =
            sys->aggregateCacheStats(hasTinyCore(cfg));
        c.l1Accesses = cache.accesses();
        c.l1Misses = cache.misses();
        c.invLines = cache.invLines;
        c.flushLines = cache.flushLines;
        c.l2Misses = sys->mem().l2().misses;
        c.dramAccesses = sys->mem().dram().accesses();
        const sim::NocStats &noc = sys->mem().noc().stats();
        c.nocBytes = noc.totalBytes();
        for (auto m : noc.msgs)
            c.nocMsgs += m;
        c.uliReqs = sys->uliNet().stats.reqs;
        c.uliNacks = sys->uliNet().stats.nacks;
        if (auto *lt = runtime->lifecycle())
            c.tasksTracked = lt->numTasks();

        o.t.drain = timed(log, "mem.drain", id,
                          [&] { sys->mem().drainAll(); });
        o.t.validate = timed(log, "apps.validate", id,
                             [&] { o.ok = app->validate(*sys); });
        if (!o.ok)
            std::fprintf(stderr, "perfbench: %s on %s failed validation\n",
                         r.app.c_str(), r.config.c_str());
    } catch (const fault::SimFailure &f) {
        std::fprintf(stderr, "perfbench: %s on %s failed: %s\n",
                     r.app.c_str(), r.config.c_str(), f.what());
        o.ok = false;
    }
    return o;
}

/** One pass over every simulation of a workload. */
struct Rep
{
    std::vector<Outcome> runs;
    Counts counts; //!< summed over runs
    Phases t;      //!< summed over runs
    double wall = 0;
    int failed = 0;

    std::vector<Counts>
    perRunCounts() const
    {
        std::vector<Counts> v;
        for (const Outcome &o : runs)
            v.push_back(o.counts);
        return v;
    }
};

Rep
runRep(const Workload &w, SpanLog &log, int &nextId)
{
    ScopedSpan s(log, "rep " + w.name);
    Rep rep;
    auto t0 = Clock::now();
    for (const SimRun &r : w.runs) {
        auto t1 = Clock::now();
        Outcome o = runTimed(r, log, nextId++);
        o.wall = secondsSince(t1);
        rep.counts.add(o.counts);
        rep.t.add(o.t);
        rep.failed += o.ok ? 0 : 1;
        rep.runs.push_back(o);
    }
    rep.wall = secondsSince(t0);
    return rep;
}

/** Per simulation: host seconds to construct its System and set up
 *  its app. */
std::vector<double>
setupOnce(const Workload &w)
{
    std::vector<double> secs;
    for (const SimRun &r : w.runs) {
        const sim::SystemConfig cfg = configOf(r);
        auto t0 = Clock::now();
        sim::System sys(cfg);
        auto app = apps::makeApp(r.app, r.params);
        app->setup(sys);
        secs.push_back(secondsSince(t0));
    }
    return secs;
}

double
ratio(uint64_t num, uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** A JSON number; null for the NaN or infinity of a failed run. */
std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string s = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
        s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
            jsonNum(ms[i].value) + ", \"unit\": \"" + ms[i].unit +
            "\"}";
    }
    return s + "}";
}

/** Build identity, so results from different builds are never mixed. */
std::string
provenanceJson(const cli::Flags &flags)
{
    std::string s = "{\"git_sha\": \"" + flags.get("git-sha", "none") +
        "\", \"src_digest\": \"" + flags.get("src-digest", "none") +
        "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"lto\": " +
        (PERFBENCH_LTO ? "true" : "false") +
        ", \"compiler\": \"" __VERSION__ "\", \"nproc\": " +
        std::to_string(std::thread::hardware_concurrency()) + "}";
    return s;
}

struct Result
{
    bool correct = true;
    int attempted = 0;
    int failed = 0;
    std::vector<Metric> metrics;
    Counts counts; //!< one repetition's exact counts
    std::vector<std::pair<std::string, std::vector<double>>> samples;
};

/** Every repetition must reproduce the first one's counts exactly. */
bool
sameCounts(const std::vector<Rep> &reps)
{
    for (const Rep &r : reps) {
        if (r.perRunCounts() != reps.front().perRunCounts()) {
            std::fprintf(stderr, "perfbench: repetitions disagree on "
                                 "simulated counts\n");
            return false;
        }
    }
    return true;
}

/**
 * Sum over a workload's simulations of each one's median over the
 * repetitions: a burst of host noise during one simulation of one
 * repetition does not move the total.
 */
template <typename Field>
double
sumOfMedians(const std::vector<Rep> &reps, Field field)
{
    double total = 0;
    for (size_t i = 0; i < reps.front().runs.size(); ++i) {
        std::vector<double> v;
        for (const Rep &r : reps)
            v.push_back(field(r.runs[i]));
        total += median(v);
    }
    return total;
}

Result
runEndToEnd(const Workload &w, double seconds)
{
    constexpr int setupSamples = 3;
    Result res;
    SpanLog off(false);

    // Set-up alone, a few times; each repetition below adds a sample.
    // Both count towards the run's --seconds.
    auto t0 = Clock::now();
    std::vector<std::vector<double>> setups(w.runs.size());
    for (int k = 0; k < setupSamples; ++k) {
        const std::vector<double> once = setupOnce(w);
        for (size_t i = 0; i < once.size(); ++i)
            setups[i].push_back(once[i]);
    }

    std::vector<Rep> reps;
    int nextId = 0;
    do {
        reps.push_back(runRep(w, off, nextId));
    } while (secondsSince(t0) + reps.back().wall <= seconds);

    std::vector<double> repRate, repWall;
    for (const Rep &r : reps) {
        repRate.push_back(static_cast<double>(r.counts.cycles) / r.t.run);
        repWall.push_back(r.wall);
        for (size_t i = 0; i < r.runs.size(); ++i)
            setups[i].push_back(r.runs[i].t.construct + r.runs[i].t.setup);
        res.failed += r.failed;
    }
    double setup = 0;
    for (const std::vector<double> &v : setups)
        setup += median(v);
    const double runS =
        sumOfMedians(reps, [](const Outcome &o) { return o.t.run; });

    res.attempted = static_cast<int>(reps.size() * w.runs.size());
    res.correct = res.failed == 0 && sameCounts(reps);
    res.counts = reps.front().counts;
    res.metrics = {
        {"sim_cycles_per_s", static_cast<double>(res.counts.cycles) / runS,
         "cycles/s"},
        {"wall_s",
         sumOfMedians(reps, [](const Outcome &o) { return o.wall; }),
         "s"},
        {"setup_s", setup, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"pass_rate",
         1.0 - static_cast<double>(res.failed) / res.attempted,
         "ratio"},
    };
    res.samples = {{"rep_sim_cycles_per_s", repRate},
                   {"rep_wall_s", repWall}};
    return res;
}

/** bench::runOne must reproduce every run's counts exactly. */
bool
matchesRunOne(const Workload &w, const std::vector<Counts> &perRun,
              SpanLog &log)
{
    bool same = true;
    for (size_t i = 0; i < w.runs.size(); ++i) {
        const SimRun &r = w.runs[i];
        ScopedSpan s(log, "bench.runOne", static_cast<int>(i));
        bench::RunSpec spec = bench::RunSpec::forApp(r.app);
        spec.config(r.config).steal(r.steal);
        spec.params = r.params;
        const bench::RunResult got = bench::runOne(spec);
        const Counts &c = perRun[i];
        const bool eq = got.valid && got.cycles == c.cycles &&
            got.tasks == c.tasks && got.steals == c.steals &&
            got.stealAttempts == c.stealAttempts &&
            got.l1Accesses == c.l1Accesses &&
            got.l1Misses == c.l1Misses && got.invLines == c.invLines &&
            got.flushLines == c.flushLines &&
            got.nocTotalBytes() == c.nocBytes &&
            got.uliReqs == c.uliReqs && got.uliNacks == c.uliNacks;
        if (!eq) {
            std::fprintf(stderr,
                         "perfbench: bench::runOne disagrees on %s@%s "
                         "(cycles %llu vs %llu)\n",
                         r.app.c_str(), r.config.c_str(),
                         (unsigned long long)got.cycles,
                         (unsigned long long)c.cycles);
        }
        same &= eq;
    }
    return same;
}

Result
runTraced(const Workload &w, SpanLog &log)
{
    Result res;
    SpanLog off(false);

    // Probes on the workload's own configurations, averaged over them.
    std::vector<std::string> configs;
    std::set<int> coreCounts;
    for (const SimRun &r : w.runs) {
        if (std::find(configs.begin(), configs.end(), r.config) ==
            configs.end())
            configs.push_back(r.config);
        coreCounts.insert(
            static_cast<int>(sim::configByName(r.config).cores.size()));
    }
    perfbench::MemProbe mp;
    for (const std::string &name : configs) {
        mp.add(perfbench::probeMem(sim::configByName(name), log),
               1.0 / configs.size());
    }
    double readyNs = 0;
    for (int n : coreCounts)
        readyNs += perfbench::probeReadyQueue(n, log) / coreCounts.size();
    const double wheelNs = perfbench::probeEventWheel(log);
    const double fiberNs = perfbench::probeFiberSwitch(log);

    // Untraced, traced, untraced: the overhead compares the traced
    // pass with the mean of its two untraced neighbours.
    int nextId = 0;
    std::vector<Rep> reps;
    reps.push_back(runRep(w, off, nextId));
    reps.push_back(runRep(w, log, nextId));
    reps.push_back(runRep(w, off, nextId));
    const Rep &tr = reps[1];
    const double untracedWall = 0.5 * (reps[0].wall + reps[2].wall);

    for (const Rep &r : reps)
        res.failed += r.failed;
    res.attempted = static_cast<int>(reps.size() * w.runs.size());
    res.correct = res.failed == 0 && sameCounts(reps) &&
        matchesRunOne(w, tr.perRunCounts(), log);
    if (!mp.pathsAsLabelled) {
        std::fprintf(stderr, "perfbench: memory probe hit/miss paths "
                             "not as labelled\n");
        res.correct = false;
    }
    res.counts = tr.counts;

    const Counts &c = tr.counts;
    res.metrics = {
        {"sim.cycles", static_cast<double>(c.cycles), "cycles"},
        {"sim.construct_s", tr.t.construct, "s"},
        {"sim.run_ns_per_cycle", tr.t.run * 1e9 / c.cycles, "ns/cycle"},
        {"sim.ready_queue_ns", readyNs, "ns"},
        {"sim.event_wheel_ns", wheelNs, "ns"},
        {"sim.fiber_switch_ns", fiberNs, "ns"},
        {"mem.load_hit_ns", mp.loadHitNs, "ns"},
        {"mem.load_miss_ns", mp.loadMissNs, "ns"},
        {"mem.store_ns", mp.storeNs, "ns"},
        {"mem.amo_ns", mp.amoNs, "ns"},
        {"mem.invalidate_ns", mp.invalidateNs, "ns"},
        {"mem.flush_ns", mp.flushNs, "ns"},
        {"mem.l1_accesses", static_cast<double>(c.l1Accesses), "count"},
        {"mem.l1_hit_rate", 1.0 - ratio(c.l1Misses, c.l1Accesses),
         "ratio"},
        {"mem.l2_misses", static_cast<double>(c.l2Misses), "count"},
        {"mem.dram_accesses", static_cast<double>(c.dramAccesses),
         "count"},
        {"mem.inv_lines", static_cast<double>(c.invLines), "count"},
        {"mem.flush_lines", static_cast<double>(c.flushLines), "count"},
        {"mem.noc_bytes", static_cast<double>(c.nocBytes), "bytes"},
        {"mem.noc_msgs", static_cast<double>(c.nocMsgs), "count"},
        {"mem.drain_s", tr.t.drain, "s"},
        {"core.steal_attempts", static_cast<double>(c.stealAttempts),
         "count"},
        {"core.steals", static_cast<double>(c.steals), "count"},
        {"core.steal_success_ratio", ratio(c.steals, c.stealAttempts),
         "ratio"},
        {"core.tasks", static_cast<double>(c.tasks), "count"},
        {"core.run_s", tr.t.run, "s"},
        {"core.run_share", tr.t.run / tr.wall, "ratio"},
        {"uli.reqs", static_cast<double>(c.uliReqs), "count"},
        {"uli.nack_ratio", ratio(c.uliNacks, c.uliReqs), "ratio"},
        {"apps.setup_s", tr.t.setup, "s"},
        {"apps.setup_share", tr.t.setup / tr.wall, "ratio"},
        {"apps.validate_s", tr.t.validate, "s"},
        {"trace.tasks_tracked", static_cast<double>(c.tasksTracked),
         "count"},
        {"trace.wall_s", tr.wall, "s"},
        {"trace.overhead_s", tr.wall - untracedWall, "s"},
    };
    return res;
}

std::string
countsJson(const Counts &c)
{
    std::string s = "{";
    bool first = true;
    for (auto [name, v] : c.named()) {
        s += (first ? "\"" : ", \"") + std::string(name) +
            "\": " + std::to_string(v);
        first = false;
    }
    return s + "}";
}

std::string
samplesJson(const Result &r)
{
    std::string s = "{";
    for (size_t i = 0; i < r.samples.size(); ++i) {
        s += (i ? ", \"" : "\"") + r.samples[i].first + "\": [";
        for (size_t j = 0; j < r.samples[i].second.size(); ++j) {
            s += j ? ", " : "";
            s += jsonNum(r.samples[i].second[j]);
        }
        s += "]";
    }
    return s + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Flags flags(argc, argv);
    const std::string name = flags.get("workload");
    const uint64_t seed = static_cast<uint64_t>(flags.getInt(
        "seed", static_cast<int64_t>(apps::AppParams{}.seed)));
    const double seconds = flags.getDouble("seconds", 10.0);
    const bool traced = flags.getInt("trace", 0) != 0;
    const std::string outDir = flags.get("out", "");

    const std::optional<Workload> w = makeWorkload(name, seed);
    if (!w) {
        std::fprintf(stderr,
                     "perfbench: unknown --workload '%s' (mm-mesi64, "
                     "steal1024, hcc-mix)\n",
                     name.c_str());
        return 2;
    }

    SpanLog log(traced);
    Result res;
    {
        ScopedSpan root(log, "workload " + name);
        res = traced ? runTraced(*w, log) : runEndToEnd(*w, seconds);
    }
    if (name == "mm-mesi64" && seed == apps::AppParams{}.seed &&
        res.counts.cycles != mmMesi64Cycles) {
        std::fprintf(stderr,
                     "perfbench: mm-mesi64 simulated %llu cycles at the "
                     "default seed, expected %llu\n",
                     (unsigned long long)res.counts.cycles,
                     (unsigned long long)mmMesi64Cycles);
        res.correct = false;
    }

    const std::string prov = provenanceJson(flags);
    std::printf("workload %s  seed %llu  trace %d  runs %d  failed %d  "
                "fail_rate %.6g\n",
                name.c_str(), (unsigned long long)seed, traced ? 1 : 0,
                res.attempted, res.failed,
                static_cast<double>(res.failed) / res.attempted);
    std::printf("provenance %s\n", prov.c_str());
    for (auto [cname, v] : res.counts.named())
        std::printf("count  %-28s %llu\n", cname,
                    (unsigned long long)v);
    for (const Metric &m : res.metrics)
        std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    const std::string metrics = metricsJson(res.metrics);
    if (!outDir.empty()) {
        const std::string stem = outDir + "/" + name + "-seed" +
            std::to_string(seed) + "-trace" + (traced ? "1" : "0");
        if (FILE *f = std::fopen((stem + ".json").c_str(), "w")) {
            std::fprintf(
                f,
                "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"provenance\": %s, \"correct\": %s, "
                "\"attempted\": %d, \"failed\": %d, \"counts\": %s, "
                "\"samples\": %s, \"metrics\": %s}\n",
                name.c_str(), (unsigned long long)seed, traced ? 1 : 0,
                prov.c_str(), res.correct ? "true" : "false",
                res.attempted, res.failed, countsJson(res.counts).c_str(),
                samplesJson(res).c_str(), metrics.c_str());
            std::fclose(f);
        }
        if (traced && !log.write(stem + "-spans.json"))
            std::fprintf(stderr, "perfbench: cannot write spans\n");
    }

    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": %s}\n",
                res.correct ? "true" : "false", res.attempted,
                res.failed, metrics.c_str());
    return 0;
}
