/**
 * @file
 * Tests for the sweep farm (bench/farm.hh): the claim protocol
 * (exactly one winner per claim, stale claims stolen exactly once),
 * manifest round-tripping, crash recovery (a SIGKILLed worker's jobs
 * re-stolen; an interrupted farm resumed), and the acceptance bar —
 * a farmed sweep's results and JSON are byte-identical to a serial
 * sweep's. Also covers the perf-trajectory file format
 * (bench/trajectory.hh): append-only, prior entries preserved
 * verbatim, legacy single-object files adopted as entry 0.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/farm.hh"
#include "bench/sweep.hh"
#include "bench/trajectory.hh"
#include "common/claim.hh"

using namespace bigtiny;
using namespace bigtiny::bench;

namespace
{

/** Fresh, empty farm directory under the test temp dir. */
std::string
farmDir(const std::string &name)
{
    std::string p = testing::TempDir() + name;
    std::filesystem::remove_all(p);
    common::makeDirs(p);
    return p;
}

RunSpec
nqSpec(uint64_t seed)
{
    return RunSpec::forApp("cilk5-nq")
        .config("serial-io").n(5).grain(2).seed(seed).serial();
}

std::vector<FarmJob>
jobsFor(const std::vector<RunSpec> &specs)
{
    std::vector<FarmJob> jobs;
    for (size_t i = 0; i < specs.size(); ++i)
        jobs.push_back({i, specs[i], specs[i].key()});
    return jobs;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.work, b.work);
    EXPECT_EQ(a.span, b.span);
    EXPECT_EQ(a.tasks, b.tasks);
    EXPECT_EQ(a.steals, b.steals);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.tinyTime, b.tinyTime);
    EXPECT_EQ(a.nocBytes, b.nocBytes);
}

/** The sweep every byte-identity test farms: a few distinct runs, one
 *  parallel config, and a duplicate (dedup must preserve order). */
std::vector<RunSpec>
testSweep()
{
    std::vector<RunSpec> specs;
    specs.push_back(nqSpec(1));
    specs.push_back(nqSpec(2));
    specs.push_back(RunSpec::forApp("cilk5-nq")
                        .config("bt-mesi").n(5).grain(2).seed(3));
    specs.push_back(nqSpec(4));
    specs.push_back(specs[0]); // duplicate
    return specs;
}

} // namespace

TEST(Farm, ClaimRaceHasExactlyOneWinner)
{
    std::string dir = farmDir("bt_farm_race");
    common::makeDirs(farmClaimsDir(dir));
    FarmJob job{0, nqSpec(1), nqSpec(1).key()};

    constexpr int numThreads = 8;
    std::vector<int> won(numThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < numThreads; ++t)
        pool.emplace_back([&, t] {
            won[t] = farmClaimJob(dir, job, "host-" + std::to_string(t),
                                  10000);
        });
    for (auto &th : pool)
        th.join();
    int winners = 0;
    for (int w : won)
        winners += w;
    EXPECT_EQ(winners, 1);
    // The loser cannot re-claim while the winner's claim is fresh.
    EXPECT_FALSE(farmClaimJob(dir, job, "latecomer", 10000));
}

TEST(Farm, StaleClaimIsStolenExactlyOnce)
{
    std::string dir = farmDir("bt_farm_steal");
    common::makeDirs(farmClaimsDir(dir));
    FarmJob job{0, nqSpec(1), nqSpec(1).key()};

    // A claim owned by a dead pid on this host is immediately stale,
    // whatever the TTL (pid 0x7ffffff0 is past kernel.pid_max).
    std::string claim = farmClaimsDir(dir) + "/job-0.claim";
    ASSERT_TRUE(common::createExclusive(
        claim, common::hostName() + "-2147483632 0 job=0\n"));

    constexpr int numThreads = 4;
    std::vector<int> won(numThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < numThreads; ++t)
        pool.emplace_back([&, t] {
            won[t] = farmClaimJob(dir, job, "thief-" + std::to_string(t),
                                  10000);
        });
    for (auto &th : pool)
        th.join();
    int winners = 0;
    for (int w : won)
        winners += w;
    EXPECT_EQ(winners, 1);

    // Exactly one worker-lost report for the steal.
    std::string log = slurp(farmFailuresPath(dir));
    size_t reports = 0;
    for (size_t at = log.find("worker-lost"); at != std::string::npos;
         at = log.find("worker-lost", at + 1))
        ++reports;
    EXPECT_EQ(reports, 1u);
    EXPECT_NE(log.find("is dead on this host"), std::string::npos);
}

// Many racing thieves, many stale claims: every steal has exactly one
// winner and one worker-lost report, including steals of a claim that
// was itself stolen before (generation chains). A late thief that
// judged a generation stale must never displace the winner's fresh
// claim — the double claim the rename-based protocol allowed.
TEST(Farm, ClaimStressOneWinnerPerSteal)
{
    std::string dir = farmDir("bt_farm_stress");
    common::makeDirs(farmClaimsDir(dir));
    constexpr int numThreads = 8;
    constexpr size_t iterations = 150;
    const std::string dead = common::hostName() + "-2147483632 0 job=";

    std::vector<FarmJob> jobs;
    for (size_t i = 0; i < iterations; ++i) {
        jobs.push_back({i, nqSpec(1), nqSpec(1).key()});
        std::string base =
            farmClaimsDir(dir) + "/job-" + std::to_string(i) + ".claim";
        // Every third job's dead owner had itself stolen the claim.
        ASSERT_TRUE(common::createExclusive(
            base, dead + std::to_string(i) + "\n"));
        if (i % 3 == 0) {
            ASSERT_TRUE(common::createExclusive(
                base + ".1", dead + std::to_string(i) + "\n"));
        }
    }

    std::vector<std::vector<int>> won(
        iterations, std::vector<int>(numThreads, 0));
    std::vector<std::thread> pool;
    for (int t = 0; t < numThreads; ++t)
        pool.emplace_back([&, t] {
            // Each thread walks the jobs from its own origin so the
            // races land at different points of the protocol.
            for (size_t k = 0; k < iterations; ++k) {
                size_t i = (k + static_cast<size_t>(t) * 7) % iterations;
                won[i][t] = farmClaimJob(dir, jobs[i],
                                         "thief-" + std::to_string(t),
                                         10000);
            }
        });
    for (auto &th : pool)
        th.join();

    for (size_t i = 0; i < iterations; ++i) {
        int winners = 0;
        for (int w : won[i])
            winners += w;
        EXPECT_EQ(winners, 1) << "job " << i;
    }
    std::string log = slurp(farmFailuresPath(dir));
    size_t reports = 0;
    for (size_t at = log.find("worker-lost"); at != std::string::npos;
         at = log.find("worker-lost", at + 1))
        ++reports;
    EXPECT_EQ(reports, iterations);
}

TEST(Farm, ManifestRoundTrips)
{
    std::string dir = farmDir("bt_farm_manifest");
    std::vector<RunSpec> specs = testSweep();
    specs[1].faults("uli-drop-resp@1").steal("hier:2");
    specs[1].cycleBudget(123456).timeoutMs(9000);
    auto jobs = jobsFor(specs);
    // Non-contiguous indices (a resume manifest's shape).
    jobs[2].index = 17;
    jobs[2].key = jobs[2].spec.key();

    writeFarmManifest(dir, jobs);
    std::vector<FarmJob> back;
    ASSERT_TRUE(readFarmManifest(dir, back));
    ASSERT_EQ(back.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(back[i].index, jobs[i].index);
        EXPECT_EQ(back[i].key, jobs[i].key);
        EXPECT_EQ(back[i].spec.key(), jobs[i].spec.key());
        EXPECT_EQ(back[i].spec.faultSpec, jobs[i].spec.faultSpec);
        EXPECT_EQ(back[i].spec.stealPolicy, jobs[i].spec.stealPolicy);
        EXPECT_EQ(back[i].spec.maxCycles, jobs[i].spec.maxCycles);
        EXPECT_EQ(back[i].spec.runTimeoutMs,
                  jobs[i].spec.runTimeoutMs);
    }

    std::vector<FarmJob> none;
    EXPECT_FALSE(readFarmManifest(farmDir("bt_farm_nomanifest"),
                                  none));
}

TEST(Farm, ResultsFileTornTailIsSkipped)
{
    std::string dir = farmDir("bt_farm_torn");
    common::makeDirs(farmResultsDir(dir));
    RunResult r = runOne(nqSpec(1));
    std::string line =
        "0\t" + nqSpec(1).key() + "\t" + serializeResult(r);
    std::ofstream out(farmResultsDir(dir) + "/worker-x-1-2.results");
    out << line << "\n";
    out << line.substr(0, line.size() / 2); // torn: no newline
    out.close();

    auto results = readFarmResults(dir);
    ASSERT_EQ(results.size(), 1u);
    expectSameResult(results[0], r);
}

TEST(Farm, FarmedSweepMatchesSerialByteForByte)
{
    std::vector<RunSpec> specs = testSweep();

    std::string cs = testing::TempDir() + "bt_farm_serial.cache";
    std::remove(cs.c_str());
    ResultCache serialCache(cs);
    auto serial = Sweep(serialCache, 1).addAll(specs).run();

    for (int workers : {1, 3}) {
        std::string cf = testing::TempDir() + "bt_farm_w.cache";
        std::remove(cf.c_str());
        ResultCache cache(cf);
        FarmOptions opt;
        opt.dir = farmDir("bt_farm_bytes");
        opt.workers = workers; // exePath empty: fork-without-exec
        opt.claimTtlMs = 10000;
        auto farmed = runFarm(cache, specs, opt);
        ASSERT_EQ(farmed.size(), specs.size());
        for (size_t i = 0; i < specs.size(); ++i)
            expectSameResult(serial[i], farmed[i]);

        // The real acceptance bar: identical JSON bytes.
        std::string js = testing::TempDir() + "bt_farm_serial.json";
        std::string jf = testing::TempDir() + "bt_farm_farmed.json";
        writeSweepJson(js, specs, serial);
        writeSweepJson(jf, specs, farmed);
        EXPECT_EQ(slurp(js), slurp(jf))
            << "farmed sweep JSON diverged with " << workers
            << " workers";
        std::remove(cf.c_str());
    }
    std::remove(cs.c_str());
}

TEST(Farm, KilledWorkerJobsAreReStolen)
{
    std::vector<RunSpec> specs = testSweep();

    std::string cs = testing::TempDir() + "bt_farm_kill_s.cache";
    std::remove(cs.c_str());
    ResultCache serialCache(cs);
    auto serial = Sweep(serialCache, 1).addAll(specs).run();

    std::string cf = testing::TempDir() + "bt_farm_kill.cache";
    std::remove(cf.c_str());
    ResultCache cache(cf);
    FarmOptions opt;
    opt.dir = farmDir("bt_farm_kill");
    opt.workers = 2;
    // Worker 1 SIGKILLs itself right after winning its second claim:
    // the claim is orphaned mid-heartbeat and the coordinator must
    // wait out the TTL and re-steal it. Keep the TTL short so the
    // test does not dawdle.
    opt.claimTtlMs = 1500;
    opt.farmFaults = "farm-kill-worker@2=1";
    auto farmed = runFarm(cache, specs, opt);
    ASSERT_EQ(farmed.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        expectSameResult(serial[i], farmed[i]);
    std::remove(cs.c_str());
    std::remove(cf.c_str());
}

TEST(Farm, ResumeCompletesAnInterruptedFarm)
{
    std::vector<RunSpec> specs = testSweep();

    std::string cs = testing::TempDir() + "bt_farm_res_s.cache";
    std::remove(cs.c_str());
    ResultCache serialCache(cs);
    auto serial = Sweep(serialCache, 1).addAll(specs).run();

    // Fabricate an interrupted farm: the manifest is published, job 0
    // finished (result on disk), job 1 is claimed by a worker that
    // died (dead-pid claim, no result), the rest never started.
    std::string dir = farmDir("bt_farm_resume");
    std::vector<RunSpec> uniq(specs.begin(), specs.end() - 1);
    auto jobs = jobsFor(uniq);
    writeFarmManifest(dir, jobs);
    RunResult r0 = runOne(uniq[0]);
    common::appendLine(farmResultsDir(dir) + "/worker-dead-1-2.results",
                       "0\t" + uniq[0].key() + "\t" +
                           serializeResult(r0));
    ASSERT_TRUE(common::createExclusive(
        farmClaimsDir(dir) + "/job-1.claim",
        common::hostName() + "-2147483632 0 job=1\n"));

    std::string cf = testing::TempDir() + "bt_farm_res.cache";
    std::remove(cf.c_str());
    ResultCache cache(cf);
    FarmOptions opt;
    opt.dir = dir;
    opt.workers = 2;
    opt.resume = true;
    opt.claimTtlMs = 10000; // dead-pid staleness, not TTL, frees job 1
    auto farmed = runFarm(cache, specs, opt);
    ASSERT_EQ(farmed.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        expectSameResult(serial[i], farmed[i]);

    std::string js = testing::TempDir() + "bt_farm_res_s.json";
    std::string jf = testing::TempDir() + "bt_farm_res_f.json";
    writeSweepJson(js, specs, serial);
    writeSweepJson(jf, specs, farmed);
    EXPECT_EQ(slurp(js), slurp(jf));

    // The orphaned claim was logged as worker-lost.
    EXPECT_NE(slurp(farmFailuresPath(dir)).find("worker-lost"),
              std::string::npos);
    std::remove(cs.c_str());
    std::remove(cf.c_str());
}

TEST(Farm, TrajectoryAppendPreservesPriorEntries)
{
    std::string path = testing::TempDir() + "bt_trajectory.json";
    std::remove(path.c_str());

    appendTrajectoryEntry(path, "{\"benchmark\":\"t\",\"v\":1}");
    appendTrajectoryEntry(path, "{\"benchmark\":\"t\",\"v\":2}");
    EXPECT_EQ(slurp(path), "[\n{\"benchmark\":\"t\",\"v\":1},\n"
                           "{\"benchmark\":\"t\",\"v\":2}\n]\n");

    std::vector<std::string> entries;
    ASSERT_TRUE(readTrajectory(path, entries));
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0], "{\"benchmark\":\"t\",\"v\":1}");
    EXPECT_EQ(entries[1], "{\"benchmark\":\"t\",\"v\":2}");
    std::remove(path.c_str());
}

TEST(Farm, TrajectoryAdoptsLegacySingleObjectFile)
{
    // The pre-trajectory BENCH files were one pretty-printed object;
    // appending must fold that object in as entry 0, not clobber it.
    std::string path = testing::TempDir() + "bt_trajectory_leg.json";
    {
        std::ofstream out(path);
        out << "{\n\"benchmark\": \"hotpath\",\n\"wallMsBest\": 42\n"
            << "}\n";
    }
    appendTrajectoryEntry(path, "{\"benchmark\":\"hotpath\",\"v\":2}");
    std::vector<std::string> entries;
    ASSERT_TRUE(readTrajectory(path, entries));
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_NE(entries[0].find("\"wallMsBest\": 42"),
              std::string::npos);
    EXPECT_EQ(entries[1], "{\"benchmark\":\"hotpath\",\"v\":2}");
    std::remove(path.c_str());
}
