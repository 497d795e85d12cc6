/**
 * @file
 * The sweep farm: multi-process, work-stealing experiment sharding.
 *
 * bench::Sweep parallelizes a sweep across host THREADS of one
 * process; the farm shards it across worker PROCESSES — spawned
 * locally by the coordinator (`btsweep --workers=N`) or attached from
 * other hosts sharing the directory (`btsweep --join=<dir>`). The
 * paper's own medicine, applied one level up: jobs are stolen, not
 * assigned, so throughput scales with whatever workers show up and a
 * dead worker's jobs are re-stolen instead of lost.
 *
 * Coordination is a directory, nothing else (DESIGN.md §14):
 *
 *   <dir>/jobs.manifest       every job of the sweep (atomic publish)
 *   <dir>/claims/job-N.claim[.G]
 *                             O_EXCL claim generations; the newest
 *                             names the owner, its mtime = heartbeat
 *   <dir>/results/worker-*.results
 *                             one append-only file per worker process
 *   <dir>/failures.log        rendered worker-lost FailureReports
 *
 * Invariants:
 *  - a job runs under an owned claim; the result line is appended and
 *    flushed BEFORE the claim is released, so a released claim with
 *    no result implies the owner died and the job must re-run;
 *  - a claim whose heartbeat is older than the TTL (or whose owner
 *    pid is dead on this host) is stale; stealing generation G is an
 *    O_EXCL create of generation G+1, so exactly one of N racing
 *    stealers wins and a late stealer can never displace the fresh
 *    claim of an earlier one;
 *  - results are keyed by job index and deduplicated at merge, so a
 *    job that ran twice (steal of a slow-but-alive owner after a
 *    heartbeat stall) is harmless: the simulator is deterministic and
 *    both records are byte-identical.
 *
 * The coordinator merges worker results into its ResultCache and
 * returns them in spec order, so a farmed sweep's BENCH_sweep.json is
 * byte-identical to a serial one's — that identity is the acceptance
 * bar, enforced by tests/test_farm.cc and tools/check_build.sh.
 */

#ifndef BIGTINY_BENCH_FARM_HH
#define BIGTINY_BENCH_FARM_HH

#include <map>
#include <string>
#include <vector>

#include "bench/driver.hh"

namespace bigtiny::bench
{

/** Knobs shared by the coordinator and its workers. */
struct FarmOptions
{
    std::string dir;          //!< coordination directory
    int workers = 1;          //!< total worker processes (>= 1); the
                              //!< coordinator runs worker 0 inline
    bool resume = false;      //!< continue an interrupted farm dir
    int64_t claimTtlMs = 10000; //!< heartbeat age after which a claim
                                //!< is stale (keep >> FS clock skew)
    int64_t heartbeatMs = 0;  //!< claim-touch period; 0 = ttl/5,
                              //!< floored at 100 ms
    /** Executable to spawn for workers 1..N-1 (argv: --join=<dir>).
     *  Empty = fork without exec and run farmWorker() in the child —
     *  the in-process mode the tests use. */
    std::string exePath;
    /** fault::FaultPlan spec; only farm-* sites are honored here
     *  (farm-kill-worker@N=wid SIGKILLs worker wid before its Nth
     *  claimed job). Simulation sites belong in RunSpec::faultSpec. */
    std::string farmFaults;
    int workerId = 0;         //!< this process's worker id
};

/** One manifest entry: a cold RunSpec and where its result goes. */
struct FarmJob
{
    size_t index;    //!< index into the coordinator's spec vector
    RunSpec spec;
    std::string key; //!< spec.key(), pinned at manifest-write time
};

std::string farmManifestPath(const std::string &dir);
std::string farmClaimsDir(const std::string &dir);
std::string farmResultsDir(const std::string &dir);
std::string farmFailuresPath(const std::string &dir);

/** Create the farm directory layout and atomically publish the
 *  manifest (write-to-temp + rename; a --join worker never sees a
 *  partial file). */
void writeFarmManifest(const std::string &dir,
                       const std::vector<FarmJob> &jobs);

/**
 * Load the manifest. @return false when none exists yet; fatal() on a
 * corrupt file, a modelVersion mismatch, or a job whose recomputed
 * spec.key() no longer matches the pinned key (a stale farm dir from
 * an older build must not be silently resumed).
 */
bool readFarmManifest(const std::string &dir,
                      std::vector<FarmJob> &jobs);

/**
 * Try to take ownership of @p job's claim as @p identity
 * ("<host>-<pid>"). Steals a stale claim (heartbeat older than
 * @p ttlMs, or owner pid dead on this host) by creating the next
 * claim generation, appending a rendered worker-lost FailureReport to
 * failures.log for each steal. On success the owned generation is
 * stored in @p gen (heartbeat and release it).
 * @return true iff the claim is now ours.
 */
bool farmClaimJob(const std::string &dir, const FarmJob &job,
                  const std::string &identity, int64_t ttlMs,
                  unsigned *gen = nullptr);

/** Parse every results file; job index -> result. Torn trailing
 *  lines (a worker killed mid-append) are skipped. */
std::map<size_t, RunResult> readFarmResults(const std::string &dir);

/**
 * The worker loop: steal-claim jobs, simulate them with runOne(),
 * append results, heartbeat the active claim from a background
 * thread; returns (number of jobs this worker ran) once every
 * manifest job has a result — produced by anyone. This is what
 * `btsweep --join=<dir>` runs, and what the coordinator runs inline
 * as worker 0.
 */
size_t farmWorker(const FarmOptions &opt);

/**
 * Coordinate a whole farmed sweep: dedup @p specs, publish cold jobs
 * as the manifest (or adopt an interrupted one when opt.resume),
 * spawn workers 1..N-1, participate as worker 0, merge results into
 * @p cache, and return results in spec order — byte-for-byte the
 * results a serial Sweep would have produced.
 */
std::vector<RunResult> runFarm(ResultCache &cache,
                               const std::vector<RunSpec> &specs,
                               const FarmOptions &opt);

} // namespace bigtiny::bench

#endif // BIGTINY_BENCH_FARM_HH
