#include "bench/farm.hh"

#include <condition_variable>
#include <csignal>
#include <cstring>
#include <mutex>
#include <set>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common/claim.hh"
#include "common/log.hh"
#include "fault/failure.hh"
#include "fault/fault.hh"

namespace bigtiny::bench
{

namespace
{

constexpr const char *manifestMagic = "bigtiny-farm v1";

std::string
esc(const std::string &s)
{
    return s.empty() ? "-" : s;
}

std::string
unesc(const std::string &s)
{
    return s == "-" ? "" : s;
}

std::string
workerIdentity()
{
    return common::hostName() + "-" +
           std::to_string(static_cast<long>(::getpid()));
}

/** Generation @p gen of job @p index's claim: job-N.claim, .1, .2... */
std::string
claimPathFor(const std::string &dir, size_t index, unsigned gen)
{
    std::string p = farmClaimsDir(dir) + "/job-" + std::to_string(index) +
                    ".claim";
    return gen == 0 ? p : p + "." + std::to_string(gen);
}

/** Release a claim owned at generation @p gen (the whole chain). */
void
farmReleaseClaim(const std::string &dir, const FarmJob &job,
                 unsigned gen)
{
    // Oldest first, so a generation's disappearance implies every
    // newer one is going too: a thief that stole the next generation
    // of a vanished one backs out (farmClaimJob) instead of reporting
    // a finished job's owner lost.
    for (unsigned g = 0; g <= gen; ++g)
        common::removeFile(claimPathFor(dir, job.index, g));
}

/**
 * Touches the active claim file every period so a live owner's claim
 * never goes stale, however long its simulation runs. Host-side only;
 * the simulation thread never synchronizes with it, so determinism is
 * untouched.
 */
class ClaimHeartbeat
{
  public:
    explicit ClaimHeartbeat(int64_t periodMs)
        : period(periodMs), th([this] { loop(); })
    {
    }

    ~ClaimHeartbeat()
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            stop = true;
        }
        cv.notify_all();
        th.join();
    }

    /** Start heartbeating @p path ("" pauses). */
    void
    watch(const std::string &path)
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            current = path;
        }
        cv.notify_all();
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lk(mu);
        while (!stop) {
            cv.wait_for(lk, std::chrono::milliseconds(period));
            if (stop)
                break;
            if (current.empty())
                continue;
            std::string path = current;
            lk.unlock();
            common::touchFile(path);
            lk.lock();
        }
    }

    int64_t period;
    std::mutex mu;
    std::condition_variable cv;
    std::string current;
    bool stop = false;
    std::thread th;
};

int64_t
heartbeatPeriod(const FarmOptions &opt)
{
    if (opt.heartbeatMs > 0)
        return opt.heartbeatMs;
    return std::max<int64_t>(100, opt.claimTtlMs / 5);
}

/** Job indices that already have a parseable result on disk. */
std::set<size_t>
doneIndices(const std::string &dir)
{
    std::set<size_t> done;
    for (const auto &[idx, r] : readFarmResults(dir))
        done.insert(idx);
    return done;
}

/** The farm-kill-worker rule targeting @p workerId, if any: returns
 *  the 1-based claim count at which this worker must SIGKILL itself
 *  (0 = never). Reuses the PR 3 FaultPlan grammar so the recovery
 *  tests drive worker death the same way simulation faults are
 *  driven. */
uint64_t
killAtClaim(const FarmOptions &opt)
{
    if (opt.farmFaults.empty())
        return 0;
    fault::FaultPlan plan = fault::FaultPlan::parse(opt.farmFaults);
    for (const fault::FaultRule &r : plan.rules) {
        if (r.site != fault::FaultSite::FarmKillWorker)
            continue;
        if (r.args[0] != static_cast<uint64_t>(opt.workerId))
            continue;
        fatal_if(r.all || r.prob > 0.0,
                 "--farm-faults: farm-kill-worker needs an @N "
                 "occurrence trigger");
        return r.nth;
    }
    return 0;
}

void
logWorkerLost(const std::string &dir, const FarmJob &job,
              const std::string &prevClaim, const std::string &why,
              const std::string &thief)
{
    std::string owner = prevClaim;
    if (size_t nl = owner.find('\n'); nl != std::string::npos)
        owner = owner.substr(0, nl);
    fault::FailureReport rep;
    rep.verdict = fault::Verdict::WorkerLost;
    rep.reason = fault::format(
        "claim for job #%zu (%s) orphaned: owner [%s] %s; re-stolen "
        "by %s",
        job.index, job.key.c_str(),
        owner.empty() ? "unknown" : owner.c_str(), why.c_str(),
        thief.c_str());
    common::appendLine(farmFailuresPath(dir), rep.render());
    warn("farm: %s", rep.reason.c_str());
}

void
appendResultLine(const std::string &path, const FarmJob &job,
                 const RunResult &r)
{
    std::ostringstream os;
    os << job.index << '\t' << job.key << '\t' << serializeResult(r);
    fatal_if(!common::appendLine(path, os.str()),
             "farm: cannot append result for job #%zu to %s",
             job.index, path.c_str());
}

pid_t
spawnWorker(const FarmOptions &opt, int wid)
{
    pid_t pid = ::fork();
    fatal_if(pid < 0, "farm: fork failed: %s", std::strerror(errno));
    if (pid != 0)
        return pid;
    if (opt.exePath.empty()) {
        // In-process worker (tests): same binary image, no exec.
        FarmOptions wo = opt;
        wo.workerId = wid;
        farmWorker(wo);
        ::_exit(0);
    }
    std::string join = "--join=" + opt.dir;
    std::string widArg = "--worker-id=" + std::to_string(wid);
    std::string ttl =
        "--claim-ttl-ms=" + std::to_string(opt.claimTtlMs);
    std::string hb =
        "--heartbeat-ms=" + std::to_string(opt.heartbeatMs);
    std::string faults = "--farm-faults=" + opt.farmFaults;
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(opt.exePath.c_str()));
    argv.push_back(const_cast<char *>(join.c_str()));
    argv.push_back(const_cast<char *>(widArg.c_str()));
    argv.push_back(const_cast<char *>(ttl.c_str()));
    if (opt.heartbeatMs > 0)
        argv.push_back(const_cast<char *>(hb.c_str()));
    if (!opt.farmFaults.empty())
        argv.push_back(const_cast<char *>(faults.c_str()));
    argv.push_back(nullptr);
    ::execv(opt.exePath.c_str(), argv.data());
    // exec failed; nothing sane to do in the forked child but leave.
    std::fprintf(stderr, "farm: execv(%s) failed: %s\n",
                 opt.exePath.c_str(), std::strerror(errno));
    ::_exit(127);
}

} // namespace

std::string
farmManifestPath(const std::string &dir)
{
    return dir + "/jobs.manifest";
}

std::string
farmClaimsDir(const std::string &dir)
{
    return dir + "/claims";
}

std::string
farmResultsDir(const std::string &dir)
{
    return dir + "/results";
}

std::string
farmFailuresPath(const std::string &dir)
{
    return dir + "/failures.log";
}

void
writeFarmManifest(const std::string &dir,
                  const std::vector<FarmJob> &jobs)
{
    fatal_if(!common::makeDirs(farmClaimsDir(dir)) ||
                 !common::makeDirs(farmResultsDir(dir)),
             "farm: cannot create directory layout under %s",
             dir.c_str());
    std::ostringstream os;
    os << manifestMagic << " model=" << modelVersion
       << " jobs=" << jobs.size() << '\n';
    for (const FarmJob &j : jobs) {
        const RunSpec &s = j.spec;
        os << j.index << '\t' << j.key << '\t' << s.app << '\t'
           << s.configName << '\t' << s.params.n << '\t'
           << s.params.grain << '\t' << s.params.seed << '\t'
           << (s.serialElision ? 1 : 0) << '\t'
           << (s.checkCoherence ? 1 : 0) << '\t' << esc(s.faultSpec)
           << '\t' << esc(s.stealPolicy) << '\t' << s.maxCycles
           << '\t' << s.runTimeoutMs << '\n';
    }
    fatal_if(!common::atomicWriteFile(farmManifestPath(dir), os.str()),
             "farm: cannot publish manifest in %s", dir.c_str());
}

bool
readFarmManifest(const std::string &dir, std::vector<FarmJob> &jobs)
{
    std::string text = common::readFile(farmManifestPath(dir));
    if (text.empty())
        return false;
    std::istringstream in(text);
    std::string header;
    std::getline(in, header);
    fatal_if(header.rfind(manifestMagic, 0) != 0,
             "farm: %s is not a farm manifest",
             farmManifestPath(dir).c_str());
    size_t modelPos = header.find("model=");
    fatal_if(modelPos == std::string::npos,
             "farm: manifest header missing model version");
    int model = std::atoi(header.c_str() + modelPos + 6);
    fatal_if(model != modelVersion,
             "farm: %s was written by model v%d, this build is v%d — "
             "remove the farm directory and restart the sweep",
             farmManifestPath(dir).c_str(), model, modelVersion);
    jobs.clear();
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::vector<std::string> f;
        size_t start = 0;
        for (;;) {
            size_t tab = line.find('\t', start);
            f.push_back(line.substr(start, tab - start));
            if (tab == std::string::npos)
                break;
            start = tab + 1;
        }
        fatal_if(f.size() != 13, "farm: malformed manifest line '%s'",
                 line.c_str());
        FarmJob j;
        j.index = std::strtoull(f[0].c_str(), nullptr, 10);
        j.key = f[1];
        j.spec.app = f[2];
        j.spec.configName = f[3];
        j.spec.params.n = std::strtoll(f[4].c_str(), nullptr, 10);
        j.spec.params.grain = std::strtoll(f[5].c_str(), nullptr, 10);
        j.spec.params.seed = std::strtoull(f[6].c_str(), nullptr, 10);
        j.spec.serialElision = f[7] == "1";
        j.spec.checkCoherence = f[8] == "1";
        j.spec.faultSpec = unesc(f[9]);
        j.spec.stealPolicy = unesc(f[10]);
        j.spec.maxCycles =
            static_cast<Cycle>(std::strtoull(f[11].c_str(), nullptr, 10));
        j.spec.runTimeoutMs = std::strtoull(f[12].c_str(), nullptr, 10);
        // A key mismatch means the key grammar or a default changed
        // under the manifest — resuming would silently mix models.
        fatal_if(j.spec.key() != j.key,
                 "farm: manifest job #%zu key mismatch\n  pinned:     "
                 "%s\n  recomputed: %s\nremove the farm directory and "
                 "restart the sweep",
                 j.index, j.key.c_str(), j.spec.key().c_str());
        jobs.push_back(std::move(j));
    }
    return true;
}

bool
farmClaimJob(const std::string &dir, const FarmJob &job,
             const std::string &identity, int64_t ttlMs, unsigned *gen)
{
    std::string contents =
        identity + " " + std::to_string(common::wallTimeMs()) +
        " job=" + std::to_string(job.index) + "\n";
    auto take = [&](unsigned g) {
        if (!common::createExclusive(claimPathFor(dir, job.index, g),
                                     contents))
            return false;
        if (gen)
            *gen = g;
        return true;
    };
    if (take(0))
        return true;

    // The live claim is the newest of the contiguous generations; no
    // claim file is renamed or removed while its job is in flight.
    unsigned g = 0;
    std::string path = claimPathFor(dir, job.index, 0);
    int64_t age = common::fileAgeMs(path);
    if (age < 0) // owner just released it; take it fresh
        return take(0);
    for (;;) {
        std::string next = claimPathFor(dir, job.index, g + 1);
        int64_t nextAge = common::fileAgeMs(next);
        if (nextAge < 0)
            break;
        ++g;
        path = std::move(next);
        age = nextAge;
    }

    bool stale = age > ttlMs;
    std::string why = fault::format(
        "heartbeat age %lldms > ttl %lldms",
        static_cast<long long>(age), static_cast<long long>(ttlMs));
    const std::string prev = common::readFile(path);
    if (!stale) {
        // Same-host fast path: a dead owner pid makes the claim stale
        // immediately. Advisory only (pids recycle) — it can only
        // accelerate staleness; the age test above stays the backstop.
        size_t dash = prev.rfind('-', prev.find(' '));
        if (dash != std::string::npos &&
            prev.compare(0, dash, common::hostName()) == 0) {
            int64_t pid = std::strtoll(prev.c_str() + dash + 1,
                                       nullptr, 10);
            stale = pid > 0 && !common::processAlive(pid);
            why = fault::format("pid %lld is dead on this host",
                                static_cast<long long>(pid));
        }
    }
    if (!stale)
        return false;

    // Atomic steal: the O_EXCL create of generation g+1 wins for
    // exactly one of N racing thieves. A thief that judged generation
    // g stale too late finds g+1 taken; it can never remove or replace
    // the winner's fresh claim.
    if (!take(g + 1))
        return false;
    if (common::fileAgeMs(path) < 0) {
        // Generation g vanished: its owner released the job (it is
        // done) while we stole it. Back out without a report.
        common::removeFile(claimPathFor(dir, job.index, g + 1));
        return false;
    }
    logWorkerLost(dir, job, prev, why, identity);
    return true;
}

std::map<size_t, RunResult>
readFarmResults(const std::string &dir)
{
    std::map<size_t, RunResult> out;
    std::string rdir = farmResultsDir(dir);
    for (const std::string &name : common::listDir(rdir)) {
        if (name.size() < 9 ||
            name.compare(name.size() - 8, 8, ".results") != 0)
            continue;
        std::string text = common::readFile(rdir + "/" + name);
        size_t start = 0;
        while (start < text.size()) {
            size_t nl = text.find('\n', start);
            if (nl == std::string::npos)
                break; // torn trailing append from a killed worker
            std::string line = text.substr(start, nl - start);
            start = nl + 1;
            size_t t1 = line.find('\t');
            size_t t2 = t1 == std::string::npos
                            ? std::string::npos
                            : line.find('\t', t1 + 1);
            if (t2 == std::string::npos)
                continue;
            RunResult r;
            if (!deserializeResult(line.substr(t2 + 1), r))
                continue;
            size_t idx = std::strtoull(line.c_str(), nullptr, 10);
            out.emplace(idx, r); // first record wins; dups identical
        }
    }
    return out;
}

size_t
farmWorker(const FarmOptions &opt)
{
    std::vector<FarmJob> jobs;
    // A --join worker may race the coordinator's manifest publish.
    for (int i = 0; i < 50 && !readFarmManifest(opt.dir, jobs); ++i)
        common::sleepMs(100);
    fatal_if(jobs.empty(),
             "farm: no manifest in '%s' (is a coordinator running "
             "with --workers against this --farm-dir?)",
             opt.dir.c_str());

    const uint64_t killAt = killAtClaim(opt);
    const std::string identity = workerIdentity();
    const std::string resultsPath =
        farmResultsDir(opt.dir) + "/worker-" + identity + "-" +
        std::to_string(common::wallTimeMs()) + ".results";

    ClaimHeartbeat hb(heartbeatPeriod(opt));
    std::set<size_t> done = doneIndices(opt.dir);
    uint64_t claims = 0;
    size_t ran = 0;
    // Decorrelate scan origins so workers fan out across the grid
    // instead of racing for job 0 first.
    size_t origin =
        (static_cast<size_t>(opt.workerId) * 7919) % jobs.size();
    while (done.size() < jobs.size()) {
        bool progressed = false;
        for (size_t k = 0; k < jobs.size(); ++k) {
            const FarmJob &job = jobs[(origin + k) % jobs.size()];
            if (done.count(job.index))
                continue;
            unsigned gen = 0;
            if (!farmClaimJob(opt.dir, job, identity, opt.claimTtlMs,
                              &gen))
                continue;
            // The previous owner may have appended the result and
            // died before releasing the claim — don't run it twice.
            done = doneIndices(opt.dir);
            if (done.count(job.index)) {
                farmReleaseClaim(opt.dir, job, gen);
                continue;
            }
            ++claims;
            if (killAt && claims == killAt) {
                warn("farm: worker %d (%s) injecting "
                     "farm-kill-worker before claim #%llu (job #%zu)",
                     opt.workerId, identity.c_str(),
                     static_cast<unsigned long long>(claims),
                     job.index);
                ::raise(SIGKILL);
            }
            hb.watch(claimPathFor(opt.dir, job.index, gen));
            RunResult r = runOne(job.spec);
            hb.watch("");
            // Result before release: a released claim with no result
            // means "owner died", so the order must never invert.
            appendResultLine(resultsPath, job, r);
            farmReleaseClaim(opt.dir, job, gen);
            done.insert(job.index);
            ++ran;
            progressed = true;
        }
        if (progressed)
            continue;
        done = doneIndices(opt.dir);
        if (done.size() >= jobs.size())
            break;
        // Everything left is claimed by someone else (or waiting out
        // a stale TTL); nap briefly and rescan.
        common::sleepMs(std::min<int64_t>(200, opt.claimTtlMs / 4 + 1));
    }
    return ran;
}

std::vector<RunResult>
runFarm(ResultCache &cache, const std::vector<RunSpec> &specs,
        const FarmOptions &opt)
{
    fatal_if(opt.dir.empty(), "farm: no coordination directory set");
    fatal_if(opt.workers < 1, "farm: need at least one worker");

    // Same dedup as Sweep::run(): one job per distinct key.
    std::vector<RunResult> results(specs.size());
    std::vector<size_t> unique;
    std::vector<size_t> aliasOf(specs.size());
    {
        std::map<std::string, size_t> first;
        for (size_t i = 0; i < specs.size(); ++i) {
            auto [it, fresh] = first.emplace(specs[i].key(), i);
            aliasOf[i] = it->second;
            if (fresh)
                unique.push_back(i);
        }
    }

    // Cold unique specs become the manifest; warm ones replay from
    // the cache below (--resume "skips cached-valid rows" for free).
    std::vector<FarmJob> jobs;
    for (size_t i : unique) {
        std::string key = specs[i].key();
        if (cache.contains(key))
            continue;
        jobs.push_back({i, specs[i], key});
    }

    std::map<std::string, RunResult> farmByKey;
    if (!jobs.empty()) {
        std::vector<FarmJob> existing;
        bool haveManifest = readFarmManifest(opt.dir, existing);
        fatal_if(haveManifest && !opt.resume,
                 "farm: %s already holds a sweep; pass --resume to "
                 "continue it or remove the directory",
                 farmManifestPath(opt.dir).c_str());
        if (haveManifest) {
            // Adopt the interrupted manifest, but only if this sweep
            // is the same one: every still-cold job must be pinned in
            // it under the same index and key.
            std::map<size_t, std::string> pinned;
            for (const FarmJob &j : existing)
                pinned[j.index] = j.key;
            for (const FarmJob &j : jobs) {
                auto it = pinned.find(j.index);
                fatal_if(it == pinned.end() || it->second != j.key,
                         "farm: --resume sweep does not match the "
                         "manifest in %s (job #%zu %s); remove the "
                         "directory to start over",
                         opt.dir.c_str(), j.index, j.key.c_str());
            }
            jobs = std::move(existing);
            inform("farm: resuming %s (%zu jobs, %zu already done)",
                   opt.dir.c_str(), jobs.size(),
                   doneIndices(opt.dir).size());
        } else {
            writeFarmManifest(opt.dir, jobs);
        }

        std::vector<pid_t> children;
        for (int w = 1; w < opt.workers; ++w)
            children.push_back(spawnWorker(opt, w));
        FarmOptions self = opt;
        self.workerId = 0;
        size_t ran = farmWorker(self);
        for (pid_t pid : children) {
            int status = 0;
            if (::waitpid(pid, &status, 0) < 0)
                warn("farm: waitpid(%ld): %s", static_cast<long>(pid),
                     std::strerror(errno));
            else if (WIFSIGNALED(status))
                warn("farm: worker pid %ld killed by signal %d "
                     "(its jobs were re-stolen)",
                     static_cast<long>(pid), WTERMSIG(status));
            else if (WIFEXITED(status) && WEXITSTATUS(status) != 0)
                warn("farm: worker pid %ld exited %d",
                     static_cast<long>(pid), WEXITSTATUS(status));
        }

        auto farmResults = readFarmResults(opt.dir);
        std::map<size_t, const FarmJob *> byIndex;
        for (const FarmJob &j : jobs)
            byIndex[j.index] = &j;
        for (const auto &[idx, job] : byIndex) {
            auto it = farmResults.find(idx);
            // farmWorker only returns once every job has a result, so
            // a hole here is a protocol bug, not a recoverable state.
            fatal_if(it == farmResults.end(),
                     "farm: job #%zu (%s) has no result after the "
                     "farm drained",
                     idx, job->key.c_str());
            farmByKey[job->key] = it->second;
            cache.insert(job->key, it->second);
        }
        inform("farm: %zu jobs done (%zu run by the coordinator, "
               "%zu by %d spawned worker%s)",
               jobs.size(), ran, jobs.size() - ran,
               opt.workers - 1, opt.workers == 2 ? "" : "s");
    }

    for (size_t i : unique) {
        auto it = farmByKey.find(specs[i].key());
        // Warm rows (and, with caching on, farmed rows too) replay
        // from the cache; the direct map covers --no-cache farms.
        results[i] = it != farmByKey.end() ? it->second
                                           : cache.run(specs[i]);
    }
    for (size_t i = 0; i < specs.size(); ++i)
        if (aliasOf[i] != i)
            results[i] = results[aliasOf[i]];
    return results;
}

} // namespace bigtiny::bench
