/**
 * @file
 * Host-side file primitives for multi-process coordination.
 *
 * The sweep farm (bench/farm.{hh,cc}) shards a sweep across worker
 * processes that share nothing but a directory; everything they need
 * reduces to a handful of POSIX idioms collected here:
 *
 *  - createExclusive(): O_CREAT|O_EXCL claim files — the atomic
 *    "exactly one winner" primitive behind work-stealing job claims
 *    and behind steals (the O_EXCL create of a claim's next
 *    generation);
 *  - touchFile()/fileAgeMs(): heartbeats as mtime updates, staleness
 *    as mtime age — no file rewrites, no content races;
 *  - renameFile(): rename(2), the publish step of atomicWriteFile();
 *  - appendLine(): a single O_APPEND write(2) per record, so
 *    concurrent writers interleave whole lines and a killed writer
 *    leaves at most one torn trailing line;
 *  - atomicWriteFile(): write-to-temp + rename publication, so a
 *    reader never observes a half-written manifest.
 *
 * These are host-process utilities; nothing here touches simulated
 * state. All functions are silent on expected races (EEXIST, ENOENT)
 * and warn() only on genuinely unexpected failures.
 */

#ifndef BIGTINY_COMMON_CLAIM_HH
#define BIGTINY_COMMON_CLAIM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace bigtiny::common
{

/**
 * Create @p path with O_CREAT|O_EXCL and write @p contents.
 * @return true iff this call created the file (the claim is ours).
 */
bool createExclusive(const std::string &path,
                     const std::string &contents);

/** Refresh @p path's mtime to now (heartbeat). False if missing. */
bool touchFile(const std::string &path);

/**
 * Milliseconds since @p path's last mtime update, by the local clock.
 * @return -1 when the file does not exist. Clock skew between hosts
 * sharing a filesystem eats into claim TTLs; keep TTL >> skew.
 */
int64_t fileAgeMs(const std::string &path);

/** rename(2); false when @p from vanished (lost a steal race). */
bool renameFile(const std::string &from, const std::string &to);

/** unlink(2); false when already gone. */
bool removeFile(const std::string &path);

/** mkdir -p (each missing component, 0777 & ~umask). */
bool makeDirs(const std::string &path);

/** Whole file as a string; empty string when unreadable. */
std::string readFile(const std::string &path);

/** Write-to-temp + rename so readers never see a partial file. */
bool atomicWriteFile(const std::string &path,
                     const std::string &contents);

/**
 * Append @p line + '\n' with one write(2) on an O_APPEND descriptor:
 * concurrent appenders interleave whole lines, and a writer killed
 * mid-call leaves at most one torn trailing line.
 */
bool appendLine(const std::string &path, const std::string &line);

/** Regular-file names in @p dir (no "."/".."), sorted. */
std::vector<std::string> listDir(const std::string &path);

/** This host's name ("unknown-host" as a last resort). */
std::string hostName();

/** True when @p pid is a live process on THIS host (kill(pid, 0)).
 *  A recycled pid can alias a dead process to a live one, so callers
 *  must treat "alive" as advisory and keep an age-based fallback. */
bool processAlive(int64_t pid);

/** Wall-clock now in ms (for claim-file timestamps and log lines). */
int64_t wallTimeMs();

/** Sleep the calling thread for @p ms milliseconds. */
void sleepMs(int64_t ms);

} // namespace bigtiny::common

#endif // BIGTINY_COMMON_CLAIM_HH
